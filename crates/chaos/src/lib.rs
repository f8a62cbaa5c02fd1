//! # dim-chaos
//!
//! Deterministic, seed-driven fault injection for the dimension-perception
//! pipeline. A [`FaultPlan`] decides, purely from `(seed, site, index)`,
//! whether a given record at a given *site* (a named injection point such as
//! `"link.annotate"` or `"mwp.gen.math23k"`) is faulted and with which
//! [`FaultKind`]. The decision function is a SplitMix64-style finalizer — the
//! same discipline as `dim_par::seed_for` — so a plan produces the *same*
//! faults at every thread width and on every run. A [`ConnPlan`] does the
//! same for the serving layer's connections, over [`ConnFault`]s.
//!
//! Plans are plain `Copy` values, handed to the code that runs under them:
//! a degraded-mode batch takes its plan inside a `dimkb::degrade::Policy`,
//! and a server takes its record and connection plans in its config. There
//! is no process-global plan, so calls under different plans — a classic
//! batch beside a chaos run, or two servers — can run at once in one
//! process and never see each other's faults. [`FaultPlan::OFF`] and
//! [`ConnPlan::OFF`] never fire.
//!
//! Zero dependencies, `std` only.

use std::marker::PhantomData;

/// A fault taxonomy: the kinds a [`Plan`] can inject and a [`Kinds`] set
/// ranges over.
pub trait Kind: Copy + PartialEq + 'static {
    /// Every member, in the fixed order used for deterministic kind
    /// selection; member `i` is bit `1 << i` of a [`Kinds`] set.
    const ALL: &'static [Self];
    /// Salt XORed into the plan seed, so that one seed does not correlate
    /// the decision streams of two taxonomies.
    const SALT: u64;
    /// Stable lowercase name, used in plan banners, manifests and reports.
    fn name(self) -> &'static str;
}

/// The kinds of fault the injector can produce at a record site.
///
/// The data-corruption kinds are *honest*: the degraded-mode sites realize
/// them by feeding [`MALFORMED_EXPR`] / [`CORRUPT_UNIT`] through the real
/// `dimkb` parser and lookup paths, so the resulting errors travel the same
/// code as genuine bad records would.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic inside the work item (caught by `dimkb::degrade::isolate`).
    Panic,
    /// A unit expression that fails `dimkb::expr` parsing.
    MalformedExpr,
    /// A KB lookup against a unit code that does not exist.
    CorruptKb,
    /// An input record larger than the degraded-mode size cap.
    Oversize,
}

impl Kind for FaultKind {
    const ALL: &'static [FaultKind] = &[
        FaultKind::Panic,
        FaultKind::MalformedExpr,
        FaultKind::CorruptKb,
        FaultKind::Oversize,
    ];
    const SALT: u64 = 0;

    fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::MalformedExpr => "malformed-expr",
            FaultKind::CorruptKb => "corrupt-kb",
            FaultKind::Oversize => "oversize",
        }
    }
}

/// Transport-level fault kinds, injected by the serving layer per
/// *connection* rather than per record. They are deliberately a separate
/// taxonomy from [`FaultKind`]: adding members to `FaultKind::ALL` would
/// shift the kind-selection stream of every existing record-fault plan and
/// silently rewrite the chaos goldens, whereas connection faults get their
/// own plan and their own (salted) decision stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConnFault {
    /// A bounded pause before the connection is served (a slow worker /
    /// congested network in miniature).
    Stall,
    /// The first response is cut off mid-write and the connection closed —
    /// the client observes a truncated frame.
    PartialWrite,
    /// The connection is closed before a single byte is read or written.
    AbruptClose,
}

impl Kind for ConnFault {
    const ALL: &'static [ConnFault] =
        &[ConnFault::Stall, ConnFault::PartialWrite, ConnFault::AbruptClose];
    const SALT: u64 = 0x5EED_C044_FA17_0001;

    fn name(self) -> &'static str {
        match self {
            ConnFault::Stall => "stall",
            ConnFault::PartialWrite => "partial-write",
            ConnFault::AbruptClose => "abrupt-close",
        }
    }
}

/// A set of one taxonomy's fault kinds, stored as a bitmask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kinds<K>(u64, PhantomData<K>);

/// A set of [`FaultKind`]s.
pub type FaultKinds = Kinds<FaultKind>;
/// A set of [`ConnFault`]s.
pub type ConnFaultKinds = Kinds<ConnFault>;

impl<K: Kind> Kinds<K> {
    /// The empty set (a plan with no kinds never fires).
    pub const NONE: Kinds<K> = Kinds(0, PhantomData);
    /// Every kind of the taxonomy.
    pub const ALL: Kinds<K> = Kinds((1 << K::ALL.len()) - 1, PhantomData);

    fn bit(kind: K) -> u64 {
        K::ALL.iter().position(|&k| k == kind).map_or(0, |i| 1 << i)
    }

    /// A set containing exactly `kind`.
    pub fn only(kind: K) -> Kinds<K> {
        Kinds::NONE.with(kind)
    }

    /// This set plus `kind`.
    pub fn with(self, kind: K) -> Kinds<K> {
        Kinds(self.0 | Self::bit(kind), PhantomData)
    }

    /// Whether `kind` is in the set.
    pub fn contains(self, kind: K) -> bool {
        self.0 & Self::bit(kind) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Members in the fixed [`Kind::ALL`] order.
    pub fn members(self) -> Vec<K> {
        K::ALL.iter().copied().filter(|&k| self.contains(k)).collect()
    }

    /// `panic|malformed-expr|...` rendering for plan banners.
    pub fn render(self) -> String {
        let names: Vec<&str> = self.members().iter().map(|k| k.name()).collect();
        if names.is_empty() {
            "none".to_string()
        } else {
            names.join("|")
        }
    }
}

/// A fault-injection plan: which fraction of records (or connections)
/// fault, which kinds are allowed, and the seed that makes every decision
/// reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan<K> {
    /// Master seed; decisions are a pure function of `(seed, site, index)`.
    pub seed: u64,
    /// Fault probability per record in `[0, 1]`. Rate `0.0` never fires.
    pub rate: f64,
    /// Which fault kinds may be injected.
    pub kinds: Kinds<K>,
}

/// A record-fault plan, consulted by the degraded-mode batch sites and the
/// serving layer's request path.
pub type FaultPlan = Plan<FaultKind>;
/// A connection-fault plan, consulted once per accepted connection.
pub type ConnPlan = Plan<ConnFault>;

impl<K: Kind> Plan<K> {
    /// The plan that never fires.
    pub const OFF: Plan<K> = Plan { seed: 0, rate: 0.0, kinds: Kinds::NONE };

    /// A plan injecting every kind at `rate` under `seed`.
    pub fn new(seed: u64, rate: f64) -> Plan<K> {
        Plan { seed, rate, kinds: Kinds::ALL }
    }

    /// Whether this plan can ever fire.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && !self.kinds.is_empty()
    }

    /// The pure decision function: does `site[index]` fault, and how?
    ///
    /// `h = mix(seed ^ salt, fnv1a(site), index)` is a SplitMix64 finalizer
    /// over the three inputs; its top 53 bits form a uniform draw in
    /// `[0, 1)` that is compared against `rate`, and a second finalizer
    /// round picks the kind. Two calls with the same inputs always agree —
    /// across runs, thread widths, and machines.
    pub fn decide(&self, site: &str, index: u64) -> Option<K> {
        if !self.is_active() {
            return None;
        }
        let h = mix(self.seed ^ K::SALT, fnv1a(site.as_bytes()), index);
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= self.rate {
            return None;
        }
        let members = self.kinds.members();
        let pick = (mix(h, 0x9E37_79B9_7F4A_7C15, index) as usize).checked_rem(members.len())?;
        members.get(pick).copied()
    }
}

impl ConnPlan {
    /// The deterministic stall duration for a [`ConnFault::Stall`] decision
    /// at `site[index]`, in milliseconds — bounded to `1..=8` so a chaos
    /// soak slows down but never wedges.
    pub fn stall_ms(&self, site: &str, index: u64) -> u64 {
        1 + (mix(self.seed ^ ConnFault::SALT, fnv1a(site.as_bytes()), index.rotate_left(17)) % 8)
    }
}

/// Canned unit expression that fails `dimkb::expr` tokenization/parsing.
/// Degraded-mode sites feed this through the *real* parser so the injected
/// error is a genuine `KbError::ExprParse`.
pub const MALFORMED_EXPR: &str = "((km^^⁻/ · )) %%";

/// Canned unit code that exists in no knowledge base; looking it up drives
/// the real `KbError::UnknownUnit` path.
pub const CORRUPT_UNIT: &str = "__CHAOS_CORRUPT_UNIT__";

/// Prefix of every injected panic message; the quiet panic hook installed by
/// [`silence_injected_panic_reports`] matches on this.
pub const INJECTED_PANIC_PREFIX: &str = "chaos: injected panic";

/// Installs a panic hook that suppresses the default stderr report for
/// panics whose payload starts with [`INJECTED_PANIC_PREFIX`], delegating
/// everything else to the previous hook. Injected panics are *expected* and
/// caught by `dimkb::degrade::isolate`; without this, a chaos sweep fills
/// stderr with noise from worker threads. Idempotent per process.
pub fn silence_injected_panic_reports() {
    use std::sync::Once;
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.as_str()));
            if msg.is_some_and(|m| m.starts_with(INJECTED_PANIC_PREFIX)) {
                return;
            }
            prev(info);
        }));
    });
}

/// FNV-1a over the site name: cheap, stable, and good enough to separate the
/// handful of site streams (the SplitMix64 finalizer does the real mixing).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64-style finalizer over the three decision inputs — the same
/// discipline `dim_par::seed_for` uses for per-item RNG streams.
fn mix(seed: u64, site_hash: u64, index: u64) -> u64 {
    let mut z = seed
        ^ site_hash.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plans_never_fire() {
        assert!(!FaultPlan::OFF.is_active());
        assert!(!ConnPlan::OFF.is_active());
        for i in 0..1000 {
            assert_eq!(FaultPlan::OFF.decide("mwp.gen", i), None);
            assert_eq!(ConnPlan::OFF.decide("srv.conn", i), None);
        }
    }

    #[test]
    fn rate_zero_plan_never_fires() {
        let plan = FaultPlan::new(7, 0.0);
        assert!(!plan.is_active());
        for i in 0..1000 {
            assert_eq!(plan.decide("mwp.gen", i), None);
        }
    }

    #[test]
    fn empty_kind_set_never_fires() {
        let plan = FaultPlan { seed: 7, rate: 1.0, kinds: FaultKinds::NONE };
        assert!(!plan.is_active());
        for i in 0..1000 {
            assert_eq!(plan.decide("mwp.gen", i), None);
        }
    }

    #[test]
    fn rate_one_always_fires() {
        let plan = FaultPlan::new(42, 1.0);
        for i in 0..200 {
            assert!(plan.decide("dimeval.task", i).is_some());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_site_separated() {
        let plan = FaultPlan::new(0xC4A05, 0.25);
        let a: Vec<_> = (0..500).map(|i| plan.decide("link.annotate", i)).collect();
        let b: Vec<_> = (0..500).map(|i| plan.decide("link.annotate", i)).collect();
        assert_eq!(a, b, "same inputs must give same decisions");
        let c: Vec<_> = (0..500).map(|i| plan.decide("mwp.gen", i)).collect();
        assert_ne!(a, c, "different sites must get different fault streams");
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let plan = FaultPlan::new(9, 0.2);
        let n = 10_000u64;
        let hits = (0..n).filter(|&i| plan.decide("s", i).is_some()).count();
        let observed = hits as f64 / n as f64;
        assert!(
            (observed - 0.2).abs() < 0.02,
            "observed rate {observed} too far from 0.2"
        );
    }

    #[test]
    fn kind_filtering_respects_the_set() {
        let plan = FaultPlan {
            seed: 11,
            rate: 1.0,
            kinds: FaultKinds::only(FaultKind::Panic).with(FaultKind::Oversize),
        };
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let k = plan.decide("s", i).expect("rate 1.0 always fires");
            assert!(matches!(k, FaultKind::Panic | FaultKind::Oversize));
            seen.insert(k);
        }
        assert_eq!(seen.len(), 2, "both allowed kinds should appear");
    }

    #[test]
    fn kinds_render_in_fixed_order() {
        assert_eq!(FaultKinds::ALL.render(), "panic|malformed-expr|corrupt-kb|oversize");
        assert_eq!(FaultKinds::NONE.render(), "none");
        assert_eq!(FaultKinds::only(FaultKind::CorruptKb).render(), "corrupt-kb");
    }

    #[test]
    fn conn_rate_zero_plan_never_fires() {
        let plan = ConnPlan::new(9, 0.0);
        assert!(!plan.is_active());
        for i in 0..1000 {
            assert_eq!(plan.decide("srv.conn", i), None);
        }
    }

    #[test]
    fn conn_decisions_are_deterministic_and_decorrelated_from_record_stream() {
        let conn = ConnPlan::new(0xC4A05, 0.25);
        let rec = FaultPlan::new(0xC4A05, 0.25);
        let a: Vec<_> = (0..500).map(|i| conn.decide("srv.conn", i)).collect();
        let b: Vec<_> = (0..500).map(|i| conn.decide("srv.conn", i)).collect();
        assert_eq!(a, b, "same inputs must give same decisions");
        let fired: Vec<u64> = (0..500).filter(|&i| conn.decide("srv.conn", i).is_some()).collect();
        let rec_fired: Vec<u64> = (0..500).filter(|&i| rec.decide("srv.conn", i).is_some()).collect();
        assert_ne!(fired, rec_fired, "shared seed must not correlate the two streams");
        assert!(!fired.is_empty(), "rate 0.25 over 500 connections must fire");
    }

    #[test]
    fn conn_kind_filtering_and_rate_one() {
        let plan = ConnPlan {
            seed: 11,
            rate: 1.0,
            kinds: ConnFaultKinds::only(ConnFault::Stall).with(ConnFault::AbruptClose),
        };
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let k = plan.decide("srv.conn", i).expect("rate 1.0 always fires");
            assert!(matches!(k, ConnFault::Stall | ConnFault::AbruptClose));
            seen.insert(k);
        }
        assert_eq!(seen.len(), 2, "both allowed kinds should appear");
    }

    #[test]
    fn conn_stall_is_bounded_and_deterministic() {
        let plan = ConnPlan::new(3, 1.0);
        for i in 0..200 {
            let ms = plan.stall_ms("srv.conn", i);
            assert!((1..=8).contains(&ms), "stall {ms}ms out of bounds");
            assert_eq!(ms, plan.stall_ms("srv.conn", i));
        }
    }

    #[test]
    fn conn_kinds_render_in_fixed_order() {
        assert_eq!(ConnFaultKinds::ALL.render(), "stall|partial-write|abrupt-close");
        assert_eq!(ConnFaultKinds::NONE.render(), "none");
        assert_eq!(ConnFaultKinds::only(ConnFault::PartialWrite).render(), "partial-write");
    }
}
