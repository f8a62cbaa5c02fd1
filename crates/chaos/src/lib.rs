//! # dim-chaos
//!
//! Deterministic, seed-driven fault injection for the dimension-perception
//! pipeline. A [`FaultPlan`] decides, purely from `(seed, site, index)`,
//! whether a given record at a given *site* (a named injection point such as
//! `"link.annotate"` or `"mwp.gen.math23k"`) is faulted and with which
//! [`FaultKind`]. The decision function is a SplitMix64-style finalizer — the
//! same discipline as `dim_par::seed_for` — so a plan produces the *same*
//! faults at every thread width and on every run.
//!
//! The injector follows the `dim-obs` global-toggle contract:
//!
//! * **off by default** — nothing is injected unless [`install`] is called
//!   with a positive rate and a non-empty kind set;
//! * **one acquire atomic load per site when disabled** — [`fault_at`]
//!   returns immediately after a single `AtomicBool` load;
//! * zero dependencies, `std` only.
//!
//! The plans are process-global. Code that installs one for a bounded
//! window (a test, a chaos report, a soak phase) takes a [`scoped`] or
//! [`scoped_conn`] guard: it serialises every such window in the process
//! on one mutex, installs the plan once the mutex is held, and clears both
//! plans on drop, so no window can see or wipe another's plan.
//!
//! Faults are consulted **only** by the degraded-mode (`try_*`) entry points;
//! the classic batch paths never call [`fault_at`], so installing a plan
//! cannot perturb golden outputs of the classic pipeline.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The kinds of fault the injector can produce at a site.
///
/// The data-corruption kinds are *honest*: the degraded-mode sites realize
/// them by feeding [`MALFORMED_EXPR`] / [`CORRUPT_UNIT`] through the real
/// `dimkb` parser and lookup paths, so the resulting errors travel the same
/// code as genuine bad records would.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic inside the work item (caught by the panic-isolated `par_map`).
    Panic,
    /// A unit expression that fails `dimkb::expr` parsing.
    MalformedExpr,
    /// A KB lookup against a unit code that does not exist.
    CorruptKb,
    /// An input record larger than the degraded-mode size cap.
    Oversize,
}

impl FaultKind {
    /// All kinds, in the fixed order used for deterministic kind selection.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Panic,
        FaultKind::MalformedExpr,
        FaultKind::CorruptKb,
        FaultKind::Oversize,
    ];

    /// Stable lowercase name, used in plan banners and manifests.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::MalformedExpr => "malformed-expr",
            FaultKind::CorruptKb => "corrupt-kb",
            FaultKind::Oversize => "oversize",
        }
    }

    fn bit(self) -> u64 {
        match self {
            FaultKind::Panic => 1,
            FaultKind::MalformedExpr => 2,
            FaultKind::CorruptKb => 4,
            FaultKind::Oversize => 8,
        }
    }
}

/// A set of [`FaultKind`]s, stored as a bitmask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultKinds(u64);

impl FaultKinds {
    /// The empty set (a plan with no kinds never fires).
    pub const NONE: FaultKinds = FaultKinds(0);
    /// Every fault kind.
    pub const ALL: FaultKinds = FaultKinds(0b1111);

    /// A set containing exactly `kind`.
    pub fn only(kind: FaultKind) -> FaultKinds {
        FaultKinds(kind.bit())
    }

    /// This set plus `kind`.
    pub fn with(self, kind: FaultKind) -> FaultKinds {
        FaultKinds(self.0 | kind.bit())
    }

    /// Whether `kind` is in the set.
    pub fn contains(self, kind: FaultKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Members in the fixed [`FaultKind::ALL`] order.
    pub fn members(self) -> Vec<FaultKind> {
        FaultKind::ALL
            .into_iter()
            .filter(|k| self.contains(*k))
            .collect()
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

/// A fault-injection plan: which fraction of records fault, which kinds are
/// allowed, and the seed that makes every decision reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed; decisions are a pure function of `(seed, site, index)`.
    pub seed: u64,
    /// Fault probability per record in `[0, 1]`. Rate `0.0` never fires.
    pub rate: f64,
    /// Which fault kinds may be injected.
    pub kinds: FaultKinds,
}

impl FaultPlan {
    /// The plan that never fires: a [`scoped`] window with no faults.
    pub const OFF: FaultPlan = FaultPlan { seed: 0, rate: 0.0, kinds: FaultKinds::NONE };

    /// A plan injecting every kind at `rate` under `seed`.
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate,
            kinds: FaultKinds::ALL,
        }
    }

    /// Whether this plan can ever fire.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && !self.kinds.is_empty()
    }

    /// The pure decision function: does `site[index]` fault, and how?
    ///
    /// `h = mix(seed, fnv1a(site), index)` is a SplitMix64 finalizer over the
    /// three inputs; its top 53 bits form a uniform draw in `[0, 1)` that is
    /// compared against `rate`, and a second finalizer round picks the kind.
    /// Two calls with the same inputs always agree — across runs, thread
    /// widths, and machines.
    pub fn decide(&self, site: &str, index: u64) -> Option<FaultKind> {
        if !self.is_active() {
            return None;
        }
        let h = mix(self.seed, fnv1a(site.as_bytes()), index);
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= self.rate {
            return None;
        }
        let members = self.kinds.members();
        let pick = mix(h, 0x9E37_79B9_7F4A_7C15, index) as usize % members.len();
        // lint:allow(no_panic, pick < members.len() by the modulo above; members is non-empty because is_active() checked kinds)
        Some(members[pick])
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

// Global plan storage. `ENABLED` is the single atomic load on the disabled
// fast path; the plan fields are only read after it observes `true`.
// `install` publishes the fields with a release store of `ENABLED`, and
// every `ENABLED` load is acquire, so a reader that sees `true` also sees
// the plan fields that were stored before it (found by dim-lint's
// relaxed-ordering audit: the loads used to be relaxed, which let a racing
// reader observe `enabled` with a stale seed/rate).
static ENABLED: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);
static RATE_BITS: AtomicU64 = AtomicU64::new(0);
static KINDS: AtomicU64 = AtomicU64::new(0);

/// Installs `plan` globally. A plan that can never fire (rate 0 or empty
/// kinds) leaves the injector disabled, so `--chaos-rate 0` is
/// indistinguishable from no plan at all.
pub fn install(plan: FaultPlan) {
    // The release store of ENABLED below orders these field stores for
    // every acquire reader; the stores themselves need no ordering.
    SEED.store(plan.seed, Ordering::Relaxed); // lint:allow(relaxed_ordering, published by the release store of ENABLED below)
    RATE_BITS.store(plan.rate.to_bits(), Ordering::Relaxed); // lint:allow(relaxed_ordering, published by the release store of ENABLED below)
    KINDS.store(plan.kinds.0, Ordering::Relaxed); // lint:allow(relaxed_ordering, published by the release store of ENABLED below)
    ENABLED.store(plan.is_active(), Ordering::Release);
}

/// Disables injection (the default state). Also clears the connection-level
/// plan, so `clear()` restores the fully chaos-free world — test harnesses
/// rely on one call resetting everything.
pub fn clear() {
    ENABLED.store(false, Ordering::Release);
    CONN_ENABLED.store(false, Ordering::Release);
}

/// Whether a fault plan is installed and active. Acquire pairs with the
/// release store in [`install`]: a `true` here guarantees the plan fields
/// are visible.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// The installed plan, if the injector is enabled.
pub fn current_plan() -> Option<FaultPlan> {
    if !enabled() {
        return None;
    }
    // The acquire load in `enabled()` ordered these; plain relaxed reads
    // of independently-atomic fields are all that's left.
    Some(FaultPlan {
        seed: SEED.load(Ordering::Relaxed), // lint:allow(relaxed_ordering, ordered by the acquire load of ENABLED in enabled())
        rate: f64::from_bits(RATE_BITS.load(Ordering::Relaxed)), // lint:allow(relaxed_ordering, ordered by the acquire load of ENABLED in enabled())
        kinds: FaultKinds(KINDS.load(Ordering::Relaxed)), // lint:allow(relaxed_ordering, ordered by the acquire load of ENABLED in enabled())
    })
}

/// The per-site injection check. Disabled: exactly one acquire atomic load
/// (free on x86, one fence-free ldar on aarch64). Enabled: delegates to
/// [`FaultPlan::decide`].
#[inline]
pub fn fault_at(site: &str, index: u64) -> Option<FaultKind> {
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    current_plan().and_then(|plan| plan.decide(site, index))
}

/// Serialises every [`scoped`] and [`scoped_conn`] window in the process.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

/// A window during which the process's fault plans are exactly the one its
/// constructor installed. It holds the process-wide chaos mutex; dropping
/// it (also while unwinding from a failed test) clears both plans and
/// releases the mutex.
#[must_use = "the plan is cleared as soon as the guard is dropped"]
pub struct ChaosGuard {
    _lock: MutexGuard<'static, ()>,
}

impl ChaosGuard {
    fn acquire() -> ChaosGuard {
        // A poisoned lock only means an earlier window panicked; its guard
        // cleared the plans while unwinding, so the state is clean.
        let lock = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        clear();
        ChaosGuard { _lock: lock }
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// Waits for the process-wide chaos mutex, then installs `plan` as the
/// record-fault plan, with no connection plan, until the guard drops.
/// [`FaultPlan::OFF`] gives a window with no faults at all. Also silences
/// the reports of injected panics (see [`silence_injected_panic_reports`]).
pub fn scoped(plan: FaultPlan) -> ChaosGuard {
    silence_injected_panic_reports();
    let guard = ChaosGuard::acquire();
    install(plan);
    guard
}

/// Waits for the process-wide chaos mutex, then installs `plan` as the
/// connection-fault plan, with no record plan, until the guard drops.
pub fn scoped_conn(plan: ConnPlan) -> ChaosGuard {
    let guard = ChaosGuard::acquire();
    install_conn(plan);
    guard
}

/// Installs a panic hook that suppresses the default stderr report for
/// panics whose payload starts with [`INJECTED_PANIC_PREFIX`], delegating
/// everything else to the previous hook. Injected panics are *expected* and
/// caught by the panic-isolated `par_map`; without this, a chaos sweep fills
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

// ===================== connection-level faults =====================

/// Transport-level fault kinds, injected by the serving layer per
/// *connection* rather than per record. They are deliberately a separate
/// taxonomy from [`FaultKind`]: adding members to [`FaultKind::ALL`] would
/// shift the kind-selection stream of every existing record-fault plan and
/// silently rewrite the chaos goldens, whereas connection faults get their
/// own plan, their own globals, and their own decision stream.
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

impl ConnFault {
    /// All kinds, in the fixed order used for deterministic kind selection.
    pub const ALL: [ConnFault; 3] =
        [ConnFault::Stall, ConnFault::PartialWrite, ConnFault::AbruptClose];

    /// Stable lowercase name, used in plan banners and soak reports.
    pub fn name(self) -> &'static str {
        match self {
            ConnFault::Stall => "stall",
            ConnFault::PartialWrite => "partial-write",
            ConnFault::AbruptClose => "abrupt-close",
        }
    }

    fn bit(self) -> u64 {
        match self {
            ConnFault::Stall => 1,
            ConnFault::PartialWrite => 2,
            ConnFault::AbruptClose => 4,
        }
    }
}

/// A set of [`ConnFault`]s, stored as a bitmask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnFaultKinds(u64);

impl ConnFaultKinds {
    /// The empty set (a plan with no kinds never fires).
    pub const NONE: ConnFaultKinds = ConnFaultKinds(0);
    /// Every connection fault kind.
    pub const ALL: ConnFaultKinds = ConnFaultKinds(0b111);

    /// A set containing exactly `kind`.
    pub fn only(kind: ConnFault) -> ConnFaultKinds {
        ConnFaultKinds(kind.bit())
    }

    /// This set plus `kind`.
    pub fn with(self, kind: ConnFault) -> ConnFaultKinds {
        ConnFaultKinds(self.0 | kind.bit())
    }

    /// Whether `kind` is in the set.
    pub fn contains(self, kind: ConnFault) -> bool {
        self.0 & kind.bit() != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Members in the fixed [`ConnFault::ALL`] order.
    pub fn members(self) -> Vec<ConnFault> {
        ConnFault::ALL.into_iter().filter(|k| self.contains(*k)).collect()
    }

    /// `stall|partial-write|...` rendering for plan banners.
    pub fn render(self) -> String {
        let names: Vec<&str> = self.members().iter().map(|k| k.name()).collect();
        if names.is_empty() {
            "none".to_string()
        } else {
            names.join("|")
        }
    }
}

/// A connection-fault plan: which fraction of connections fault, which
/// kinds are allowed, and the seed that makes every decision reproducible.
/// Decisions are a pure function of `(seed, site, index)` exactly like
/// [`FaultPlan::decide`], but salted differently so a shared seed does not
/// correlate the record and connection streams.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnPlan {
    /// Master seed; decisions are a pure function of `(seed, site, index)`.
    pub seed: u64,
    /// Fault probability per connection in `[0, 1]`. Rate `0.0` never fires.
    pub rate: f64,
    /// Which connection fault kinds may be injected.
    pub kinds: ConnFaultKinds,
}

impl ConnPlan {
    /// A plan injecting every connection fault kind at `rate` under `seed`.
    pub fn new(seed: u64, rate: f64) -> ConnPlan {
        ConnPlan { seed, rate, kinds: ConnFaultKinds::ALL }
    }

    /// Whether this plan can ever fire.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && !self.kinds.is_empty()
    }

    /// The pure decision function: does connection `site[index]` fault,
    /// and how? Same finalizer discipline as [`FaultPlan::decide`].
    pub fn decide(&self, site: &str, index: u64) -> Option<ConnFault> {
        if !self.is_active() {
            return None;
        }
        let h = mix(self.seed ^ CONN_STREAM_SALT, fnv1a(site.as_bytes()), index);
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= self.rate {
            return None;
        }
        let members = self.kinds.members();
        let pick = mix(h, 0x9E37_79B9_7F4A_7C15, index) as usize % members.len();
        // lint:allow(no_panic, pick < members.len() by the modulo above; members is non-empty because is_active() checked kinds)
        Some(members[pick])
    }

    /// The deterministic stall duration for a [`ConnFault::Stall`] decision
    /// at `site[index]`, in milliseconds — bounded to `1..=8` so a chaos
    /// soak slows down but never wedges.
    pub fn stall_ms(&self, site: &str, index: u64) -> u64 {
        1 + (mix(self.seed ^ CONN_STREAM_SALT, fnv1a(site.as_bytes()), index.rotate_left(17)) % 8)
    }
}

// Connection-plan globals: same publish discipline as the record plan —
// `CONN_ENABLED` is the single acquire load on the disabled fast path, and
// `install_conn` publishes the fields with its release store.
static CONN_ENABLED: AtomicBool = AtomicBool::new(false);
static CONN_SEED: AtomicU64 = AtomicU64::new(0);
static CONN_RATE_BITS: AtomicU64 = AtomicU64::new(0);
static CONN_KINDS: AtomicU64 = AtomicU64::new(0);

/// Stream salt separating connection-fault draws from record-fault draws
/// under a shared seed.
const CONN_STREAM_SALT: u64 = 0x5EED_C044_FA17_0001;

/// Installs `plan` as the global connection-fault plan. A plan that can
/// never fire leaves the connection injector disabled, so a rate-0 plan is
/// indistinguishable from no plan at all.
pub fn install_conn(plan: ConnPlan) {
    CONN_SEED.store(plan.seed, Ordering::Relaxed); // lint:allow(relaxed_ordering, published by the release store of CONN_ENABLED below)
    CONN_RATE_BITS.store(plan.rate.to_bits(), Ordering::Relaxed); // lint:allow(relaxed_ordering, published by the release store of CONN_ENABLED below)
    CONN_KINDS.store(plan.kinds.0, Ordering::Relaxed); // lint:allow(relaxed_ordering, published by the release store of CONN_ENABLED below)
    CONN_ENABLED.store(plan.is_active(), Ordering::Release);
}

/// Disables connection-fault injection (the default state).
pub fn clear_conn() {
    CONN_ENABLED.store(false, Ordering::Release);
}

/// Whether a connection-fault plan is installed and active.
pub fn conn_enabled() -> bool {
    CONN_ENABLED.load(Ordering::Acquire)
}

/// The installed connection plan, if the injector is enabled.
pub fn current_conn_plan() -> Option<ConnPlan> {
    if !conn_enabled() {
        return None;
    }
    Some(ConnPlan {
        seed: CONN_SEED.load(Ordering::Relaxed), // lint:allow(relaxed_ordering, ordered by the acquire load of CONN_ENABLED in conn_enabled())
        rate: f64::from_bits(CONN_RATE_BITS.load(Ordering::Relaxed)), // lint:allow(relaxed_ordering, ordered by the acquire load of CONN_ENABLED in conn_enabled())
        kinds: ConnFaultKinds(CONN_KINDS.load(Ordering::Relaxed)), // lint:allow(relaxed_ordering, ordered by the acquire load of CONN_ENABLED in conn_enabled())
    })
}

/// The per-connection injection check. Disabled: exactly one acquire
/// atomic load. Enabled: delegates to [`ConnPlan::decide`].
#[inline]
pub fn conn_fault_at(site: &str, index: u64) -> Option<ConnFault> {
    if !CONN_ENABLED.load(Ordering::Acquire) {
        return None;
    }
    current_conn_plan().and_then(|plan| plan.decide(site, index))
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
    fn a_waiting_scope_cannot_wipe_the_holders_plan() {
        let plan = FaultPlan::new(5, 0.5);
        let guard = scoped(plan);
        let (started, waiting) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            started.send(()).unwrap();
            let _g = scoped(FaultPlan::OFF);
            enabled()
        });
        waiting.recv().unwrap();
        // The assertion must hold under any interleaving; the pause only
        // lets the waiter get as far as the mutex.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(current_plan(), Some(plan), "a waiting scope must not touch the plan");
        drop(guard);
        assert!(!waiter.join().unwrap(), "the waiter's window has no faults");
    }

    #[test]
    fn disabled_by_default_and_after_clear() {
        let _g = scoped(FaultPlan::OFF);
        clear();
        assert!(!enabled());
        assert_eq!(fault_at("link.annotate", 0), None);
        install(FaultPlan::new(7, 0.5));
        assert!(enabled());
        clear();
        assert!(!enabled());
        assert_eq!(fault_at("link.annotate", 0), None);
    }

    #[test]
    fn rate_zero_plan_never_fires() {
        let _g = scoped(FaultPlan::OFF);
        install(FaultPlan::new(7, 0.0));
        assert!(!enabled());
        for i in 0..1000 {
            assert_eq!(fault_at("mwp.gen", i), None);
        }
        clear();
    }

    #[test]
    fn empty_kind_set_never_fires() {
        let _g = scoped(FaultPlan::OFF);
        install(FaultPlan {
            seed: 7,
            rate: 1.0,
            kinds: FaultKinds::NONE,
        });
        assert!(!enabled());
        assert_eq!(fault_at("mwp.gen", 3), None);
        clear();
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
    fn conn_plan_disabled_by_default_and_independent_of_record_plan() {
        let _g = scoped(FaultPlan::OFF);
        clear();
        assert!(!conn_enabled());
        assert_eq!(conn_fault_at("srv.conn", 0), None);
        // Installing a record plan must not enable connection faults.
        install(FaultPlan::new(7, 0.5));
        assert!(!conn_enabled());
        assert_eq!(conn_fault_at("srv.conn", 0), None);
        // And vice versa: a conn plan leaves the record injector alone.
        clear();
        install_conn(ConnPlan::new(7, 0.5));
        assert!(conn_enabled());
        assert!(!enabled());
        assert_eq!(fault_at("srv.request", 0), None);
        clear();
        assert!(!conn_enabled(), "clear() resets both plans");
    }

    #[test]
    fn conn_rate_zero_plan_never_fires() {
        let _g = scoped(FaultPlan::OFF);
        install_conn(ConnPlan::new(9, 0.0));
        assert!(!conn_enabled());
        for i in 0..1000 {
            assert_eq!(conn_fault_at("srv.conn", i), None);
        }
        clear_conn();
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

    #[test]
    fn conn_current_plan_round_trips() {
        let _g = scoped(FaultPlan::OFF);
        let plan = ConnPlan {
            seed: 321,
            rate: 0.0625,
            kinds: ConnFaultKinds::only(ConnFault::AbruptClose),
        };
        install_conn(plan);
        assert_eq!(current_conn_plan(), Some(plan));
        clear_conn();
        assert_eq!(current_conn_plan(), None);
    }

    #[test]
    fn current_plan_round_trips() {
        let _g = scoped(FaultPlan::OFF);
        let plan = FaultPlan {
            seed: 123,
            rate: 0.125,
            kinds: FaultKinds::only(FaultKind::MalformedExpr),
        };
        install(plan);
        assert_eq!(current_plan(), Some(plan));
        clear();
        assert_eq!(current_plan(), None);
    }
}
