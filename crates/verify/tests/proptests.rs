//! Property tests for the dimensional checker.
//!
//! Two claims the verifier rests on, exercised over generated input:
//!
//! 1. **Commutation invariance** — `+` and `*` are symmetric in both
//!    checker layers: swapping the operands of any such node never
//!    changes the verdict, and a consistent tree keeps its dimension.
//! 2. **Totality** — the checker never panics: arbitrary trees with
//!    out-of-range quantity indices, unresolvable leaves, and malformed
//!    equation strings all come back as typed reports or parse errors.

use dim_mwp::{generate, GenConfig, Node, Op, Source};
use dim_verify::{check, check_scales, verify_equation_text, Scales, Ty, VerifyReport};
use dimkb::{DimUnitKb, DimVec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small pool of leaf dimensions spanning base and derived vectors.
fn dim_pool() -> Vec<DimVec> {
    ["L1", "M1", "T1", "L1T-1", "L3", "M1L-3", "L2"]
        .iter()
        .filter_map(|f| DimVec::parse(f).ok())
        .chain([DimVec::DIMENSIONLESS])
        .collect()
}

/// An arbitrary equation tree over `nq` quantities. With `wild`, leaf
/// indices may exceed the quantity count (the totality property).
fn arb_node(rng: &mut StdRng, depth: usize, nq: usize, wild: bool) -> Node {
    let slack = if wild { 2 } else { 0 };
    if depth == 0 || rng.gen_bool(0.35) {
        if nq + slack > 0 && rng.gen_bool(0.7) {
            Node::Q(rng.gen_range(0..nq + slack))
        } else {
            Node::Const(rng.gen_range(1..100) as f64)
        }
    } else {
        let op = match rng.gen_range(0..4u8) {
            0 => Op::Add,
            1 => Op::Sub,
            2 => Op::Mul,
            _ => Op::Div,
        };
        let l = arb_node(rng, depth - 1, nq, wild);
        let r = arb_node(rng, depth - 1, nq, wild);
        Node::bin(op, l, r)
    }
}

/// Swaps the operands of the `target`-th commutative (`+`/`*`) node in
/// preorder; other nodes pass through unchanged.
fn commute(node: &Node, target: usize, next: &mut usize) -> Node {
    match node {
        Node::Q(i) => Node::Q(*i),
        Node::Const(c) => Node::Const(*c),
        Node::Bin(op, l, r) => {
            let here = matches!(op, Op::Add | Op::Mul).then(|| {
                let h = *next;
                *next += 1;
                h
            });
            let (l, r) = (commute(l, target, next), commute(r, target, next));
            if here == Some(target) {
                Node::bin(*op, r, l)
            } else {
                Node::bin(*op, l, r)
            }
        }
    }
}

fn count_commutative(node: &Node) -> usize {
    match node {
        Node::Q(_) | Node::Const(_) => 0,
        Node::Bin(op, l, r) => {
            usize::from(matches!(op, Op::Add | Op::Mul))
                + count_commutative(l)
                + count_commutative(r)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Swapping the operands of any `+`/`*` node preserves the verdict
    /// of both layers, and a consistent tree keeps its dimension.
    #[test]
    fn verdict_is_invariant_under_commutation(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = dim_pool();
        let nq = rng.gen_range(1..6usize);
        let leaves: Vec<Option<Ty>> = (0..nq)
            .map(|_| {
                let d = pool[rng.gen_range(0..pool.len())];
                Some(Ty::Dim(d))
            })
            .collect();
        let scales: Vec<Scales> = (0..nq)
            .map(|_| Scales::one([1.0, 0.01, 1000.0][rng.gen_range(0..3usize)]))
            .collect();
        let node = arb_node(&mut rng, 4, nq, false);
        let commutative = count_commutative(&node);
        prop_assume!(commutative > 0);
        let target = rng.gen_range(0..commutative);
        let swapped = commute(&node, target, &mut 0);

        let a = check(&node, &leaves, Some(Ty::Any));
        let b = check(&swapped, &leaves, Some(Ty::Any));
        prop_assert!(a.is_consistent() == b.is_consistent(), "{:?} vs {:?}", a, b);
        if let (VerifyReport::Consistent { dim: da }, VerifyReport::Consistent { dim: db }) =
            (&a, &b)
        {
            prop_assert_eq!(da, db);
        }

        let sa = check_scales(&node, &scales, &Scales::Free);
        let sb = check_scales(&swapped, &scales, &Scales::Free);
        prop_assert!(sa.is_consistent() == sb.is_consistent(), "{:?} vs {:?}", sa, sb);
    }

    /// Arbitrary trees — including out-of-range quantity indices and
    /// unresolvable leaves — always produce a typed report, never a
    /// panic; and a `Consistent` verdict implies every leaf resolved.
    #[test]
    fn checker_is_total_on_wild_trees(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = dim_pool();
        let nq = rng.gen_range(0..5usize);
        let leaves: Vec<Option<Ty>> = (0..nq)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    None // unresolvable unit
                } else {
                    Some(Ty::Dim(pool[rng.gen_range(0..pool.len())]))
                }
            })
            .collect();
        let node = arb_node(&mut rng, 4, nq, true);
        let report = check(&node, &leaves, Some(Ty::Any));
        if report.is_consistent() {
            let mut ok = true;
            node_leaves(&node, &mut |i| {
                ok &= leaves.get(i).map(Option::is_some).unwrap_or(false);
            });
            prop_assert!(ok, "consistent verdict with unresolved leaf: {:?}", report);
        }
    }

    /// Malformed equation strings are typed parse errors, and valid but
    /// arbitrary ones produce verdicts — `verify_equation_text` is total.
    #[test]
    fn equation_text_verification_is_total(
        text in "[0-9+\\-*/()%. x=]{0,30}",
        seed in 0u64..200,
    ) {
        let kb = DimUnitKb::shared();
        let ps = generate(Source::Math23k, &GenConfig { count: 1, seed });
        let _ = verify_equation_text(&ps[0], &kb, &text);
    }
}

/// Calls `f` with every quantity index referenced by the tree.
fn node_leaves(node: &Node, f: &mut impl FnMut(usize)) {
    match node {
        Node::Q(i) => f(*i),
        Node::Const(_) => {}
        Node::Bin(_, l, r) => {
            node_leaves(l, f);
            node_leaves(r, f);
        }
    }
}
