//! Solution-level verification: binding literal equations back to
//! problem quantities, the combined two-law verdict, and the repair
//! search over the KB's alternative unit readings.
//!
//! A solver's output is a *literal* equation (`x=150*20%/5%-150`) — its
//! leaves are numbers, not quantity references. [`bind`] maps each
//! literal back to the problem quantity it quotes (by written value;
//! percent literals match percent quantities), after which both checker
//! layers run. When the primary unit reading is rejected, [`verify`]
//! retries candidate unit assignments from the KB's naming-dictionary
//! alternatives for each surface form ([`crate::resolve`] keeps the
//! primary reading first), so an ambiguous mention (`分` as minute vs.
//! cent) does not falsely reject a correct solution.

use crate::check::{self, Ty, VerifyReport};
use crate::resolve::{self, ResolvedLeaves};
use crate::scale::{self, ScaleReport, Scales};
use dim_mwp::{parse, MwpProblem, Node, ParseError, Prediction};
use dimkb::DimUnitKb;

/// Cap on repair assignments tried (product of per-leaf alternatives).
const REPAIR_CAP: usize = 64;

/// Relative tolerance when matching equation literals to written values.
const BIND_TOL: f64 = 1e-9;

/// The combined verdict of both checker layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The dimension-law report (after repair, when repair succeeded).
    pub report: VerifyReport,
    /// The conversion-law report.
    pub scale: ScaleReport,
    /// True when a non-primary unit assignment was needed to verify.
    pub repaired: bool,
}

impl Verdict {
    /// True iff both laws hold: the solution passes verification.
    pub fn accepted(&self) -> bool {
        self.report.is_consistent() && self.scale.is_consistent()
    }
}

fn matches_value(a: f64, b: f64) -> bool {
    (a - b).abs() <= BIND_TOL * a.abs().max(b.abs())
}

/// Rebinds a literal equation tree to `Q(i)` references by written
/// value. Percent literals (`20%` parses as `20/100`) match percent
/// quantities as a unit; unmatched literals stay dimensionless
/// constants. Already-bound `Q(i)` leaves pass through.
pub fn bind(node: &Node, problem: &MwpProblem) -> Node {
    bind_quantities(node, &problem.quantities)
}

/// [`bind`] over a bare quantity list — the form the `POST /verify`
/// endpoint uses, where no full problem exists.
pub fn bind_quantities(node: &Node, quantities: &[dim_mwp::ProblemQuantity]) -> Node {
    match node {
        Node::Q(i) => Node::Q(*i),
        Node::Const(c) => match find_quantity(quantities, *c, false) {
            Some(i) => Node::Q(i),
            None => Node::Const(*c),
        },
        Node::Bin(op, l, r) => {
            if let (dim_mwp::Op::Div, Node::Const(a), Node::Const(h)) = (op, &**l, &**r) {
                if *h == 100.0 {
                    if let Some(i) = find_quantity(quantities, *a, true) {
                        return Node::Q(i);
                    }
                }
            }
            Node::bin(*op, bind_quantities(l, quantities), bind_quantities(r, quantities))
        }
    }
}

fn find_quantity(
    quantities: &[dim_mwp::ProblemQuantity],
    value: f64,
    percent: bool,
) -> Option<usize> {
    quantities.iter().position(|q| q.is_percent == percent && matches_value(q.value, value))
}

/// Runs both layers under one fixed leaf assignment.
fn check_once(node: &Node, leaves: &ResolvedLeaves) -> (VerifyReport, ScaleReport) {
    let report = check::check(node, &leaves.dims, leaves.answer_dim);
    let scale = scale::check_scales(node, &leaves.scales, &leaves.answer_scale);
    (report, scale)
}

/// Verifies an already-bound equation tree against a problem, retrying
/// candidate unit assignments from the KB's same-surface alternatives
/// when the primary reading is rejected (the repair search).
pub fn verify(problem: &MwpProblem, kb: &DimUnitKb, node: &Node) -> Verdict {
    let leaves = resolve::resolve_problem(problem, kb);
    let (report, scale) = check_once(node, &leaves);
    if report.is_consistent() && scale.is_consistent() {
        return Verdict { report, scale, repaired: false };
    }

    // Repair: enumerate alternative readings for the quantities the
    // equation actually uses, primary reading first (index 0 of each
    // candidate list), in lexicographic order.
    let used = node.used_quantities();
    let candidates: Vec<Vec<(Ty, Scales)>> =
        used.iter().map(|&i| resolve::leaf_candidates(problem, kb, i)).collect();
    let mut picks = vec![0usize; candidates.len()];
    let mut tried = 0usize;
    while tried < REPAIR_CAP {
        // Advance to the next assignment (the all-primary one was the
        // initial check above).
        let mut slot = 0usize;
        loop {
            let Some(p) = picks.get_mut(slot) else {
                return Verdict { report, scale, repaired: false };
            };
            let width = candidates.get(slot).map(Vec::len).unwrap_or(1);
            *p += 1;
            if *p < width {
                break;
            }
            *p = 0;
            slot += 1;
        }
        tried += 1;

        let mut alt = leaves.clone(); // lint:allow(hot_alloc, repair runs only after a rejection, bounded by REPAIR_CAP)
        for (slot, &qi) in used.iter().enumerate() {
            let pick = picks.get(slot).copied().unwrap_or(0);
            if let Some((ty, sc)) =
                candidates.get(slot).and_then(|c| c.get(pick))
            {
                if let Some(d) = alt.dims.get_mut(qi) {
                    *d = Some(*ty);
                }
                if let Some(s) = alt.scales.get_mut(qi) {
                    *s = sc.clone(); // lint:allow(hot_alloc, candidate scale sets are shared across ≤64 bounded retries)
                }
            }
        }
        let (r, s) = check_once(node, &alt);
        if r.is_consistent() && s.is_consistent() {
            return Verdict { report: r, scale: s, repaired: true };
        }
    }
    Verdict { report, scale, repaired: false }
}

/// Verifies a problem's own gold equation.
pub fn verify_problem(problem: &MwpProblem, kb: &DimUnitKb) -> Verdict {
    verify(problem, kb, &problem.equation)
}

/// Parses, binds, and verifies a literal equation string.
pub fn verify_equation_text(
    problem: &MwpProblem,
    kb: &DimUnitKb,
    text: &str,
) -> Result<Verdict, ParseError> {
    let tree = parse(text)?;
    Ok(verify(problem, kb, &bind(&tree, problem)))
}

/// Verifies a solver prediction. Equations are parsed, bound, and
/// checked (a malformed equation is rejected); direct numeric answers
/// carry no unit structure and pass vacuously; a missing prediction is
/// rejected.
pub fn verify_prediction(
    problem: &MwpProblem,
    kb: &DimUnitKb,
    prediction: &Prediction,
) -> Option<Verdict> {
    match prediction {
        Prediction::Equation(eq) => verify_equation_text(problem, kb, eq).ok(),
        Prediction::Answer(_) => Some(Verdict {
            report: VerifyReport::Consistent { dim: Ty::Any },
            scale: ScaleReport::Consistent,
            repaired: false,
        }),
        Prediction::None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mwp::{generate, GenConfig, Source};

    #[test]
    fn gold_equations_of_every_generated_problem_verify() {
        let kb = DimUnitKb::shared();
        for source in [Source::Math23k, Source::Ape210k] {
            let ps = generate(source, &GenConfig { count: 120, seed: 7 });
            for p in &ps {
                let v = verify_problem(p, &kb);
                assert!(
                    v.accepted(),
                    "gold equation of {}#{} rejected: {:?} / {:?}\n{}",
                    source.name(),
                    p.id,
                    v.report,
                    v.scale,
                    p.text(),
                );
            }
        }
    }

    #[test]
    fn gold_equation_text_round_trips_through_binding() {
        let kb = DimUnitKb::shared();
        let ps = generate(Source::Math23k, &GenConfig { count: 40, seed: 9 });
        for p in &ps {
            let v = verify_equation_text(p, &kb, &p.equation_text()).expect("gold parses");
            assert!(v.accepted(), "bound gold equation of #{} rejected: {v:?}", p.id);
        }
    }

    #[test]
    fn cross_dimension_swap_is_rejected() {
        let kb = DimUnitKb::shared();
        let ps = generate(Source::Math23k, &GenConfig { count: 30, seed: 5 });
        // dilution-style problem: swapping the mass for the percent in an
        // addition context breaks the dimension law.
        let p = ps.iter().find(|p| !p.conversions.is_empty() || p.op_count() >= 2);
        let p = p.unwrap_or(&ps[0]);
        // Mass minus hours, etc.: build `Q0 - Q1` over two quantities of
        // different dimension if the problem has them.
        let leaves = crate::resolve::resolve_problem(p, &kb);
        let mut pair = None;
        'outer: for i in 0..leaves.dims.len() {
            for j in 0..leaves.dims.len() {
                if let (Some(Some(Ty::Dim(a))), Some(Some(Ty::Dim(b)))) =
                    (leaves.dims.get(i), leaves.dims.get(j))
                {
                    if a != b {
                        pair = Some((i, j));
                        break 'outer;
                    }
                }
            }
        }
        if let Some((i, j)) = pair {
            let eq = Node::bin(dim_mwp::Op::Sub, Node::Q(i), Node::Q(j));
            let v = verify(p, &kb, &eq);
            assert!(!v.report.is_consistent(), "expected dimension flag, got {v:?}");
        }
    }

    #[test]
    fn binding_matches_percent_literals() {
        let ps = generate(Source::Math23k, &GenConfig { count: 60, seed: 2 });
        let p = ps.iter().find(|p| p.quantities.iter().any(|q| q.is_percent));
        let p = p.expect("a percent problem in 60");
        let bound = bind(&parse(&p.equation_text()).expect("parses"), p);
        let used = bound.used_quantities();
        assert!(
            p.quantities.iter().enumerate().any(|(i, q)| q.is_percent && used.contains(&i)),
            "percent quantity not bound in {:?}",
            p.equation_text()
        );
    }

    #[test]
    fn malformed_predictions_are_rejected_and_answers_pass() {
        let kb = DimUnitKb::shared();
        let ps = generate(Source::Math23k, &GenConfig { count: 1, seed: 3 });
        let p = &ps[0];
        assert!(verify_prediction(p, &kb, &Prediction::Equation("x=1+".into())).is_none());
        assert!(verify_prediction(p, &kb, &Prediction::None).is_none());
        let v = verify_prediction(p, &kb, &Prediction::Answer(42.0)).expect("answers pass");
        assert!(v.accepted());
    }
}
