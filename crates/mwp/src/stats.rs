//! Dataset statistics: the Table VI row format.

use crate::problem::MwpProblem;
use std::collections::BTreeSet;

/// Statistics of an MWP evaluation dataset (one Table VI row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetStats {
    /// Number of problems (`#Num` in Table VI).
    pub problems: usize,
    /// Distinct unit surface forms (`#Units`).
    pub units: usize,
    /// Operation-count histogram over the buckets
    /// `[0,3] (3,5] (5,8] (8,+∞)`.
    pub op_buckets: [usize; 4],
}

/// The Table VI operation buckets.
pub const OP_BUCKET_LABELS: [&str; 4] = ["[0,3]", "(3,5]", "(5,8]", "(8,+inf)"];

/// Computes the statistics of a dataset.
pub fn dataset_stats(problems: &[MwpProblem]) -> DatasetStats {
    let mut units: BTreeSet<String> = BTreeSet::new();
    let mut op_buckets = [0usize; 4];
    for p in problems {
        for s in p.unit_surfaces() {
            units.insert(s.to_string());
        }
        let ops = p.op_count();
        let bucket = match ops {
            0..=3 => 0,
            4..=5 => 1,
            6..=8 => 2,
            _ => 3,
        };
        op_buckets[bucket] += 1;
    }
    DatasetStats { problems: problems.len(), units: units.len(), op_buckets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::Augmenter;
    use crate::gen::{generate, GenConfig};
    use crate::problem::Source;
    use dimkb::DimUnitKb;

    #[test]
    fn buckets_sum_to_total() {
        let ps = generate(Source::Math23k, &GenConfig { count: 225, seed: 1 });
        let s = dataset_stats(&ps);
        assert_eq!(s.problems, 225);
        assert_eq!(s.op_buckets.iter().sum::<usize>(), 225);
    }

    #[test]
    fn table_vi_shape_q_exceeds_n() {
        // Table VI: Q-sets have more units and shift to higher op buckets.
        let kb = DimUnitKb::shared();
        let n = generate(Source::Ape210k, &GenConfig { count: 225, seed: 2 });
        let aug = Augmenter::new(&kb, 2);
        let qs = aug.to_qmwp(&n);
        let (sn, sq) = (dataset_stats(&n), dataset_stats(&qs));
        assert!(sq.units > sn.units, "units {} vs {}", sq.units, sn.units);
        let high_n = sn.op_buckets[2] + sn.op_buckets[3];
        let high_q = sq.op_buckets[2] + sq.op_buckets[3];
        assert!(high_q > high_n, "high-op problems {high_q} vs {high_n}");
    }
}
