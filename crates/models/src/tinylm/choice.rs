//! The choice scorer: a linear softmax model over (question, option)
//! crossed features, fine-tuned on DimEval items with CoT targets.

use crate::tinylm::features::{choice_features_for, PreparedQuestion};
use crate::tinylm::linear::LinearModel;
use dimeval::ChoiceItem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A trainable multiple-choice scorer.
#[derive(Debug, Clone)]
pub struct ChoiceScorer {
    model: LinearModel,
    /// Minimum score margin to answer rather than abstain.
    pub margin_threshold: f32,
}

impl ChoiceScorer {
    /// A task-naive scorer (the LLaMA_IFT prior): tiny random weights.
    pub fn naive(seed: u64) -> Self {
        ChoiceScorer { model: LinearModel::random(0.15, 0.02, seed), margin_threshold: 0.05 }
    }

    /// Per-option features of an item; the question is prepared once.
    fn item_features(item: &ChoiceItem) -> Vec<Vec<u32>> {
        let q = PreparedQuestion::new(item.task.name(), &item.question);
        item.options.iter().map(|o| choice_features_for(&q, o)).collect()
    }

    /// Trains on a batch of items for `epochs` passes (order shuffled
    /// deterministically). Returns the mean loss of the final epoch.
    pub fn train<'a>(
        &mut self,
        items: impl IntoIterator<Item = &'a ChoiceItem>,
        epochs: usize,
        seed: u64,
    ) -> f32 {
        // Features never change between epochs, and featurising draws no
        // randomness, so every item is featurised once, up front.
        let (feats, answers): (Vec<_>, Vec<_>) =
            items.into_iter().map(|item| (Self::item_features(item), item.answer)).unzip();
        self.fit(&feats, &answers, epochs, seed)
    }

    /// The SGD passes of [`ChoiceScorer::train`] over featurised items.
    fn fit(&mut self, feats: &[Vec<Vec<u32>>], answers: &[usize], epochs: usize, seed: u64) -> f32 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..feats.len()).collect();
        let mut last_loss = 0.0;
        let mut exps = Vec::new();
        for _ in 0..epochs {
            // Fisher-Yates shuffle.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut total = 0.0;
            for &i in &order {
                total += self.model.sgd_softmax(&feats[i], answers[i], &mut exps);
            }
            last_loss = if feats.is_empty() { 0.0 } else { total / feats.len() as f32 };
        }
        last_loss
    }

    /// The score of each of an item's options, in option order.
    pub fn scores(&self, item: &ChoiceItem) -> Vec<f32> {
        Self::item_features(item).iter().map(|f| self.model.score(f)).collect()
    }

    /// Answers an item; abstains when the top-two margin is below the
    /// threshold (an uncertain fine-tuned model declines, like the paper's
    /// LLMs).
    pub fn answer(&self, item: &ChoiceItem) -> Option<usize> {
        let scores = self.scores(item);
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| {
            scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal)
        });
        let best = *idx.first()?;
        if let Some(&second) = idx.get(1) {
            if scores[best] - scores[second] < self.margin_threshold {
                return None;
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimeval::{Generator, TaskKind};
    use dimkb::DimUnitKb;

    fn items(task: TaskKind, seed: u64, n: usize) -> Vec<ChoiceItem> {
        let kb = DimUnitKb::shared();
        let mut g = Generator::new(&kb, seed);
        g.generate(task, n)
    }

    #[test]
    fn training_beats_naive_on_held_out_items() {
        // Training volume scales with KB size: the paper-scale KB's long
        // tail means a fixed 1500 items no longer covers the option
        // vocabulary the held-out seed draws from.
        let train = items(TaskKind::ComparableAnalysis, 1, 6000);
        let test = items(TaskKind::ComparableAnalysis, 2, 80);
        let naive = ChoiceScorer::naive(3);
        let mut tuned = ChoiceScorer::naive(3);
        tuned.train(&train, 12, 4);
        let acc = |s: &ChoiceScorer| {
            test.iter().filter(|i| s.answer(i) == Some(i.answer)).count() as f64
                / test.len() as f64
        };
        let (a_naive, a_tuned) = (acc(&naive), acc(&tuned));
        assert!(
            a_tuned > a_naive + 0.15,
            "fine-tuning must help: naive {a_naive} tuned {a_tuned}"
        );
        assert!(a_tuned > 0.45, "tuned accuracy {a_tuned}");
    }

    #[test]
    fn training_matches_a_trainer_fed_reference_features() {
        use crate::tinylm::features::tests::choice_features_reference;
        let train: Vec<ChoiceItem> = TaskKind::CHOICE.iter().flat_map(|&t| items(t, 11, 40)).collect();
        let mut fast = ChoiceScorer::naive(12);
        let fast_loss = fast.train(&train, 2, 13);
        // The same SGD, fed ids from the `format!`-based oracle.
        let reference_feats: Vec<Vec<Vec<u32>>> = train
            .iter()
            .map(|i| {
                let f = |o: &String| choice_features_reference(i.task.name(), &i.question, o);
                i.options.iter().map(f).collect()
            })
            .collect();
        let answers: Vec<usize> = train.iter().map(|i| i.answer).collect();
        let mut reference = ChoiceScorer::naive(12);
        let reference_loss = reference.fit(&reference_feats, &answers, 2, 13);
        assert_eq!(fast_loss.to_bits(), reference_loss.to_bits());
        for (item, feats) in train.iter().zip(&reference_feats) {
            for f in feats {
                assert_eq!(fast.model.score(f).to_bits(), reference.model.score(f).to_bits());
            }
            assert_eq!(fast.answer(item), reference.answer(item));
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let train = items(TaskKind::QuantityKindMatch, 5, 200);
        let mut s = ChoiceScorer::naive(6);
        let early = s.train(&train, 1, 7);
        let late = s.train(&train, 4, 8);
        assert!(late < early, "loss must fall: {early} -> {late}");
    }

    #[test]
    fn naive_model_often_abstains_or_guesses() {
        let test = items(TaskKind::UnitConversion, 9, 50);
        let s = ChoiceScorer::naive(10);
        let correct =
            test.iter().filter(|i| s.answer(i) == Some(i.answer)).count() as f64 / 50.0;
        assert!(correct < 0.55, "a naive model cannot be good: {correct}");
    }
}
