//! The full three-step pipeline on quantitative math word problems:
//! build DimKS → fine-tune dimension perception (DimPerc) → train
//! quantitative reasoning with quantity-oriented augmentation, then solve
//! held-out Q-MWP problems.
//!
//! ```sh
//! cargo run --release --example qmwp_pipeline
//! ```

use dimension_perception::core::pipeline::{run_full_pipeline, PipelineConfig};
use dimension_perception::kb::degrade::{self, Policy};
use dimension_perception::kb::DimUnitKb;
use dimension_perception::mwp::{
    accuracy, generate, prediction_correct, Augmenter, GenConfig, MwpSolver, Source,
};

fn main() {
    let config = PipelineConfig {
        train_per_task: 250,
        epochs: 4,
        mwp_train: 600,
        eta: 0.5,
        ..Default::default()
    };
    println!("running the full pipeline (steps 1-3 of Fig. 2)...");
    let mut model = degrade::complete(run_full_pipeline(&config, Policy::CLASSIC));
    println!("trained model: {}\n", model.display_name);

    // Held-out Q-MWP evaluation.
    let kb = DimUnitKb::shared();
    let n = generate(Source::Math23k, &GenConfig { count: 150, seed: 0xFACE });
    let q = Augmenter::new(&kb, 0xFACE).to_qmwp(&n);

    println!("sample solves:");
    for p in q.iter().take(4) {
        let pred = model.solve(p);
        let ok = prediction_correct(p, &pred);
        println!("  problem: {}", p.text());
        println!("  gold:    {} (answer {})", p.equation_text(), p.answer());
        println!("  model:   {pred:?}  [{}]\n", if ok { "correct" } else { "wrong" });
    }

    let acc_n = accuracy(&mut model, &n);
    let acc_q = accuracy(&mut model, &q);
    println!("N-MWP accuracy: {:.1}%", acc_n * 100.0);
    println!("Q-MWP accuracy: {:.1}%", acc_q * 100.0);
}
