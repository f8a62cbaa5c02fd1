//! Builds the DimEval benchmark end-to-end (both construction algorithms)
//! and prints sample items from every task.
//!
//! ```sh
//! cargo run --example build_benchmark
//! ```

use dimension_perception::eval::{cot, DimEval, DimEvalConfig, TaskKind};
use dimension_perception::kb::degrade::{self, Policy};
use dimension_perception::kb::DimUnitKb;

fn main() {
    let kb = DimUnitKb::shared();
    let config = DimEvalConfig { per_task: 10, extraction_items: 10, ..Default::default() };
    println!("building DimEval (Algorithm 1 for extraction, Algorithm 2 + heuristic");
    println!("rule-based generation for the choice tasks)...\n");
    let eval = degrade::complete(DimEval::build(&kb, &config, Policy::CLASSIC));

    for task in TaskKind::CHOICE {
        let item = &eval.choice[&task][0];
        println!("== {} [{}] ==", task.name(), task.category().name());
        println!("Q: {}", item.question);
        println!("gold: ({})", dimension_perception::eval::OPTION_LETTERS[item.answer]);
        println!("CoT target: {}\n", cot::format_target(item));
    }

    println!("== {} [Basic Perception] ==", TaskKind::QuantityExtraction.name());
    let ex = &eval.extraction[0];
    println!("text: {}", ex.text);
    for g in &ex.gold {
        println!("  gold quantity: {} {}", g.value, g.unit_surface);
    }
    println!("\ntotal items: {}", eval.len());
}
