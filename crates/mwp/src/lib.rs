//! # dim-mwp — math word problems (§V of the paper)
//!
//! N-MWP generation in Math23k / Ape210k style, the equation engine (the
//! "calculator" used for scoring), quantity-oriented data augmentation
//! (Table V) that turns N-MWP into Q-MWP, equation tokenization strategies,
//! and dataset statistics (Table VI).

#![warn(missing_docs)]

pub mod augment;
pub mod equation;
pub mod gen;
pub mod problem;
pub mod solve;
pub mod stats;
pub mod tokenize;

pub use augment::{AugmentMethod, Augmenter};
pub use equation::{calculate, fmt_number, parse, Node, Op, ParseError};
pub use gen::{generate, generate_with, GenConfig};
pub use problem::{MwpProblem, ProblemQuantity, Seg, Source};
pub use solve::{accuracy, prediction_correct, CandidateSolver, MwpSolver, Prediction};
pub use stats::{dataset_stats, DatasetStats, OP_BUCKET_LABELS};
pub use tokenize::{detokenize, tokenize_equation, EqTokenization};
