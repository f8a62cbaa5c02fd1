//! # dim-core — the dimension-perception framework (the paper's contribution)
//!
//! Ties the substrates together into the three-step framework of Fig. 2:
//!
//! 1. **DimKS** ([`dimks`]): DimUnitKB + unit linking;
//! 2. **Dimension perception** ([`pipeline::train_dimperc`]): continual
//!    fine-tuning on DimEval produces DimPerc;
//! 3. **Quantitative reasoning**: quantity-oriented data augmentation
//!    ([`pipeline::build_mwp_training`]) and Seq2Seq MWP training
//!    ([`pipeline::train_quantitative`]).
//!
//! [`experiments`] hosts one runner per table/figure of the paper's
//! evaluation section; the `dim-bench` binaries print them.

#![warn(missing_docs)]

pub mod dimks;
pub mod experiments;
pub mod pipeline;

pub use dimks::DimKs;
pub use pipeline::{
    run_full_pipeline, train_dimperc, train_quantitative, try_run_full_pipeline, PipelineConfig,
};
