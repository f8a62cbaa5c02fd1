//! # dimension-perception
//!
//! A Rust reproduction of *Enhancing Quantitative Reasoning Skills of Large
//! Language Models through Dimension Perception* (ICDE 2024).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`kb`] — DimUnitKB, the dimensional unit knowledge base (§III-A);
//! * [`link`] — the unit linking module and text annotator (§III-B);
//! * [`eval`] — the DimEval benchmark, construction algorithms and metrics
//!   (§IV);
//! * [`mwp`] — math word problems, the equation engine and quantity-
//!   oriented augmentation (§V);
//! * [`models`] — the model substrate: simulated baselines, the Wolfram
//!   tool engine, and the trainable TinyLM suite;
//! * [`core`] — the three-step framework and the experiment runners;
//! * [`embed`], [`kgraph`], [`corpus`] — supporting substrates.
//!
//! ```
//! use dimension_perception::kb::DimUnitKb;
//!
//! let kb = DimUnitKb::shared();
//! let pdl = kb.unit_by_code("PDL").unwrap();
//! let dyncm = kb.unit_by_code("DYN-PER-CentiM").unwrap();
//! // The Fig. 1 unit trap: poundal and dyn/cm are NOT comparable.
//! assert!(!pdl.dim.comparable(dyncm.dim));
//! ```

/// DimUnitKB: dimension vectors, units, kinds, conversion (re-export of `dimkb`).
pub use dimkb as kb;

/// Bilingual tokenization (re-export of `dim-embed`).
pub use dim_embed as embed;

/// The triple-store substrate (re-export of `dim-kgraph`).
pub use dim_kgraph as kgraph;

/// Zero-dependency tracing/metrics layer (re-export of `dim-obs`).
pub use dim_obs as obs;

/// Corpus generation and the masked-LM filter (re-export of `dim-corpus`).
pub use dim_corpus as corpus;

/// Unit linking and annotation (re-export of `dimlink`).
pub use dimlink as link;

/// The DimEval benchmark (re-export of `dimeval`).
pub use dimeval as eval;

/// Math word problems and augmentation (re-export of `dim-mwp`).
pub use dim_mwp as mwp;

/// The model substrate (re-export of `dim-models`).
pub use dim_models as models;

/// The framework and experiments (re-export of `dim-core`).
pub use dim_core as core;
