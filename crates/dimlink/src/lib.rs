//! # dimlink — the unit linking module of DimKS
//!
//! Implements §III-B of the paper: candidate generation via Levenshtein
//! similarity over the naming dictionary, a frequency prior `Pr(u)`, and
//! context disambiguation `Pr(u|c)` by exact overlap between context words
//! and stored unit keywords. Together with `dimkb` this forms the paper's
//! dimensional knowledge system (DimKS).
//!
//! The crate also ships the DimKS *text annotator* used by Algorithm 1:
//! a bilingual number scanner (ASCII decimals, Chinese numerals, mixed
//! 万/亿 forms) plus longest-match unit-mention extraction.
//!
//! The annotate/link hot path is allocation-free per sentence: candidate
//! keys are interned symbols (see `dimkb::intern`), working buffers live in
//! a per-worker [`ScratchSpace`], and the original String-based algorithm
//! survives in [`reference`] as a differential-testing oracle.

#![warn(missing_docs)]

pub mod annotate;
pub mod lev;
pub mod linker;
pub mod numparse;
pub mod reference;
pub mod scratch;

pub use annotate::{decoy_token_at, Annotator, QuantityMention};
pub use linker::{LinkResult, LinkerConfig, UnitLinker};
pub use numparse::{parse_chinese_numeral, scan_numbers, NumberMatch};
pub use scratch::ScratchSpace;
