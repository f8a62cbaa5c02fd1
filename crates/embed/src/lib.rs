//! # dim-embed — the bilingual tokenizer
//!
//! The tokenizer shared across the framework: Latin words lowercased, CJK
//! split into single characters, digit runs kept whole. The unit linker's
//! context scan (`Pr(u|c)`, §III-B2) reads its words through
//! [`tokenize::ContextWords`]; `Pr(u|c)` itself is exact keyword overlap
//! and needs no word vectors.

#![warn(missing_docs)]

pub mod tokenize;
