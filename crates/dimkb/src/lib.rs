//! # dimkb — the Dimensional Unit Knowledge Base (DimUnitKB)
//!
//! Rust implementation of the DimUnitKB described in *Enhancing Quantitative
//! Reasoning Skills of Large Language Models through Dimension Perception*
//! (ICDE 2024), §III-A.
//!
//! The knowledge base stores, for every unit (Table II of the paper):
//! identifier, bilingual labels, symbol, aliases, description, keywords,
//! frequency, quantity kind, dimension vector and SI conversion value. On
//! top of the stored records it maintains the *naming dictionary* used by
//! unit linking (one interned [`LinkIndex`], built with the KB), kind and
//! dimension indexes, a conversion engine (including affine temperature
//! scales), and a unit-expression algebra for compound expressions such as
//! `J/(kg·K)`.
//!
//! ```
//! use dimkb::DimUnitKb;
//!
//! let kb = DimUnitKb::shared();
//! let m = kb.unit_by_code("M").unwrap().id;
//! let km = kb.unit_by_code("KiloM").unwrap().id;
//! assert_eq!(kb.convert(3.0, km, m).unwrap(), 3000.0);
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod degrade;
mod dim;
mod error;
pub mod expr;
pub mod freq;
pub mod intern;
mod kb;
mod kind;
pub mod prefix;
pub mod search;
pub mod spec;
pub mod stats;
mod unit;

pub use degrade::{BudgetExceeded, Degraded, ErrorBudget, Policy, QuarantineEntry, RecordError};
pub use dim::{Base, DimParseError, DimVec};
pub use error::KbError;
pub use intern::{LinkIndex, Symbol, SymbolTable};
pub use kb::{normalize, normalize_cased, normalize_cased_into, normalize_into, DimUnitKb};
pub use kind::{KindId, QuantityKind};
pub use unit::{Conversion, Unit, UnitId};
