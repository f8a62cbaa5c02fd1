//! Per-worker scratch for the annotate/link hot path.
//!
//! One [`ScratchSpace`] per worker (see `dim_par::par_map_scratch`) holds
//! every buffer the hot path used to reallocate per sentence: the number
//! scanner's match list, the candidate-phrase builder, the normalization
//! and Levenshtein DP buffers, the struct-of-arrays candidate arena, and
//! the context-word arena. All buffers are cleared before each use —
//! results never depend on what earlier items left behind, which is the
//! determinism contract `par_map_scratch` requires.

use crate::linker::LinkResult;
use crate::numparse::NumberMatch;
use dimkb::UnitId;

/// Reusable buffers for the annotate/link hot path. Allocate one
/// per worker and pass it to `Annotator::annotate_with` /
/// `UnitLinker::link_with`; buffers grow to the working-set high-water mark
/// and stay there.
#[derive(Default)]
pub struct ScratchSpace {
    /// Number-scanner output buffer.
    pub(crate) nums: Vec<NumberMatch>,
    /// Byte end-offsets of CJK candidate prefixes (shortest first).
    pub(crate) cjk_ends: Vec<usize>,
    /// Multiword candidate phrase builder.
    pub(crate) phrase: String,
    /// Linker-side buffers.
    pub(crate) link: LinkBufs,
}

impl ScratchSpace {
    /// An empty scratch space; buffers grow on first use.
    pub fn new() -> ScratchSpace {
        ScratchSpace::default()
    }
}

/// Working buffers for candidate generation, scoring, and ranking.
#[derive(Default)]
pub(crate) struct LinkBufs {
    /// Normalization / index-lookup key buffer.
    pub(crate) key: String,
    /// Chars of the normalized mention (the Levenshtein `a` side).
    pub(crate) mention_chars: Vec<char>,
    /// Levenshtein DP rows.
    pub(crate) lev_prev: Vec<usize>,
    /// Levenshtein DP rows.
    pub(crate) lev_cur: Vec<usize>,
    /// Candidate arena, struct-of-arrays: `cand_ids[i]` scored by
    /// `cand_sims[i]` (the max mention similarity seen for that unit).
    pub(crate) cand_ids: Vec<UnitId>,
    /// Parallel to `cand_ids`.
    pub(crate) cand_sims: Vec<f64>,
    /// Ranked results of the current query.
    pub(crate) results: Vec<LinkResult>,
    /// Context words, concatenated (see `dim_embed::tokenize::context_words_into`).
    pub(crate) ctx_arena: String,
    /// Byte spans of each context word within `ctx_arena`.
    pub(crate) ctx_spans: Vec<(usize, usize)>,
}
