//! Per-worker scratch for the annotate/link hot path.
//!
//! One [`ScratchSpace`] per worker (see `dim_par::par_map_scratch`) holds
//! every buffer the hot path used to reallocate per sentence: the number
//! scanner's match list, the candidate-phrase builder, the normalization
//! and Levenshtein DP buffers, the struct-of-arrays candidate arena, and
//! the context words of the current text. All buffers are cleared before
//! each use — results never depend on what earlier items left behind, which
//! is the determinism contract `par_map_scratch` requires. The context
//! words are the one cache: they are reused across the link queries of one
//! text and forgotten when the next text begins.
//!
//! The scratch also carries the hot path's `link.*` counts as plain
//! per-worker tallies. Each one reaches its `dim-obs` counter once, when
//! the scratch drops, so the per-candidate loop never touches an atomic
//! that other workers share.

use crate::linker::LinkResult;
use crate::numparse::NumberMatch;
use dim_embed::tokenize::ContextWords;
use dimkb::UnitId;

static LINK_QUERIES: dim_obs::Counter = dim_obs::Counter::new("link.queries");
static LINK_RESULTS: dim_obs::Counter = dim_obs::Counter::new("link.results");
// The lev pair measures how many DP runs the char-signature prefilter saves.
static LEV_COMPUTED: dim_obs::Counter = dim_obs::Counter::new("link.lev_computed");
static LEV_PRUNED: dim_obs::Counter = dim_obs::Counter::new("link.lev_pruned");
static ANNOTATE_TEXTS: dim_obs::Counter = dim_obs::Counter::new("link.annotate.texts");
static ANNOTATE_MENTIONS: dim_obs::Counter = dim_obs::Counter::new("link.mentions");

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
    /// `link.annotate.texts` tally.
    pub(crate) texts: u64,
    /// `link.mentions` tally.
    pub(crate) mentions: u64,
}

impl Drop for ScratchSpace {
    fn drop(&mut self) {
        ANNOTATE_TEXTS.add(self.texts);
        ANNOTATE_MENTIONS.add(self.mentions);
    }
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
    /// Context words of the current text, by window.
    pub(crate) ctx: ContextCache,
    /// `link.queries` tally.
    pub(crate) queries: u64,
    /// `link.results` tally.
    pub(crate) results_linked: u64,
    /// `link.lev_pruned` tally.
    pub(crate) lev_pruned: u64,
    /// `link.lev_computed` tally.
    pub(crate) lev_computed: u64,
}

impl Drop for LinkBufs {
    fn drop(&mut self) {
        LINK_QUERIES.add(self.queries);
        LINK_RESULTS.add(self.results_linked);
        LEV_PRUNED.add(self.lev_pruned);
        LEV_COMPUTED.add(self.lev_computed);
    }
}

/// The context words of the text being linked against: scanned at most
/// once per text, and clipped to a window again only when the window
/// changes (a window covering the whole text needs no clipping). Each text begins with [`Self::reset`] — the annotator's per
/// sentence, the public `link`'s per call — so no query reads the words of
/// another text.
#[derive(Default)]
pub(crate) struct ContextCache {
    words: ContextWords,
    /// Whether `words` holds the current text's scan.
    scanned: bool,
    /// The `(lo, hi)` window whose words `spans` holds.
    window: Option<(usize, usize)>,
    /// Arena spans of the window's words.
    spans: Vec<(usize, usize)>,
}

impl ContextCache {
    /// Forgets the previous text.
    pub(crate) fn reset(&mut self) {
        self.scanned = false;
        self.window = None;
    }

    /// The context words of `text[lo..hi]`: the arena and each word's span
    /// in it. `text` is the current text: the same on every call since the
    /// last [`Self::reset`].
    pub(crate) fn view(&mut self, text: &str, lo: usize, hi: usize) -> (&str, &[(usize, usize)]) {
        if !self.scanned {
            self.words.scan(text);
            self.scanned = true;
        }
        if lo == 0 && hi == text.len() {
            return (self.words.arena(), self.words.spans());
        }
        if self.window != Some((lo, hi)) {
            self.words.window_into(text, lo, hi, &mut self.spans);
            self.window = Some((lo, hi));
        }
        (self.words.arena(), &self.spans)
    }
}
