//! Pins `annotate_batch` output over a seeded corpus to one FNV-1a digest.
//! The digest folds in every `QuantityMention` field — spans, value bits,
//! unit surface — and every link's unit and the bits of its score and of
//! each Def. 1 factor, so any change to extraction, candidate generation,
//! context words or scoring that moves a single bit fails here.
//!
//! Two inputs: the corpus sentences as generated, and the same sentences
//! joined four at a time, whose ±60-byte context windows start and end
//! inside words, numbers and CJK runs instead of at the text's edges.

use dim_par::Parallelism;
use dimkb::DimUnitKb;
use dimlink::{Annotator, LinkerConfig, QuantityMention, UnitLinker};

/// Digest of the 4,096 seed-1 corpus sentences.
const SENTENCE_DIGEST: u64 = 0x3dcc630832d06bc5;

/// Digest of the same sentences joined four at a time.
const JOINED_DIGEST: u64 = 0xffe287cdd197c723;

/// FNV-1a over length-prefixed fields, so adjacent fields cannot trade
/// bytes without changing the digest.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(out: &[Vec<QuantityMention>]) -> u64 {
    let mut h = Fnv(0xcbf29ce484222325);
    h.u64(out.len() as u64);
    for mentions in out {
        h.u64(mentions.len() as u64);
        for m in mentions {
            for v in [
                m.start,
                m.end,
                m.value_span.0,
                m.value_span.1,
                m.unit_span.0,
                m.unit_span.1,
            ] {
                h.u64(v as u64);
            }
            h.u64(m.value.to_bits());
            h.bytes(m.unit_surface.as_bytes());
            h.u64(m.links.len() as u64);
            for l in &m.links {
                h.u64(u64::from(l.unit.0));
                for f in [l.score, l.prior, l.mention_sim, l.context_prob] {
                    h.u64(f.to_bits());
                }
            }
        }
    }
    h.0
}

/// The digest of `texts` at widths 1 and 4, which must agree.
fn batch_digest(texts: &[String]) -> u64 {
    let annotator = Annotator::new(UnitLinker::with_config(
        DimUnitKb::shared(),
        LinkerConfig::default(),
    ));
    let narrow = digest(&annotator.annotate_batch(texts, Parallelism::new(1)));
    let wide = digest(&annotator.annotate_batch(texts, Parallelism::new(4)));
    assert_eq!(narrow, wide, "widths 1 and 4 disagree");
    narrow
}

fn sentences() -> Vec<String> {
    let kb = DimUnitKb::shared();
    let corpus = dim_corpus::generate(
        &kb,
        &dim_corpus::CorpusConfig {
            sentences: 4096,
            seed: 1,
        },
    );
    corpus.into_iter().map(|s| s.text).collect()
}

#[test]
fn corpus_annotation_digest_is_pinned() {
    let got = batch_digest(&sentences());
    assert_eq!(got, SENTENCE_DIGEST, "got {got:#018x}");
}

#[test]
fn joined_corpus_annotation_digest_is_pinned() {
    let joined: Vec<String> = sentences().chunks(4).map(|c| c.join(" ")).collect();
    let got = batch_digest(&joined);
    assert_eq!(got, JOINED_DIGEST, "got {got:#018x}");
}
