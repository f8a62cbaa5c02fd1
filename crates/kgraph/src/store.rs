//! An in-memory triple store with the indexes Algorithm 2 needs:
//! subject index, predicate index, and an inverted object-mention index.
//!
//! This is the CN-DBpedia substitution: the bootstrapping retrieval method
//! (§IV-C2) only requires `findTriplets` by object mention and by
//! predicate, which this store serves from hash indexes.

use dim_embed::tokenize::Tokens;
use std::collections::HashMap;

/// Interned entity id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

/// Interned predicate id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredicateId(pub u32);

/// Index of a triple within the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TripleId(pub u32);

/// A `<subject, predicate, object>` triple. Objects are literal strings,
/// like CN-DBpedia's tail values ("2.06米", "红色").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Triple {
    /// Subject entity.
    pub subject: EntityId,
    /// Predicate.
    pub predicate: PredicateId,
    /// Object literal.
    pub object: String,
}

/// The triple store.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    entities: Vec<String>,
    entity_idx: HashMap<String, EntityId>,
    predicates: Vec<String>,
    predicate_idx: HashMap<String, PredicateId>,
    triples: Vec<Triple>,
    by_subject: HashMap<EntityId, Vec<TripleId>>,
    by_predicate: HashMap<PredicateId, Vec<TripleId>>,
    /// Inverted index: object token → triples whose object contains it.
    object_tokens: HashMap<String, Vec<TripleId>>,
    /// Every object's tokens, scanned once at insert.
    object_toks: Tokens,
    /// Each triple's token range in `object_toks`.
    object_ranges: Vec<std::ops::Range<usize>>,
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an entity name.
    pub fn entity(&mut self, name: &str) -> EntityId {
        if let Some(&id) = self.entity_idx.get(name) {
            return id;
        }
        let id = EntityId(self.entities.len() as u32);
        self.entities.push(name.to_string());
        self.entity_idx.insert(name.to_string(), id);
        id
    }

    /// Interns a predicate name.
    pub fn predicate(&mut self, name: &str) -> PredicateId {
        if let Some(&id) = self.predicate_idx.get(name) {
            return id;
        }
        let id = PredicateId(self.predicates.len() as u32);
        self.predicates.push(name.to_string());
        self.predicate_idx.insert(name.to_string(), id);
        id
    }

    /// Inserts a triple, indexing its object tokens.
    pub fn insert(&mut self, subject: EntityId, predicate: PredicateId, object: &str) -> TripleId {
        let id = TripleId(self.triples.len() as u32);
        self.triples.push(Triple { subject, predicate, object: object.to_string() });
        self.by_subject.entry(subject).or_default().push(id);
        self.by_predicate.entry(predicate).or_default().push(id);
        let range = self.object_toks.push(object);
        for (k, tok) in self.object_toks.texts(range.clone()).enumerate() {
            if self.object_toks.texts(range.start..range.start + k).any(|seen| seen == tok) {
                continue;
            }
            match self.object_tokens.get_mut(tok) {
                Some(ids) => ids.push(id),
                None => {
                    self.object_tokens.insert(tok.to_string(), vec![id]);
                }
            }
        }
        self.object_ranges.push(range);
        id
    }

    /// The triple with the given id.
    pub fn triple(&self, id: TripleId) -> &Triple {
        &self.triples[id.0 as usize]
    }

    /// Entity name by id.
    pub fn entity_name(&self, id: EntityId) -> &str {
        &self.entities[id.0 as usize]
    }

    /// Predicate name by id.
    pub fn predicate_name(&self, id: PredicateId) -> &str {
        &self.predicates[id.0 as usize]
    }

    /// Looks up a predicate id by name.
    pub fn predicate_id(&self, name: &str) -> Option<PredicateId> {
        self.predicate_idx.get(name).copied()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the store has no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// All predicates.
    pub fn predicates(&self) -> impl Iterator<Item = (PredicateId, &str)> {
        self.predicates.iter().enumerate().map(|(i, p)| (PredicateId(i as u32), p.as_str()))
    }

    /// `findTriplets(K, m in object)`: triples whose object mentions `m`
    /// (token-level containment of the mention's token sequence).
    /// The objects' tokens were scanned once at insert, so a query scans
    /// only the mention.
    pub fn find_by_object_mention(&self, mention: &str) -> Vec<TripleId> {
        let mut needle = Tokens::default();
        needle.scan(mention);
        if needle.is_empty() {
            return Vec::new();
        }
        let Some(candidates) = self.object_tokens.get(needle.text(0)) else {
            return Vec::new();
        };
        if needle.len() == 1 {
            return candidates.clone();
        }
        let hay = &self.object_toks;
        candidates
            .iter()
            .copied()
            .filter(|&id| {
                let (n, range) = (needle.len(), &self.object_ranges[id.0 as usize]);
                range.end.checked_sub(n).is_some_and(|last| {
                    (range.start..=last).any(|at| hay.texts(at..at + n).eq(needle.texts(0..n)))
                })
            })
            .collect()
    }

    /// `findTriplets(K, p)`: all triples with the given predicate.
    pub fn find_by_predicate(&self, predicate: PredicateId) -> &[TripleId] {
        self.by_predicate.get(&predicate).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All triples about a subject.
    pub fn find_by_subject(&self, subject: EntityId) -> &[TripleId] {
        self.by_subject.get(&subject).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TripleStore {
        let mut s = TripleStore::new();
        let lebron = s.entity("勒布朗·詹姆斯");
        let curry = s.entity("斯蒂芬·库里");
        let height = s.predicate("身高");
        let color = s.predicate("颜色");
        s.insert(lebron, height, "2.06米");
        s.insert(curry, height, "188厘米");
        s.insert(lebron, color, "紫金色");
        s
    }

    #[test]
    fn mention_search_finds_unit_bearing_objects() {
        let s = store();
        // CJK is tokenized per character, so bare 米 matches 2.06米 AND
        // 188厘米 — exactly the ambiguity unit linking must resolve.
        let hits = s.find_by_object_mention("米");
        assert_eq!(hits.len(), 2);
        // The two-character sequence 厘米 matches only the centimetre object.
        let hits_cm = s.find_by_object_mention("厘米");
        assert_eq!(hits_cm.len(), 1);
        assert_eq!(s.triple(hits_cm[0]).object, "188厘米");
    }

    #[test]
    fn predicate_search_returns_all() {
        let s = store();
        let h = s.predicate_id("身高").unwrap();
        assert_eq!(s.find_by_predicate(h).len(), 2);
    }

    #[test]
    fn interning_is_stable() {
        let mut s = TripleStore::new();
        let a = s.entity("X");
        let b = s.entity("X");
        assert_eq!(a, b);
        assert_eq!(s.entity_name(a), "X");
    }

    #[test]
    fn subject_index_works() {
        let s = store();
        let lebron = s.entity_idx["勒布朗·詹姆斯"];
        assert_eq!(s.find_by_subject(lebron).len(), 2);
    }

    #[test]
    fn multiword_mention_requires_adjacency() {
        let mut s = TripleStore::new();
        let e = s.entity("e");
        let p = s.predicate("p");
        s.insert(e, p, "5 square metres of floor");
        s.insert(e, p, "metres squared five");
        let hits = s.find_by_object_mention("square metres");
        assert_eq!(hits.len(), 1);
    }

    /// The search that re-tokenized every candidate object per query, kept
    /// as the oracle for the spans scanned once at insert.
    fn find_by_object_mention_reference(s: &TripleStore, mention: &str) -> Vec<TripleId> {
        use dim_embed::tokenize::tokenize;
        let toks = tokenize(mention);
        let Some(first) = toks.first() else { return Vec::new() };
        let Some(candidates) = s.object_tokens.get(&first.text) else {
            return Vec::new();
        };
        if toks.len() == 1 {
            return candidates.clone();
        }
        let needle: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        candidates
            .iter()
            .copied()
            .filter(|&id| {
                let obj_toks = tokenize(&s.triple(id).object);
                let hay: Vec<&str> = obj_toks.iter().map(|t| t.text.as_str()).collect();
                hay.windows(needle.len()).any(|w| w == needle.as_slice())
            })
            .collect()
    }

    #[test]
    fn stored_spans_match_re_tokenizing_each_object() {
        let kb = dimkb::DimUnitKb::shared();
        let kg = crate::synthesize(&kb, &crate::SynthConfig { entities_per_type: 8, seed: 3 });
        // Every 1- to 3-token window of every object, plus mentions that
        // straddle objects, repeat a token or match nothing.
        let mut mentions = vec!["".to_string(), "米 米".into(), "不存在".into(), "Square Metres".into()];
        for i in 0..kg.store.len() {
            let object = &kg.store.triple(TripleId(i as u32)).object;
            let toks = dim_embed::tokenize::tokenize(object);
            for n in 1..=3 {
                for w in toks.windows(n) {
                    mentions.push(object[w[0].start..w[n - 1].end].to_string());
                }
            }
            mentions.push(format!("{object} {object}"));
        }
        mentions.sort();
        mentions.dedup();
        assert!(mentions.len() > 500, "{} mentions", mentions.len());
        for m in &mentions {
            assert_eq!(kg.store.find_by_object_mention(m), find_by_object_mention_reference(&kg.store, m), "{m:?}");
        }
    }

    #[test]
    fn empty_mention_matches_nothing() {
        let s = store();
        assert!(s.find_by_object_mention("").is_empty());
        assert!(s.find_by_object_mention("不存在的词").is_empty());
    }
}
