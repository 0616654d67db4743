//! Working Data bookkeeping: artifact versions, dirtiness, and work
//! counters.
//!
//! Example 5's closing requirement: "it is of paramount importance that
//! these feedback-induced 'reactions' do not trigger a re-processing of all
//! datasets involved in the computation but rather limit the processing to
//! the strictly necessary data." The store tracks which derived artifacts
//! are stale and counts the actual work performed, so experiments can show
//! incremental ≪ full recomputation (E7b).

use std::collections::{BTreeMap, HashMap, HashSet};

use wrangler_resolve::{ErKernel, WorkerStat};

/// A derived artifact in the Working Data, at per-source or global grain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Artifact {
    /// Extraction/ingestion output of one source.
    Extraction(usize),
    /// Mapping (schema alignment) of one source.
    Mapping(usize),
    /// Mapped (target-schema) table of one source.
    MappedTable(usize),
    /// The union + entity clustering.
    Clusters,
    /// One fused slot (entity, attribute).
    FusedSlot(usize, usize),
    /// The assembled wrangled table.
    Result,
}

/// Counters of actual work performed (the currency of E7b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Source tables (re)ingested.
    pub extractions: usize,
    /// Mappings (re)generated.
    pub mappings_generated: usize,
    /// Source tables (re)mapped.
    pub tables_mapped: usize,
    /// Candidate pairs compared in ER.
    pub er_pairs: usize,
    /// Slots (re)fused.
    pub slots_fused: usize,
}

impl WorkCounters {
    /// Total units, a crude single scalar for plots.
    pub fn total(&self) -> usize {
        self.extractions
            + self.mappings_generated
            + self.tables_mapped
            + self.er_pairs
            + self.slots_fused
    }
}

impl std::ops::Sub for WorkCounters {
    type Output = WorkCounters;
    fn sub(self, rhs: WorkCounters) -> WorkCounters {
        WorkCounters {
            extractions: self.extractions - rhs.extractions,
            mappings_generated: self.mappings_generated - rhs.mappings_generated,
            tables_mapped: self.tables_mapped - rhs.tables_mapped,
            er_pairs: self.er_pairs - rhs.er_pairs,
            slots_fused: self.slots_fused - rhs.slots_fused,
        }
    }
}

/// Cross-pass cache of entity-resolution pair scores, keyed on row
/// *content* (the [`ErKernel`]'s canonical content keys), not row position.
/// A full re-wrangle whose union rows are unchanged — e.g. an incremental
/// `rewrangle` forced down the structural path by a dirty [`Artifact::
/// Clusters`] — finds every pair here and skips re-scoring. Data changes
/// invalidate themselves (changed rows render different keys); only an ER
/// *rule* change (refined weights/comparators) must [`Self::clear`] the
/// cache, which the session does alongside invalidating
/// [`Artifact::Clusters`] at those sites.
///
/// Content keys are interned into a dictionary: each distinct key gets a
/// dense *content id*, found by exact string equality (never by a hash
/// alone, so a collision cannot replay a wrong score), and entries are
/// keyed on the packed `(id_left, id_right)` pair. A pass renders and
/// interns only the rows its pairs touch, and sends each distinct missing
/// content pair to the kernel once ([`Self::score_pass`]).
///
/// Every entry carries the *source pair* whose rows produced it, so a
/// single-source data update evicts only the scores touching that source
/// ([`Self::evict_sources`]) instead of wiping the cache: on an n-source
/// fleet roughly (n−2)/n of the entries survive a 1-source update and
/// replay bit-identically on the next pass.
///
/// [`ErKernel`]: wrangler_resolve::ErKernel
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairScoreCache {
    /// The dictionary: content id → content key.
    keys: Vec<String>,
    /// Content key → content id. hash-ok: lookup-only; ordered output walks
    /// `keys` and `scores`, never this map.
    ids: HashMap<String, u32>,
    /// Packed `(id_left, id_right)` → (score, source of the left row,
    /// source of the right row).
    scores: BTreeMap<u64, (f64, u32, u32)>,
}

/// One cached pair score, with its content ids resolved through
/// [`PairScoreCache::dictionary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairEntry {
    /// Content ids of the left and right rows.
    pub ids: (u32, u32),
    /// The kernel score of the pair.
    pub score: f64,
    /// Sources of the two rows (the eviction grain).
    pub sources: (u32, u32),
}

/// What one pass's trip through the pair cache did. Every pair handed to
/// [`PairScoreCache::score_pass`] lands in exactly one of the three counts.
#[derive(Debug, Clone, Default)]
pub struct PairPass {
    /// Pairs whose content pair was cached before the pass.
    pub hits: u64,
    /// Pairs whose content pair an earlier pair of the same pass already
    /// looked up (hit or miss): they copy its score.
    pub deduped: u64,
    /// Distinct content pairs the kernel scored.
    pub misses: u64,
    /// Per-worker stats of the kernel call that scored the misses.
    pub workers: Vec<WorkerStat>,
}

/// What a kernel scoring call returns: scores in pair order plus per-worker
/// stats.
type KernelScores = wrangler_table::Result<(Vec<f64>, Vec<WorkerStat>)>;

/// A content pair's state within one pass.
#[derive(Clone, Copy)]
enum Seen {
    /// Answered by the cache.
    Cached(f64),
    /// Index into the pass's miss list.
    Pending(usize),
}

impl PairScoreCache {
    /// Entry and dictionary bound: the cache wipes itself rather than grow
    /// past this (a deterministic safety valve for very long sessions).
    const CAP: usize = 1 << 20;

    fn pack(a: u32, b: u32) -> u64 {
        (u64::from(a) << 32) | u64::from(b)
    }

    fn unpack(p: u64) -> (u32, u32) {
        ((p >> 32) as u32, p as u32)
    }

    /// Content id of `key`, interned on first sight.
    fn intern(&mut self, key: String) -> u32 {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.keys.push(key.clone());
        self.ids.insert(key, id);
        id
    }

    /// Record a freshly computed score, tagged with the sources of the two
    /// rows it compared (the eviction grain of [`Self::evict_sources`]).
    fn insert(&mut self, pair: u64, score: f64, sources: (usize, usize)) {
        if self.scores.len() >= Self::CAP {
            self.scores.clear();
        }
        self.scores
            .insert(pair, (score, sources.0 as u32, sources.1 as u32));
    }

    /// Score `pairs` (row indices into `kernel`'s table) through the cache.
    /// Each distinct content pair is looked up once; the distinct misses go
    /// to `score` in first-occurrence order, and every pair sharing one
    /// copies its score. A new entry is tagged with the sources (from
    /// `sources`, indexed by row) of the *last* pair carrying it — the
    /// entry a per-pair insert loop would leave behind. Returns the scores
    /// in `pairs` order, bit-identical to scoring every pair.
    pub fn score_pass<F>(
        &mut self,
        kernel: &ErKernel,
        pairs: &[(usize, usize)],
        sources: &[usize],
        score: F,
    ) -> wrangler_table::Result<(Vec<f64>, PairPass)>
    where
        F: FnOnce(&[(usize, usize)]) -> KernelScores,
    {
        if self.keys.len() >= Self::CAP {
            self.clear();
        }
        let src = |r: usize| sources.get(r).copied().unwrap_or(0);
        let mut row_ids = vec![u32::MAX; kernel.num_rows()];
        let mut id_of = |cache: &mut Self, r: usize| {
            if row_ids[r] == u32::MAX {
                row_ids[r] = cache.intern(kernel.content_key(r));
            }
            row_ids[r]
        };
        // hash-ok: lookup-only; misses are listed in pair order.
        let mut seen: HashMap<u64, Seen> = HashMap::with_capacity(pairs.len());
        let mut out = vec![0.0f64; pairs.len()];
        let mut pass = PairPass::default();
        let mut miss_rows: Vec<(usize, usize)> = Vec::new();
        let mut miss_keys: Vec<u64> = Vec::new();
        let mut miss_tags: Vec<(usize, usize)> = Vec::new();
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for (k, &(i, j)) in pairs.iter().enumerate() {
            let pair = Self::pack(id_of(self, i), id_of(self, j));
            let state = match seen.get(&pair) {
                Some(&state) => {
                    pass.deduped += 1;
                    state
                }
                None => {
                    let state = match self.scores.get(&pair) {
                        Some(&(s, _, _)) => {
                            pass.hits += 1;
                            Seen::Cached(s)
                        }
                        None => {
                            miss_rows.push((i, j));
                            miss_keys.push(pair);
                            miss_tags.push((src(i), src(j)));
                            Seen::Pending(miss_rows.len() - 1)
                        }
                    };
                    seen.insert(pair, state);
                    state
                }
            };
            match state {
                Seen::Cached(s) => out[k] = s,
                Seen::Pending(m) => {
                    // The last pair carrying a content pair tags its entry.
                    miss_tags[m] = (src(i), src(j));
                    pending.push((k, m));
                }
            }
        }
        pass.misses = miss_rows.len() as u64;
        let (miss_scores, workers) = score(&miss_rows)?;
        pass.workers = workers;
        for (k, m) in pending {
            out[k] = miss_scores[m];
        }
        for ((&pair, &s), &tag) in miss_keys.iter().zip(&miss_scores).zip(&miss_tags) {
            self.insert(pair, s, tag);
        }
        Ok((out, pass))
    }

    /// Partition-scoped invalidation: drop every entry whose *either* row
    /// came from one of `dirty` sources, keep the rest, then drop the
    /// dictionary ids no surviving entry references. An updated source
    /// renders different content keys for its own rows anyway — eviction
    /// keeps the cache from accumulating unreachable entries and bounds it
    /// to live content. Returns `(evicted, retained)`.
    pub fn evict_sources(&mut self, dirty: &[usize]) -> (usize, usize) {
        let before = self.scores.len();
        self.scores.retain(|_, &mut (_, a, b)| {
            !dirty.contains(&(a as usize)) && !dirty.contains(&(b as usize))
        });
        let retained = self.scores.len();
        self.compact();
        (before - retained, retained)
    }

    /// Drop unreferenced dictionary ids, renumbering the survivors densely
    /// in their old order (so entry order is preserved).
    fn compact(&mut self) {
        let mut live = vec![false; self.keys.len()];
        for &pair in self.scores.keys() {
            let (a, b) = Self::unpack(pair);
            live[a as usize] = true;
            live[b as usize] = true;
        }
        if live.iter().all(|&l| l) {
            return;
        }
        let mut remap = vec![u32::MAX; live.len()];
        let old = std::mem::take(&mut self.keys);
        for (id, key) in old.into_iter().enumerate() {
            if live[id] {
                remap[id] = self.keys.len() as u32;
                self.keys.push(key);
            }
        }
        self.ids.retain(|_, id| {
            *id = remap[*id as usize];
            *id != u32::MAX
        });
        self.scores = std::mem::take(&mut self.scores)
            .into_iter()
            .map(|(pair, v)| {
                let (a, b) = Self::unpack(pair);
                (Self::pack(remap[a as usize], remap[b as usize]), v)
            })
            .collect();
    }

    /// Drop every entry and the dictionary (the ER rule changed: all cached
    /// scores are stale).
    pub fn clear(&mut self) {
        self.keys.clear();
        self.ids.clear();
        self.scores.clear();
    }

    /// Number of cached pair scores.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The dictionary: the content key of every content id, in id order.
    pub fn dictionary(&self) -> &[String] {
        &self.keys
    }

    /// Every cached entry, sorted by `(id_left, id_right)` — the order the
    /// checkpoint encoder writes them in.
    pub fn entries(&self) -> impl Iterator<Item = PairEntry> + '_ {
        self.scores.iter().map(|(&pair, &(score, a, b))| PairEntry {
            ids: Self::unpack(pair),
            score,
            sources: (a, b),
        })
    }

    /// Rebuild a cache from a dictionary and its entries — the restart
    /// path: a resumed session re-seeds ER scoring with every pair score the
    /// crashed process had computed, so cache replay survives process death.
    /// Errors on a repeated dictionary key, an id outside the dictionary,
    /// or entries out of strictly ascending order.
    pub fn restore(
        dictionary: Vec<String>,
        entries: impl IntoIterator<Item = PairEntry>,
    ) -> Result<PairScoreCache, &'static str> {
        let mut cache = PairScoreCache::default();
        for key in dictionary {
            if cache.ids.contains_key(&key) {
                return Err("repeated dictionary key");
            }
            cache.intern(key);
        }
        let n = cache.keys.len();
        let mut last: Option<u64> = None;
        for e in entries {
            let (a, b) = e.ids;
            if a as usize >= n || b as usize >= n {
                return Err("pair id outside the dictionary");
            }
            let pair = Self::pack(a, b);
            if last.is_some_and(|l| l >= pair) {
                return Err("pair entries out of order");
            }
            last = Some(pair);
            cache
                .scores
                .insert(pair, (e.score, e.sources.0, e.sources.1));
        }
        Ok(cache)
    }
}

/// Dirtiness tracking for derived artifacts.
#[derive(Debug, Clone, Default)]
pub struct WorkingData {
    dirty: HashSet<Artifact>,
    /// Cumulative work counters.
    pub work: WorkCounters,
    /// Content-keyed ER pair-score cache (see [`PairScoreCache`]).
    pub pair_scores: PairScoreCache,
}

impl WorkingData {
    /// Fresh store with everything implicitly dirty (nothing computed yet).
    pub fn new() -> Self {
        WorkingData::default()
    }

    /// Mark an artifact stale.
    pub fn invalidate(&mut self, a: Artifact) {
        self.dirty.insert(a);
    }

    /// Mark a source's whole derivation chain stale (its data changed).
    pub fn invalidate_source(&mut self, source: usize) {
        self.invalidate(Artifact::Extraction(source));
        self.invalidate(Artifact::Mapping(source));
        self.invalidate(Artifact::MappedTable(source));
        self.invalidate(Artifact::Clusters);
        self.invalidate(Artifact::Result);
    }

    /// Is the artifact stale?
    pub fn is_dirty(&self, a: Artifact) -> bool {
        self.dirty.contains(&a)
    }

    /// Clear an artifact's dirtiness after recomputation.
    pub fn mark_clean(&mut self, a: Artifact) {
        self.dirty.remove(&a);
    }

    /// Dirty fused slots, sorted.
    pub fn dirty_slots(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = self
            .dirty
            .iter()
            .filter_map(|a| match a {
                Artifact::FusedSlot(e, t) => Some((*e, *t)),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of dirty artifacts.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalidation_and_cleaning() {
        let mut wd = WorkingData::new();
        assert!(!wd.is_dirty(Artifact::Result));
        wd.invalidate(Artifact::Result);
        assert!(wd.is_dirty(Artifact::Result));
        wd.mark_clean(Artifact::Result);
        assert!(!wd.is_dirty(Artifact::Result));
    }

    #[test]
    fn source_invalidation_cascades() {
        let mut wd = WorkingData::new();
        wd.invalidate_source(3);
        for a in [
            Artifact::Extraction(3),
            Artifact::Mapping(3),
            Artifact::MappedTable(3),
            Artifact::Clusters,
            Artifact::Result,
        ] {
            assert!(wd.is_dirty(a));
        }
        assert!(!wd.is_dirty(Artifact::Extraction(4)));
    }

    #[test]
    fn dirty_slots_listed_sorted() {
        let mut wd = WorkingData::new();
        wd.invalidate(Artifact::FusedSlot(2, 1));
        wd.invalidate(Artifact::FusedSlot(0, 3));
        wd.invalidate(Artifact::Result);
        assert_eq!(wd.dirty_slots(), vec![(0, 3), (2, 1)]);
        assert_eq!(wd.dirty_count(), 3);
    }

    /// Rows A, A, B, A (names), every pair a candidate: three distinct
    /// content pairs (A,A), (A,B), (B,A) among six candidates.
    fn abaa() -> (ErKernel, Vec<(usize, usize)>) {
        use wrangler_resolve::{ErConfig, FieldSim, SimKind};
        use wrangler_table::Table;
        let t = Table::literal(
            &["name"],
            vec![
                vec!["acme".into()],
                vec!["acme".into()],
                vec!["acme co".into()],
                vec!["acme".into()],
            ],
        )
        .unwrap();
        let cfg = ErConfig {
            fields: vec![FieldSim {
                column: "name".into(),
                weight: 1.0,
                kind: SimKind::Text,
            }],
            threshold: 0.5,
        };
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        let pairs = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        (kernel, pairs)
    }

    fn serial(k: &ErKernel) -> impl FnOnce(&[(usize, usize)]) -> KernelScores + '_ {
        move |p| k.score_pairs_parallel_exact(p, 1)
    }

    #[test]
    fn pair_cache_scores_each_content_pair_once_then_replays() {
        let (kernel, pairs) = abaa();
        let srcs = [0, 1, 2, 3];
        let mut c = PairScoreCache::default();
        let (scores, pass) = c
            .score_pass(&kernel, &pairs, &srcs, serial(&kernel))
            .unwrap();
        let want = kernel.score_pairs(&pairs).unwrap();
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scores), bits(&want));
        assert_eq!((pass.hits, pass.deduped, pass.misses), (0, 3, 3));
        assert_eq!(
            pass.workers[0].items, 3,
            "the kernel saw distinct pairs only"
        );
        assert_eq!((c.len(), c.dictionary().len()), (3, 2));
        // Replay: every distinct pair hits once, the rest dedup.
        let (again, pass) = c
            .score_pass(&kernel, &pairs, &srcs, serial(&kernel))
            .unwrap();
        assert_eq!(bits(&again), bits(&want));
        assert_eq!((pass.hits, pass.deduped, pass.misses), (3, 3, 0));
        assert!(pass.workers.is_empty());
        c.clear();
        assert!(c.is_empty() && c.dictionary().is_empty());
    }

    #[test]
    fn new_entries_carry_the_sources_of_the_last_pair() {
        let (kernel, pairs) = abaa();
        let mut c = PairScoreCache::default();
        c.score_pass(&kernel, &pairs, &[0, 1, 2, 3], serial(&kernel))
            .unwrap();
        let tags: Vec<_> = c.entries().map(|e| (e.ids, e.sources)).collect();
        // ids: A = 0, B = 1. (A,A) last seen at (1,3), (A,B) at (1,2),
        // (B,A) at (2,3).
        assert_eq!(
            tags,
            vec![((0, 0), (1, 3)), ((0, 1), (1, 2)), ((1, 0), (2, 3))]
        );
    }

    #[test]
    fn eviction_is_partition_scoped_and_compacts_the_dictionary() {
        let (kernel, pairs) = abaa();
        let mut c = PairScoreCache::default();
        c.score_pass(&kernel, &pairs, &[0, 1, 2, 3], serial(&kernel))
            .unwrap();
        // Source 3 tags (A,A) and (B,A): both go, (A,B) stays, and both
        // keys are still referenced.
        assert_eq!(c.evict_sources(&[3]), (2, 1));
        assert_eq!(c.dictionary().len(), 2);
        // Source 2 tags the survivor: the cache empties and so does the
        // dictionary.
        assert_eq!(c.evict_sources(&[2]), (1, 0));
        assert!(c.dictionary().is_empty());
        // Re-scoring after a compaction interns afresh and replays exactly.
        let (scores, pass) = c
            .score_pass(&kernel, &pairs, &[0, 0, 0, 0], serial(&kernel))
            .unwrap();
        assert_eq!(pass.misses, 3);
        let want = kernel.score_pairs(&pairs).unwrap();
        assert!(scores
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn compaction_renumbers_survivors_in_order() {
        let (kernel, pairs) = abaa();
        let mut c = PairScoreCache::default();
        // B first: B = 0, A = 1.
        c.score_pass(&kernel, &[(2, 0)], &[5, 5, 5, 5], serial(&kernel))
            .unwrap();
        c.score_pass(&kernel, &[(0, 3)], &[7, 7, 7, 7], serial(&kernel))
            .unwrap();
        assert_eq!(c.dictionary(), ["t7:acme co;", "t4:acme;"]);
        // Dropping source 5 leaves only (A,A): A becomes id 0.
        assert_eq!(c.evict_sources(&[5]), (1, 1));
        assert_eq!(c.dictionary(), ["t4:acme;"]);
        let e: Vec<_> = c.entries().map(|e| (e.ids, e.sources)).collect();
        assert_eq!(e, vec![((0, 0), (7, 7))]);
        let (_, pass) = c
            .score_pass(&kernel, &pairs, &[0; 4], serial(&kernel))
            .unwrap();
        assert_eq!((pass.hits, pass.misses), (1, 2));
    }

    #[test]
    fn cap_wipes_entries_and_dictionary() {
        let (kernel, pairs) = abaa();
        let cap = PairScoreCache::CAP as u64;
        // Entries at the bound: the first insert of the pass wipes them and
        // only this pass's three pairs remain; the dictionary stays valid.
        // Filler ids from 2 up: none collides with this pass's ids 0 and 1.
        let mut c = PairScoreCache {
            scores: (2..cap + 2).map(|p| (p << 32 | p, (0.5, 9, 9))).collect(),
            ..PairScoreCache::default()
        };
        c.score_pass(&kernel, &pairs, &[0; 4], serial(&kernel))
            .unwrap();
        assert_eq!((c.len(), c.dictionary().len()), (3, 2));
        // A dictionary at the bound wipes everything before the next pass.
        let mut c = PairScoreCache::default();
        c.score_pass(&kernel, &pairs, &[0; 4], serial(&kernel))
            .unwrap();
        c.keys.resize(PairScoreCache::CAP, String::new());
        let (_, pass) = c
            .score_pass(&kernel, &pairs, &[0; 4], serial(&kernel))
            .unwrap();
        assert_eq!(pass.misses, 3, "nothing survived the wipe");
        assert_eq!((c.len(), c.dictionary().len()), (3, 2));
    }

    #[test]
    fn restore_round_trips_and_rejects_bad_input() {
        let (kernel, pairs) = abaa();
        let mut c = PairScoreCache::default();
        c.score_pass(&kernel, &pairs, &[3, 7, 7, 7], serial(&kernel))
            .unwrap();
        let r = PairScoreCache::restore(c.dictionary().to_vec(), c.entries()).unwrap();
        assert_eq!(r, c);
        let entry = |a, b| PairEntry {
            ids: (a, b),
            score: 0.5,
            sources: (0, 0),
        };
        let dict = || vec!["x".to_string(), "y".to_string()];
        assert!(PairScoreCache::restore(dict(), [entry(0, 2)]).is_err());
        assert!(PairScoreCache::restore(dict(), [entry(1, 0), entry(0, 1)]).is_err());
        assert!(PairScoreCache::restore(dict(), [entry(0, 1), entry(0, 1)]).is_err());
        assert!(PairScoreCache::restore(vec!["x".into(), "x".into()], []).is_err());
    }

    #[test]
    fn work_counter_arithmetic() {
        let a = WorkCounters {
            extractions: 5,
            mappings_generated: 2,
            tables_mapped: 5,
            er_pairs: 100,
            slots_fused: 50,
        };
        let b = WorkCounters {
            extractions: 5,
            mappings_generated: 2,
            tables_mapped: 5,
            er_pairs: 100,
            slots_fused: 60,
        };
        let d = b - a;
        assert_eq!(d.slots_fused, 10);
        assert_eq!(d.total(), 10);
    }
}
