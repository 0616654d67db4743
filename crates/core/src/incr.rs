//! The incremental dataflow engine: per-stage, per-source-partition
//! memoization inside the live session.
//!
//! PR 8's checkpoint chaining proved whole-stage replay across process
//! restarts; this module generalizes the same content-keyed idea *within*
//! the session and below stage grain. Three memo levels:
//!
//! - **Union blocks** ([`BlockMemo`]): each source's contribution to the
//!   union (its contiguous row block, post poison scan and post inline
//!   filter) is keyed on the pass/program fingerprints plus that source's
//!   effective payload, mapping and filter placement. A 1-source update on
//!   an n-source fleet recomputes one block; the other n−1 replay.
//! - **ER** ([`ErMemo`]): the whole clustering is keyed on the union
//!   content. When the union changed (some block is dirty), the memo still
//!   pays: its per-pair scores are kept under *packed row indices*, and the
//!   block layout lets rows of unchanged blocks remap old→new by offset, so
//!   clean-clean candidate pairs replay through a merge-join of the sorted
//!   candidates against the sorted scores ([`ErMemo::replay`]) instead of
//!   re-rendering string content keys.
//! - **Fuse** ([`FuseMemo`]): trust estimation + slot fusion is keyed on
//!   the union/clustering content plus every input that can ripple into a
//!   fused value (belief trust, source ages, master data).
//!
//! Reuse is proof-carrying at the union grain: a block replays only when
//! the plan analyzer established `PartitionIsolated` for its source — i.e.
//! the block is a pure function of (payload, mapping, compiled program,
//! containment policy) with no cross-source filter rewiring. Chaos-mode
//! passes disable the engine wholesale: fault rolls are stateful, so
//! nothing may be skipped. A hit never fakes the skipped work's telemetry;
//! it surfaces as explicit `incr.*` counters instead.

use std::collections::BTreeMap;

use wrangler_fusion::strategies::FusedValue;
use wrangler_table::Value;

/// One source's memoized union contribution.
#[derive(Debug, Clone)]
pub struct BlockMemo {
    /// Content key (see [`module docs`](self)): equal keys mean the live
    /// union loop would reproduce exactly these rows.
    pub key: u64,
    /// The rows the source contributed, in delivery order (source tag
    /// stripped — it is the map key).
    pub rows: Vec<Vec<Value>>,
    /// Rows the inline (Union-placed) filter dropped when the block was
    /// computed; replayed into the `union.filtered` counter.
    pub filtered: u64,
    /// Cells the poison scan walked at compute time — the work a hit
    /// skips. Zero when telemetry was off at compute time.
    pub scan_cells: u64,
    /// Bytes the poison scan walked at compute time (same caveat).
    pub scan_bytes: u64,
}

/// The memoized ER stage: full-stage replay plus the remap fast path.
#[derive(Debug, Clone)]
pub struct ErMemo {
    /// Full-stage key: pass/program fingerprints + union content hash.
    pub key: u64,
    /// Pass fingerprint the memo was computed under; the remap fast path
    /// requires an exact match (it replays raw scores across passes).
    pub pass_fp: u64,
    /// Program fingerprint the memo was computed under. Recorded for
    /// provenance, but *not* a remap precondition: a dirty source's
    /// regenerated mapping shifts the whole-program fingerprint without
    /// touching any clean row, and the layout's per-block content keys
    /// already pin row content exactly.
    pub prog_fp: u64,
    /// The clustering.
    pub clusters: Vec<Vec<usize>>,
    /// Row → entity index over the memoized union.
    pub row_entity: Vec<usize>,
    /// Union block layout at compute time: `(source, block key, rows)` per
    /// contiguous block, in union order. Remapping matches blocks by
    /// `(source, block key)` and shifts row indices by block offset.
    pub layout: Vec<(usize, u64, usize)>,
    /// Every candidate pair's score, keyed by [`pack_pair`] of its (old)
    /// row indices, ascending by key (the sorted candidate order).
    pub scores: Vec<(u64, f64)>,
}

impl ErMemo {
    /// Score of a (packed) pair if it was a candidate in the memoized pass.
    pub fn score_of(&self, packed: u64) -> Option<f64> {
        self.scores
            .binary_search_by_key(&packed, |&(k, _)| k)
            .ok()
            .map(|idx| self.scores[idx].1)
    }

    /// Replay memoized scores onto this pass's `candidates`: each pair whose
    /// rows both map through `rowmap` (see [`remap_rows`]) takes the score
    /// its old pair had, if that pair was a memoized candidate. The result
    /// equals [`Self::score_of`] on every remapped pair.
    ///
    /// The walk is a merge-join. A cursor moves forward through `scores`
    /// by galloping (doubling steps, then a binary search inside the last
    /// step). When the clean blocks keep their order in the union, the row
    /// map is monotone, so sorted candidates remap to ascending keys and the
    /// walk is O(candidates + memo). A key behind the cursor (blocks
    /// reordered, or candidates not sorted) falls back to a binary search
    /// of everything before the cursor and restarts the cursor there; that
    /// stays correct, only slower.
    pub fn replay(&self, rowmap: &[Option<usize>], candidates: &[(usize, usize)]) -> ErReplay {
        let memo = &self.scores;
        let mut out = ErReplay {
            scores: vec![0.0; candidates.len()],
            todo: Vec::new(),
        };
        let mut cursor = 0usize;
        for (k, &pair) in candidates.iter().enumerate() {
            let Some((oi, oj)) = wrangler_resolve::blocking::remap_candidate(pair, rowmap) else {
                out.todo.push(k);
                continue;
            };
            let key = pack_pair(oi, oj);
            cursor = if cursor > 0 && memo[cursor - 1].0 >= key {
                memo[..cursor].partition_point(|&(m, _)| m < key)
            } else {
                cursor + gallop(&memo[cursor..], key)
            };
            match memo.get(cursor) {
                Some(&(m, s)) if m == key => out.scores[k] = s,
                _ => out.todo.push(k),
            }
        }
        out
    }
}

/// Index of the first entry of ascending `entries` whose key is `>= key`
/// (`entries.len()` if none), found by doubling steps from the front and
/// then a binary search inside the last step: O(log d) for an answer at d.
fn gallop(entries: &[(u64, f64)], key: u64) -> usize {
    let (mut lo, mut step) = (0usize, 1usize);
    while lo + step <= entries.len() && entries[lo + step - 1].0 < key {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(entries.len());
    lo + entries[lo..hi].partition_point(|&(m, _)| m < key)
}

/// Memoized scores replayed onto one pass's candidates ([`ErMemo::replay`]).
#[derive(Debug)]
pub struct ErReplay {
    /// Score per candidate, in candidate order. A slot listed in `todo`
    /// holds `0.0` until the caller scores it.
    pub scores: Vec<f64>,
    /// Indices of the candidates with no replayable score, ascending.
    pub todo: Vec<usize>,
}

/// The memoized fuse stage (trust vector, ages, fused slots).
#[derive(Debug, Clone)]
pub struct FuseMemo {
    /// Content key over everything that can ripple into a fused value.
    pub key: u64,
    /// Blended per-source trust at compute time.
    pub trust: Vec<f64>,
    /// Per-source ages at compute time.
    pub age: Vec<u64>,
    /// Fused slot values, sorted by (entity, attr).
    pub fused: Vec<(usize, usize, FusedValue)>,
}

/// Pack a candidate pair's row indices into one ordered u64 key. Callers
/// pass them in any order; the smaller index always takes the high half,
/// matching the `i < j` candidate convention.
pub fn pack_pair(i: usize, j: usize) -> u64 {
    let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
    ((lo as u64) << 32) | (hi as u64 & 0xFFFF_FFFF)
}

/// Row-level mapping from the current pass's union to a memoized one.
/// Blocks match by `(source, block key)` (first occurrence wins, as blocks
/// are unique per source); matched blocks map row-for-row by offset.
/// `None` marks rows of new/changed blocks — those pairs fall back to the
/// content-keyed pair cache, which is always sound.
pub fn remap_rows(
    old_layout: &[(usize, u64, usize)],
    new_layout: &[(usize, u64, usize)],
) -> Vec<Option<usize>> {
    let mut old_starts: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    let mut off = 0usize;
    for &(src, key, len) in old_layout {
        old_starts.entry((src, key)).or_insert(off);
        off += len;
    }
    let total: usize = new_layout.iter().map(|&(_, _, len)| len).sum();
    let mut map = Vec::with_capacity(total);
    for &(src, key, len) in new_layout {
        match old_starts.get(&(src, key)) {
            Some(&start) => map.extend((0..len).map(|r| Some(start + r))),
            None => map.extend(std::iter::repeat_n(None, len)),
        }
    }
    map
}

/// The session's incremental-reuse state. On by default; chaos-mode passes
/// and explicit [`set_enabled(false)`](IncrEngine::set_enabled) bypass it.
#[derive(Debug, Clone)]
pub struct IncrEngine {
    enabled: bool,
    /// Per-source union block memos.
    pub blocks: BTreeMap<usize, BlockMemo>,
    /// The ER memo (one per session — ER has no per-source partition).
    pub er: Option<ErMemo>,
    /// The fuse memo.
    pub fuse: Option<FuseMemo>,
}

impl Default for IncrEngine {
    fn default() -> Self {
        IncrEngine::new()
    }
}

impl IncrEngine {
    /// Fresh, enabled engine with nothing memoized.
    pub fn new() -> IncrEngine {
        IncrEngine {
            enabled: true,
            blocks: BTreeMap::new(),
            er: None,
            fuse: None,
        }
    }

    /// Is incremental reuse on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn the engine on/off. Turning it off drops every memo, so a
    /// disabled session is indistinguishable from one that never memoized
    /// (the cold comparator the identity tests clone).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.clear();
        }
    }

    /// Drop every memo (plan shape changed, ER rule refined, …).
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.er = None;
        self.fuse = None;
    }

    /// A source's data changed: its block memo is stale, and fusion (whose
    /// trust estimation reads every claim) must recompute. The ER memo
    /// survives — its key will miss, but its layout + packed scores still
    /// feed the remap fast path for the n−1 clean blocks.
    pub fn forget_source(&mut self, source: usize) {
        self.blocks.remove(&source);
        self.fuse = None;
    }

    /// Number of live memos, for tests and stats.
    pub fn memo_count(&self) -> usize {
        self.blocks.len() + usize::from(self.er.is_some()) + usize::from(self.fuse.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_pair_orders_and_separates() {
        assert_eq!(pack_pair(3, 7), pack_pair(7, 3));
        assert_ne!(pack_pair(3, 7), pack_pair(3, 8));
        assert_eq!(pack_pair(1, 2), (1u64 << 32) | 2);
    }

    #[test]
    fn remap_shifts_clean_blocks_by_offset() {
        // Old union: src0 (key 10, 2 rows), src1 (key 20, 3 rows).
        // New union: src0 changed (key 11, 4 rows), src1 unchanged.
        let old = [(0usize, 10u64, 2usize), (1, 20, 3)];
        let new = [(0usize, 11u64, 4usize), (1, 20, 3)];
        let map = remap_rows(&old, &new);
        assert_eq!(map.len(), 7);
        assert!(map[..4].iter().all(Option::is_none));
        // src1's block started at old offset 2, now at 4.
        assert_eq!(&map[4..], &[Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn remap_matches_blocks_across_reordering() {
        let old = [(0usize, 10u64, 1usize), (1, 20, 2)];
        let new = [(1usize, 20u64, 2usize), (0, 10, 1)];
        let map = remap_rows(&old, &new);
        assert_eq!(map, vec![Some(1), Some(2), Some(0)]);
    }

    #[test]
    fn er_memo_score_binary_search() {
        let memo = ErMemo {
            key: 0,
            pass_fp: 0,
            prog_fp: 0,
            clusters: Vec::new(),
            row_entity: Vec::new(),
            layout: Vec::new(),
            scores: vec![(pack_pair(0, 1), 0.5), (pack_pair(0, 2), 0.75)],
        };
        assert_eq!(memo.score_of(pack_pair(2, 0)), Some(0.75));
        assert_eq!(memo.score_of(pack_pair(1, 2)), None);
    }

    fn memo_with(scores: Vec<(u64, f64)>) -> ErMemo {
        ErMemo {
            key: 0,
            pass_fp: 0,
            prog_fp: 0,
            clusters: Vec::new(),
            row_entity: Vec::new(),
            layout: Vec::new(),
            scores,
        }
    }

    #[test]
    fn replay_merge_joins_a_monotone_map() {
        // Old union: rows 0..4; memo holds (0,1), (0,3), (2,3).
        let memo = memo_with(vec![
            (pack_pair(0, 1), 0.25),
            (pack_pair(0, 3), 0.5),
            (pack_pair(2, 3), 0.75),
        ]);
        // New union: a fresh row 0, then old rows 0..4 shifted by one.
        let map = [None, Some(0), Some(1), Some(2), Some(3)];
        let cands = [(0, 1), (1, 2), (1, 3), (1, 4), (3, 4)];
        let r = memo.replay(&map, &cands);
        assert_eq!(r.todo, vec![0, 2]);
        assert_eq!(r.scores, vec![0.0, 0.25, 0.0, 0.5, 0.75]);
    }

    #[test]
    fn replay_falls_back_behind_the_cursor() {
        // Blocks swapped: new rows 0..2 are old rows 2..4 and vice versa,
        // so remapped keys go backwards mid-walk.
        let memo = memo_with(vec![(pack_pair(0, 1), 0.1), (pack_pair(2, 3), 0.9)]);
        let map = [Some(2), Some(3), Some(0), Some(1)];
        let r = memo.replay(&map, &[(0, 1), (2, 3), (0, 1)]);
        assert!(r.todo.is_empty());
        assert_eq!(r.scores, vec![0.9, 0.1, 0.9]);
        // Nothing to replay from an empty memo.
        let empty = memo_with(Vec::new()).replay(&map, &[(0, 1)]);
        assert_eq!(empty.todo, vec![0]);
    }

    #[test]
    fn gallop_finds_the_lower_bound() {
        let entries: Vec<(u64, f64)> = (0..40).map(|k| (3 * k, 0.0)).collect();
        for key in 0..125 {
            let want = entries.partition_point(|&(m, _)| m < key);
            assert_eq!(gallop(&entries, key), want, "key {key}");
        }
        assert_eq!(gallop(&[], 7), 0);
    }

    #[test]
    fn disabling_drops_memos() {
        let mut e = IncrEngine::new();
        assert!(e.enabled());
        e.blocks.insert(
            0,
            BlockMemo {
                key: 1,
                rows: Vec::new(),
                filtered: 0,
                scan_cells: 0,
                scan_bytes: 0,
            },
        );
        assert_eq!(e.memo_count(), 1);
        e.set_enabled(false);
        assert_eq!(e.memo_count(), 0);
        assert!(!e.enabled());
    }

    #[test]
    fn forget_source_keeps_er_for_remap() {
        let mut e = IncrEngine::new();
        e.blocks.insert(
            2,
            BlockMemo {
                key: 1,
                rows: Vec::new(),
                filtered: 0,
                scan_cells: 0,
                scan_bytes: 0,
            },
        );
        e.er = Some(ErMemo {
            key: 9,
            pass_fp: 0,
            prog_fp: 0,
            clusters: Vec::new(),
            row_entity: Vec::new(),
            layout: Vec::new(),
            scores: Vec::new(),
        });
        e.fuse = Some(FuseMemo {
            key: 9,
            trust: Vec::new(),
            age: Vec::new(),
            fused: Vec::new(),
        });
        e.forget_source(2);
        assert!(e.blocks.is_empty());
        assert!(e.er.is_some());
        assert!(e.fuse.is_none());
    }
}
