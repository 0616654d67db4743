//! The ER memo's merge-join replay against its definition: for every
//! candidate, `ErMemo::replay` returns exactly what translating the pair
//! through the row map and looking it up with `ErMemo::score_of` returns —
//! the same score bit-for-bit (`f64::to_bits`), or "no score" (listed in
//! `todo`, slot left at 0.0).
//!
//! Layouts are drawn to break the merge-join's fast case: clean blocks
//! reordered, dropped, added, and grown or shrunk under an unchanged block
//! key (rows then map past their old block), plus row maps drawn at random,
//! which are not monotone and may point past the memoized union. Candidate
//! lists come sorted (as the ER stage builds them) and reversed.

use proptest::prelude::*;
use proptest::TestCaseResult;
use wrangler_core::incr::{pack_pair, remap_rows, ErMemo};

/// What happens to one old block in the new union.
#[derive(Debug, Clone, Copy)]
enum BlockFate {
    Keep,
    Drop,
    /// New content: new block key, new length.
    Change(usize),
    /// Same block key, different length.
    Resize(usize),
}

fn arb_fate() -> impl Strategy<Value = BlockFate> {
    prop_oneof![
        Just(BlockFate::Keep),
        Just(BlockFate::Keep),
        Just(BlockFate::Drop),
        (0usize..6).prop_map(BlockFate::Change),
        (0usize..6).prop_map(BlockFate::Resize),
    ]
}

type Layout = Vec<(usize, u64, usize)>;

/// Old layout from block lengths; new layout from each block's fate, any
/// added blocks, and a sort key per block that reorders the new union.
fn layouts(
    old_lens: &[usize],
    fates: &[BlockFate],
    added: &[usize],
    order: &[u64],
) -> (Layout, Layout) {
    let old: Layout = old_lens
        .iter()
        .enumerate()
        .map(|(s, &len)| (s, 100 + s as u64, len))
        .collect();
    let mut new: Vec<(usize, u64, usize)> = Vec::new();
    for (&(s, key, len), fate) in old.iter().zip(fates.iter().cycle()) {
        match *fate {
            BlockFate::Keep => new.push((s, key, len)),
            BlockFate::Drop => {}
            BlockFate::Change(n) => new.push((s, key + 1000, n)),
            BlockFate::Resize(n) => new.push((s, key, n)),
        }
    }
    for (a, &len) in added.iter().enumerate() {
        new.push((old.len() + a, 5000 + a as u64, len));
    }
    let mut keyed: Vec<(u64, usize, (usize, u64, usize))> = new
        .into_iter()
        .enumerate()
        .map(|(b, blk)| (order[b % order.len()], b, blk))
        .collect();
    keyed.sort_unstable_by_key(|&(o, b, _)| (o, b));
    (old, keyed.into_iter().map(|(_, _, blk)| blk).collect())
}

/// Sorted pairs `(i, j)`, `i < j < n`, each kept when its seed is even.
fn pairs(n: usize, seeds: &[u64]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut p = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if seeds[p % seeds.len()].is_multiple_of(2) {
                out.push((i, j));
            }
            p += 1;
        }
    }
    out
}

/// A memo over `old_rows` rows holding a seeded subset of its pairs. The
/// score bits come straight from the seeds, so NaN payloads, −0.0 and
/// infinities all occur.
fn memo(old_rows: usize, seeds: &[u64]) -> ErMemo {
    let scores = pairs(old_rows, seeds)
        .into_iter()
        .enumerate()
        .map(|(k, (i, j))| {
            let bits = seeds[(k * 7 + 3) % seeds.len()];
            (pack_pair(i, j), f64::from_bits(bits))
        })
        .collect();
    ErMemo {
        key: 0,
        pass_fp: 0,
        prog_fp: 0,
        clusters: Vec::new(),
        row_entity: vec![0; old_rows],
        layout: Vec::new(),
        scores,
    }
}

/// Replay must equal the per-pair lookup on every candidate.
fn check(memo: &ErMemo, rowmap: &[Option<usize>], cands: &[(usize, usize)]) -> TestCaseResult {
    let got = memo.replay(rowmap, cands);
    prop_assert_eq!(got.scores.len(), cands.len());
    let mut todo = Vec::new();
    for (k, &(i, j)) in cands.iter().enumerate() {
        let want = match (
            rowmap.get(i).copied().flatten(),
            rowmap.get(j).copied().flatten(),
        ) {
            (Some(oi), Some(oj)) => memo.score_of(pack_pair(oi, oj)),
            _ => None,
        };
        match want {
            Some(s) => prop_assert_eq!(got.scores[k].to_bits(), s.to_bits(), "candidate {}", k),
            None => {
                todo.push(k);
                prop_assert_eq!(got.scores[k].to_bits(), 0.0f64.to_bits());
            }
        }
    }
    prop_assert_eq!(got.todo, todo);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replay_equals_score_of_across_layout_changes(
        old_lens in prop::collection::vec(0usize..6, 0..7),
        fates in prop::collection::vec(arb_fate(), 1..7),
        added in prop::collection::vec(0usize..6, 0..3),
        order in prop::collection::vec(0u64..4, 1..9),
        seeds in prop::collection::vec(any::<u64>(), 64..256),
    ) {
        let (old, new) = layouts(&old_lens, &fates, &added, &order);
        let old_rows: usize = old.iter().map(|b| b.2).sum();
        let new_rows: usize = new.iter().map(|b| b.2).sum();
        let m = memo(old_rows, &seeds);
        let map = remap_rows(&old, &new);
        let mut cands = pairs(new_rows, &seeds[1..]);
        check(&m, &map, &cands)?;
        cands.reverse();
        check(&m, &map, &cands)?;
    }

    #[test]
    fn replay_equals_score_of_under_arbitrary_row_maps(
        old_rows in 0usize..30,
        map in prop::collection::vec(prop::option::of(0usize..34), 0..30),
        seeds in prop::collection::vec(any::<u64>(), 64..256),
    ) {
        let m = memo(old_rows, &seeds);
        // Candidates may also name rows past the map's end.
        let cands = pairs(map.len() + 2, &seeds[2..]);
        check(&m, &map, &cands)?;
    }
}
