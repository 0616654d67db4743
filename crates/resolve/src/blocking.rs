//! Candidate generation: naive, key blocking, sorted neighbourhood.
//!
//! Naive all-pairs is O(n²) and dies at big-data scale (§4.3); blocking
//! compares only records sharing a cheap key, sorted neighbourhood compares
//! records within a sliding window of a sort order. Completeness vs cost is
//! experiment E7's subject.

use std::collections::BTreeMap;

use wrangler_table::{Table, Value};

/// All pairs (i, j), i < j. The quadratic baseline.
pub fn candidates_naive(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(n.saturating_sub(1) * n / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            out.push((i, j));
        }
    }
    out
}

/// Blocking key of a value: lowercased first token, first 4 characters.
/// Nulls key to an empty block of their own (never compared).
pub fn block_key(v: &Value) -> Option<String> {
    if v.is_null() {
        return None;
    }
    let r = v.render().to_lowercase();
    let tok = r.split_whitespace().next()?;
    Some(tok.chars().take(4).collect())
}

/// Exact-blocking key of a value: its full rendering, trimmed and
/// lowercased. Nulls join no block.
fn exact_key(v: &Value) -> Option<String> {
    (!v.is_null()).then(|| v.render().trim().to_lowercase())
}

/// Rows grouped by `key`, ascending within each block. A `BTreeMap`
/// iterates in key order, so every pair order derived from it is
/// deterministic without an explicit sort.
fn blocks_by(
    col: &[Value],
    key: impl Fn(&Value) -> Option<String>,
) -> BTreeMap<String, Vec<usize>> {
    let mut blocks: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, v) in col.iter().enumerate() {
        if let Some(k) = key(v) {
            blocks.entry(k).or_default().push(i);
        }
    }
    blocks
}

/// Every within-block pair `(rows[a], rows[b])`, `a < b`, block by block.
fn block_pairs(blocks: &BTreeMap<String, Vec<usize>>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for rows in blocks.values() {
        for a in 0..rows.len() {
            for b in (a + 1)..rows.len() {
                out.push((rows[a], rows[b]));
            }
        }
    }
    out
}

/// Key-based blocking on a column: pairs within the same block only.
pub fn candidates_blocked(
    table: &Table,
    column: &str,
) -> wrangler_table::Result<Vec<(usize, usize)>> {
    Ok(block_pairs(&blocks_by(
        table.column_named(column)?,
        block_key,
    )))
}

/// Exact-value blocking: pairs sharing the column's full (lowercased,
/// trimmed) rendering. The right choice for key-like columns, where prefix
/// blocks would degenerate (all `SKU-…` keys share a prefix).
pub fn candidates_blocked_exact(
    table: &Table,
    column: &str,
) -> wrangler_table::Result<Vec<(usize, usize)>> {
    Ok(block_pairs(&blocks_by(
        table.column_named(column)?,
        exact_key,
    )))
}

/// Per row, the ascending rows after it in its block (empty for a row in
/// no block). Every slice borrows from `blocks`.
fn later_in_block(blocks: &BTreeMap<String, Vec<usize>>, n: usize) -> Vec<&[usize]> {
    let mut later: Vec<&[usize]> = vec![&[][..]; n];
    for rows in blocks.values() {
        for (a, &r) in rows.iter().enumerate() {
            later[r] = &rows[a + 1..];
        }
    }
    later
}

/// The ER stage's candidate set: pairs sharing a prefix block
/// ([`block_key`]) on `name_col` or an exact block on `key_col`, sorted
/// and deduplicated. Rows whose name is null or typo-prefixed still meet
/// their duplicates through the key.
///
/// Equal to `candidates_blocked ∪ candidates_blocked_exact`, sorted and
/// deduplicated, but built in that order: each row belongs to at most one
/// block per column, so row `i`'s partners are the merge of two ascending
/// suffixes (the rows after `i` in each of its blocks), with a row found
/// in both emitted once. Linear in the output, no sort. When both columns
/// are the same column, the result is the prefix-blocked pairs, sorted.
pub fn er_candidates(
    table: &Table,
    name_col: &str,
    key_col: &str,
) -> wrangler_table::Result<Vec<(usize, usize)>> {
    let n = table.num_rows();
    let by_name = blocks_by(table.column_named(name_col)?, block_key);
    let by_key = if key_col == name_col {
        BTreeMap::new()
    } else {
        blocks_by(table.column_named(key_col)?, exact_key)
    };
    let (name_later, key_later) = (later_in_block(&by_name, n), later_in_block(&by_key, n));
    let bound: usize = name_later
        .iter()
        .zip(&key_later)
        .map(|(a, b)| a.len() + b.len())
        .sum();
    let mut out = Vec::with_capacity(bound);
    for (i, (mut a, mut b)) in name_later.into_iter().zip(key_later).enumerate() {
        while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
            let j = x.min(y);
            out.push((i, j));
            if x == j {
                a = &a[1..];
            }
            if y == j {
                b = &b[1..];
            }
        }
        out.extend(a.iter().chain(b).map(|&j| (i, j)));
    }
    Ok(out)
}

/// Translate a candidate pair of the current pass into the row indices of a
/// previous pass, given a row-level remap (`None` = the row has no prior
/// counterpart). This is the ER half of the incremental engine's fast path:
/// a pair whose rows both remap can replay its memoized score instead of
/// rescoring. Out-of-range indices translate to `None` rather than
/// panicking, so a stale or truncated map can never fabricate a reuse.
pub fn remap_candidate(
    pair: (usize, usize),
    rowmap: &[Option<usize>],
) -> Option<(usize, usize)> {
    let old_i = rowmap.get(pair.0).copied().flatten()?;
    let old_j = rowmap.get(pair.1).copied().flatten()?;
    Some((old_i, old_j))
}

/// Sorted neighbourhood: sort rows by the column's rendering, compare each
/// row with the next `window − 1` rows in that order. Robust to key-prefix
/// typos that break key blocking. Null rows are excluded before sorting —
/// the "nulls never compared" contract both blocking variants uphold — and
/// a window below 2 is a structured error, not a panic.
pub fn candidates_sorted_neighborhood(
    table: &Table,
    column: &str,
    window: usize,
) -> wrangler_table::Result<Vec<(usize, usize)>> {
    if window < 2 {
        return Err(wrangler_table::TableError::Invalid(format!(
            "sorted-neighbourhood window must cover at least a pair (got {window})"
        )));
    }
    let col = table.column_named(column)?;
    // Keys rendered once per row (not once per comparison); ties keep the
    // original row order, as the previous stable sort did.
    let mut keyed: Vec<(String, usize)> = col
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_null())
        .map(|(i, v)| (v.render().to_lowercase(), i))
        .collect();
    keyed.sort_unstable();
    let mut out = Vec::new();
    for (pos, (_, i)) in keyed.iter().enumerate() {
        for (_, j) in keyed.iter().skip(pos + 1).take(window - 1) {
            out.push((*i.min(j), *i.max(j)));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(xs: &[&str]) -> Table {
        Table::literal(
            &["name"],
            xs.iter().map(|x| vec![Value::from(*x)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn naive_counts() {
        assert_eq!(candidates_naive(0).len(), 0);
        assert_eq!(candidates_naive(1).len(), 0);
        assert_eq!(candidates_naive(5).len(), 10);
    }

    #[test]
    fn blocking_prunes_cross_block_pairs() {
        let t = names(&[
            "Acme Widget",
            "Acme Gadget",
            "Bolt Thing",
            "acme widget pro",
        ]);
        let pairs = candidates_blocked(&t, "name").unwrap();
        // acme-block rows {0,1,3} → 3 pairs; bolt row alone.
        assert_eq!(pairs.len(), 3);
        assert!(pairs.contains(&(0, 3)));
        assert!(!pairs.iter().any(|&(i, j)| i == 2 || j == 2));
    }

    #[test]
    fn nulls_never_compared() {
        let t = Table::literal(
            &["name"],
            vec![vec![Value::Null], vec![Value::Null], vec!["x".into()]],
        )
        .unwrap();
        assert!(candidates_blocked(&t, "name").unwrap().is_empty());
    }

    #[test]
    fn blocked_is_subset_of_naive() {
        let t = names(&["aa", "ab", "ba", "aa x"]);
        let naive: std::collections::HashSet<_> = candidates_naive(4).into_iter().collect();
        for p in candidates_blocked(&t, "name").unwrap() {
            assert!(naive.contains(&p));
        }
    }

    #[test]
    fn sorted_neighborhood_window() {
        let t = names(&["delta", "alpha", "beta", "gamma"]);
        let pairs = candidates_sorted_neighborhood(&t, "name", 2).unwrap();
        // Sorted: alpha(1) beta(2) delta(0) gamma(3); adjacent pairs only.
        assert_eq!(pairs.len(), 3);
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(0, 2)));
        assert!(pairs.contains(&(0, 3)));
        // Window 4 on 4 rows = all pairs.
        let all = candidates_sorted_neighborhood(&t, "name", 4).unwrap();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn sorted_neighborhood_nulls_never_compared() {
        // Mirrors `nulls_never_compared` for the sorted-neighbourhood path:
        // null rows must enter neither the sort order nor the window.
        let t = Table::literal(
            &["name"],
            vec![
                vec![Value::Null],
                vec!["beta".into()],
                vec![Value::Null],
                vec!["alpha".into()],
            ],
        )
        .unwrap();
        let pairs = candidates_sorted_neighborhood(&t, "name", 2).unwrap();
        assert_eq!(pairs, vec![(1, 3)]);
        // Even a window spanning everything only pairs the non-null rows.
        let wide = candidates_sorted_neighborhood(&t, "name", 4).unwrap();
        assert_eq!(wide, vec![(1, 3)]);
        let all_null =
            Table::literal(&["name"], vec![vec![Value::Null], vec![Value::Null]]).unwrap();
        assert!(candidates_sorted_neighborhood(&all_null, "name", 3)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn sorted_neighborhood_small_window_is_error_not_panic() {
        let t = names(&["a", "b"]);
        for window in [0, 1] {
            let err = candidates_sorted_neighborhood(&t, "name", window).unwrap_err();
            assert!(
                matches!(err, wrangler_table::TableError::Invalid(_)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn er_candidates_merge_name_and_key_blocks_sorted() {
        let t = Table::literal(
            &["sku", "name"],
            vec![
                vec!["S1".into(), "Acme Widget".into()],
                vec!["s1 ".into(), "Bolt Widget".into()],
                vec!["S2".into(), "acme gadget".into()],
                vec![Value::Null, Value::Null],
                vec!["S1".into(), "ACME".into()],
            ],
        )
        .unwrap();
        // Name blocks: acme {0,2,4}; key blocks: s1 {0,1,4}. (0,4) is in
        // both and appears once.
        let got = er_candidates(&t, "name", "sku").unwrap();
        assert_eq!(got, vec![(0, 1), (0, 2), (0, 4), (1, 4), (2, 4)]);
        // Same column for both: the prefix-blocked pairs, sorted.
        assert_eq!(
            er_candidates(&t, "name", "name").unwrap(),
            vec![(0, 2), (0, 4), (2, 4)]
        );
        assert!(er_candidates(&t, "name", "missing").is_err());
    }

    #[test]
    fn remap_candidate_requires_both_rows_mapped_and_in_range() {
        let map = [Some(5), None, Some(7)];
        assert_eq!(remap_candidate((0, 2), &map), Some((5, 7)));
        assert_eq!(remap_candidate((0, 1), &map), None);
        // Indices past the map's end are "no counterpart", not a panic.
        assert_eq!(remap_candidate((0, 9), &map), None);
        assert_eq!(remap_candidate((9, 9), &[]), None);
    }

    #[test]
    fn sorted_neighborhood_catches_prefix_typo_that_blocking_misses() {
        // "acme widget" vs "acmd widget": different 4-prefix blocks.
        let t = names(&["acme widget", "acmd widget"]);
        assert!(candidates_blocked(&t, "name").unwrap().is_empty());
        let sn = candidates_sorted_neighborhood(&t, "name", 2).unwrap();
        assert_eq!(sn, vec![(0, 1)]);
    }
}
