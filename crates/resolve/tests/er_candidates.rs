//! The ER stage's candidate builder against its definition: `er_candidates`
//! equals name blocking ∪ exact-key blocking, sorted and deduplicated.
//!
//! Cells come from small pools so keys repeat often: nulls, case and
//! whitespace variants of one key, numbers next to their text rendering,
//! and non-ASCII names (including characters whose lowercase form is
//! longer than themselves, which moves the 4-character prefix).

use proptest::prelude::*;
use wrangler_resolve::{candidates_blocked, candidates_blocked_exact, er_candidates};
use wrangler_table::{Table, Value};

const NAMES: [&str; 10] = [
    "Acme Widget",
    "acme widget",
    "  ACME  gadget",
    "Ácme co",
    "İstanbul bazaar",
    "istanbul",
    "zoë",
    "naïve café",
    "a",
    "",
];
const KEYS: [&str; 7] = ["SKU-1", "sku-1", " sku-1 ", "SKU-2", "Sku-2\t", "ß", "SS"];

/// A cell from `pool`, or one of two extras past its end: null, or (for
/// `numeric`) an integer that renders like a key.
fn cell(pool: &[&str], k: usize, numeric: bool) -> Value {
    match pool.get(k) {
        Some(s) => Value::from(*s),
        None if numeric && k == pool.len() => Value::Int(1),
        None => Value::Null,
    }
}

fn table(rows: &[(usize, usize)]) -> Table {
    let rows = rows
        .iter()
        .map(|&(k, n)| vec![cell(&KEYS, k, true), cell(&NAMES, n, false)])
        .collect();
    Table::literal(&["sku", "name"], rows).expect("aligned rows")
}

fn arb_rows() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..KEYS.len() + 2, 0..NAMES.len() + 1), 0..=40)
}

/// The definition: both blockings concatenated, sorted, deduplicated.
fn reference(t: &Table, name_col: &str, key_col: &str) -> Vec<(usize, usize)> {
    let mut out = candidates_blocked(t, name_col).expect("name column");
    if key_col != name_col {
        out.extend(candidates_blocked_exact(t, key_col).expect("key column"));
    }
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn er_candidates_equal_union_of_blockings(rows in arb_rows()) {
        let t = table(&rows);
        let got = er_candidates(&t, "name", "sku").expect("both columns");
        prop_assert_eq!(got, reference(&t, "name", "sku"));
    }

    #[test]
    fn er_candidates_on_one_column_are_sorted_prefix_blocks(rows in arb_rows()) {
        let t = table(&rows);
        for col in ["name", "sku"] {
            let got = er_candidates(&t, col, col).expect("column");
            prop_assert_eq!(got, reference(&t, col, col));
        }
    }

    #[test]
    fn er_candidates_are_strictly_ascending_pairs(rows in arb_rows()) {
        let t = table(&rows);
        let got = er_candidates(&t, "sku", "name").expect("both columns");
        prop_assert!(got.iter().all(|&(i, j)| i < j && j < t.num_rows()));
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
    }
}

#[test]
fn empty_and_single_row_tables_have_no_candidates() {
    for rows in [&[][..], &[(0, 0)][..], &[(KEYS.len() + 1, NAMES.len())][..]] {
        let t = table(rows);
        assert!(er_candidates(&t, "name", "sku").unwrap().is_empty());
        assert!(er_candidates(&t, "name", "name").unwrap().is_empty());
    }
}
