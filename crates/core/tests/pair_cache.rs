//! The interned, deduplicating ER pair-score cache against two references:
//!
//! * scoring: a pass through the cache returns, per candidate and
//!   bit-for-bit (`f64::to_bits`), what `ErKernel::score_pairs` returns for
//!   every candidate, at any worker width;
//! * retention: a reference model of the string-keyed cache it replaced
//!   (one `len#left right` key per pair, every missed candidate inserted in
//!   order, last write wins) holds the same entries — resolved by content —
//!   after every pass of a random sequence of source updates, evictions and
//!   rule changes. This pins what the incremental engine keeps across an
//!   update (E18's pair-cache retention).
//!
//! Tables are small and heavily duplicated (few distinct cell values), with
//! nulls, NaN/±∞, non-numeric payloads and non-ASCII text.

use std::collections::BTreeMap;

use proptest::prelude::*;
use wrangler_core::working::PairScoreCache;
use wrangler_resolve::{ErConfig, ErKernel, FieldSim, SimKind};
use wrangler_table::{Table, Value};

const NAMES: [&str; 7] = ["acme", "ACME", "Ácme co", "zoë", "naïve café", "a-b.c", ""];
const BRANDS: [&str; 3] = ["x", "X", "ÿ"];
const PRICES: [f64; 8] = [
    1.0,
    2.0,
    0.0,
    -0.0,
    1e300,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// One row from three small cell pools; index past a pool's end means null
/// (or, for the price, a non-numeric payload).
type RowSpec = (usize, usize, usize);

fn row(&(n, b, p): &RowSpec) -> Vec<Value> {
    let name = NAMES
        .get(n)
        .map_or(Value::Null, |s| Value::Str((*s).into()));
    let brand = BRANDS
        .get(b)
        .map_or(Value::Null, |s| Value::Str((*s).into()));
    let price = match PRICES.get(p) {
        Some(&x) => Value::Float(x),
        None if p == PRICES.len() => Value::Str("n/a".into()),
        None => Value::Null,
    };
    vec![name, brand, price]
}

fn arb_row() -> impl Strategy<Value = RowSpec> {
    (0..NAMES.len() + 1, 0..BRANDS.len() + 1, 0..PRICES.len() + 2)
}

fn cfg() -> ErConfig {
    let field = |column: &str, kind| FieldSim {
        column: column.into(),
        weight: 1.0,
        kind,
    };
    ErConfig {
        fields: vec![
            field("name", SimKind::Text),
            field("brand", SimKind::Exact),
            field("price", SimKind::Numeric { scale: 0.5 }),
        ],
        threshold: 0.5,
    }
}

/// The union of per-source row blocks, compiled, plus each row's source.
fn union(sources: &[Vec<RowSpec>]) -> (ErKernel, Vec<usize>) {
    let mut rows = Vec::new();
    let mut srcs = Vec::new();
    for (s, block) in sources.iter().enumerate() {
        rows.extend(block.iter().map(row));
        srcs.extend(std::iter::repeat_n(s, block.len()));
    }
    let table = Table::literal(&["name", "brand", "price"], rows).unwrap();
    (ErKernel::compile(&table, &cfg()).unwrap(), srcs)
}

/// Every ordered pair `i < j`, keeping those the mask selects (the rest
/// stand for candidates the incremental remap answers without the cache).
fn candidates(n: usize, mask: u64) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if mask.rotate_left((i * 7 + j) as u32) & 1 == 1 {
                out.push((i, j));
            }
        }
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|s| s.to_bits()).collect()
}

/// The string-keyed cache this one replaced, as a reference model.
#[derive(Default)]
struct StringCache {
    scores: BTreeMap<String, (f64, u32, u32)>,
}

impl StringCache {
    fn pair_key(a: &str, b: &str) -> String {
        format!("{}#{a}{b}", a.len())
    }

    /// Look every candidate up; score every miss; insert each missed
    /// candidate in order, last write winning.
    fn pass(&mut self, kernel: &ErKernel, pairs: &[(usize, usize)], srcs: &[usize]) -> Vec<f64> {
        let keys = kernel.content_keys();
        let mut out = vec![0.0; pairs.len()];
        let mut missed = Vec::new();
        for (k, &(i, j)) in pairs.iter().enumerate() {
            let key = Self::pair_key(&keys[i], &keys[j]);
            match self.scores.get(&key) {
                Some(&(s, _, _)) => out[k] = s,
                None => missed.push((k, key)),
            }
        }
        let miss_pairs: Vec<(usize, usize)> = missed.iter().map(|&(k, _)| pairs[k]).collect();
        let scores = kernel.score_pairs(&miss_pairs).unwrap();
        for ((k, key), s) in missed.into_iter().zip(scores) {
            let (i, j) = pairs[k];
            out[k] = s;
            self.scores.insert(key, (s, srcs[i] as u32, srcs[j] as u32));
        }
        out
    }

    fn evict(&mut self, dirty: usize) {
        let d = dirty as u32;
        self.scores.retain(|_, &mut (_, a, b)| a != d && b != d);
    }

    fn resolved(&self) -> BTreeMap<String, (u64, u32, u32)> {
        self.scores
            .iter()
            .map(|(k, &(s, a, b))| (k.clone(), (s.to_bits(), a, b)))
            .collect()
    }
}

/// The new cache's entries resolved through its dictionary into the
/// reference model's keys.
fn resolved(cache: &PairScoreCache) -> BTreeMap<String, (u64, u32, u32)> {
    let dict = cache.dictionary();
    cache
        .entries()
        .map(|e| {
            let key = StringCache::pair_key(&dict[e.ids.0 as usize], &dict[e.ids.1 as usize]);
            (key, (e.score.to_bits(), e.sources.0, e.sources.1))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deduped_scoring_equals_the_kernel_at_any_width(
        rows in prop::collection::vec(arb_row(), 2..16),
        mask in any::<u64>(),
        width in 1usize..5,
    ) {
        let (kernel, srcs) = union(&[rows]);
        let pairs = candidates(srcs.len(), mask | 1);
        let want = kernel.score_pairs(&pairs).unwrap();
        let mut cache = PairScoreCache::default();
        let score = |p: &[(usize, usize)]| kernel.score_pairs_parallel_exact(p, width);
        let (got, pass) = cache.score_pass(&kernel, &pairs, &srcs, score).unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(pass.hits, 0);
        prop_assert_eq!(pass.deduped + pass.misses, pairs.len() as u64);
        prop_assert_eq!(pass.workers.iter().map(|w| w.items).sum::<u64>(), pass.misses);
        // Replay answers every candidate without the kernel, identically.
        let (again, pass) = cache.score_pass(&kernel, &pairs, &srcs, score).unwrap();
        prop_assert_eq!(bits(&again), bits(&want));
        prop_assert_eq!((pass.misses, pass.hits + pass.deduped), (0, pairs.len() as u64));
    }

    #[test]
    fn entries_match_the_string_keyed_model_across_updates(
        initial in prop::collection::vec(prop::collection::vec(arb_row(), 1..5), 2..5),
        steps in prop::collection::vec(
            (0usize..8, prop::collection::vec(arb_row(), 1..5), any::<u64>()),
            1..6,
        ),
    ) {
        let mut sources = initial;
        let mut cache = PairScoreCache::default();
        let mut model = StringCache::default();
        let mut mask = u64::MAX;
        for step in 0..=steps.len() {
            let (kernel, srcs) = union(&sources);
            let pairs = candidates(srcs.len(), mask);
            let want = model.pass(&kernel, &pairs, &srcs);
            let (got, _) = cache
                .score_pass(&kernel, &pairs, &srcs, |p| kernel.score_pairs_parallel_exact(p, 2))
                .unwrap();
            prop_assert_eq!(bits(&got), bits(&want), "pass {}", step);
            prop_assert_eq!(resolved(&cache), model.resolved(), "pass {}", step);
            let Some((pick, rows, next_mask)) = steps.get(step) else {
                break;
            };
            // One source re-ships (pick < len), or the ER rule changes.
            if *pick < sources.len() {
                sources[*pick] = rows.clone();
                cache.evict_sources(&[*pick]);
                model.evict(*pick);
            } else if *pick == 7 {
                cache.clear();
                model.scores.clear();
            }
            prop_assert_eq!(resolved(&cache), model.resolved(), "after update {}", step);
            mask = *next_mask | 1;
        }
    }
}
