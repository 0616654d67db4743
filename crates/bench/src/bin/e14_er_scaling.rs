//! E14 — kernel scaling on the measured hot path: ER *and* fuse (§4.3).
//!
//! E13 showed entity resolution dominating the wrangle wall clock with fuse
//! next in line. Claims under test here:
//!
//! 1. The [`ErKernel`] — ER config compiled once against the union schema,
//!    per-row renderings/token sets cached, pairs scored across the
//!    deterministic *blocked* worker pool — beats the uncompiled serial
//!    reference (`match_pairs`, which re-renders both rows for every pair)
//!    by ≥2× on the 40-source workload while producing **byte-identical**
//!    scores and clusters for any worker count. The blocked pool replaced
//!    the original strided pickup (worker *w* took pairs *w, w+workers, …*),
//!    whose cache-hostile interleaving this experiment exposed as *negative*
//!    scaling (8 workers 42% slower than 1 at 40 sources).
//! 2. The [`FuseKernel`] — per-source weights/decays compiled once per pass,
//!    slots fused over the same blocked pool — is bit-identical to the
//!    uncompiled per-slot `fuse_attribute` reference at every worker count.
//! 3. Scaling is non-negative on a 10×-larger fleet (400 sources): with the
//!    pool sized by `effective_workers` (never wider than the machine's
//!    cores, never fewer than `MIN_PAIRS_PER_WORKER`/`MIN_SLOTS_PER_WORKER`
//!    items per thread), `kernel_ms@4 < kernel_ms@1` on multi-core machines,
//!    and on narrower machines the clamp makes the widths coincide instead
//!    of oversubscribing — the flat-to-negative half of the old curve is
//!    structurally gone. The JSON records `cores` so the CI gate
//!    (`scripts/check_e14_scaling.py`) knows which regime it is reading.
//! 4. The content-keyed pair-score cache answers every candidate when a
//!    re-wrangle sees unchanged rows: each distinct content pair hits once
//!    and the candidates sharing it copy its score (`deduped`); the kernel
//!    scores nothing.
//!
//! Protocol: per fleet size, wrangle once to materialise the mapped union
//! and the claim set, rebuild the pipeline's candidate set (name blocking +
//! exact-sku blocking), then time `REPS` runs of (a) serial `match_pairs`,
//! (b) ER kernel compile+score at each worker count, (c) serial
//! `fuse_attribute` over all slots and (d) fuse kernel compile+fuse at each
//! worker count, taking the best of the runs (minimum suppresses scheduler
//! noise on a shared box). Every kernel output is compared bit-for-bit
//! against its serial reference. The cache section forces a structural
//! re-wrangle with unchanged rows and reads the hit/miss counters. Timings
//! are wall-clock; the count half of the metrics report is
//! seeded-deterministic — `--counts` prints only that half and CI
//! double-runs it to assert byte-identical output. A full run writes
//! `BENCH_e14.json`.
//!
//! `lint-allow:` exemptions here follow the experiment-binary convention:
//! drivers may panic on their own fixtures.

use std::time::Instant;

use wrangler_bench::{default_fleet_config, fleet, header, row, session};
use wrangler_context::UserContext;
use wrangler_core::working::Artifact;
use wrangler_core::Wrangler;
use wrangler_fusion::strategies::fuse_attribute;
use wrangler_fusion::{FuseKernel, FusedValue};
use wrangler_resolve::{cluster_pairs, er_candidates, match_pairs, ErConfig, ErKernel, ScoredPair};
use wrangler_sources::FleetConfig;
use wrangler_table::par;

const SEED: u64 = 1401;
/// The last entry is the 10× fleet the scaling gate reads (10, 20, 40
/// sources, then 400 = 10 × the old largest).
const FLEET_SIZES: [usize; 4] = [10, 20, 40, 400];
const WORKERS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;

fn build(num_sources: usize) -> Wrangler {
    let cfg = FleetConfig {
        num_sources,
        ..default_fleet_config()
    };
    let f = fleet(&cfg, SEED);
    session(&f, UserContext::balanced("e14"))
}

/// Best (minimum) wall-clock seconds of `REPS` runs of `f` — the standard
/// noise-resistant estimator on a shared/oversubscribed machine, where the
/// median still absorbs scheduler stalls.
fn best_secs(mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Bit-level equality of two scored-pair lists (indices and score bits).
fn pairs_identical(a: &[ScoredPair], b: &[ScoredPair]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.i == y.i && x.j == y.j && x.score.to_bits() == y.score.to_bits()
        })
}

/// Bit-level equality of two fused-slot lists (values, supporters, and the
/// bits of every reported f64).
fn fused_identical(a: &[Option<FusedValue>], b: &[Option<FusedValue>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.value == y.value
                    && x.supporters == y.supporters
                    && x.weight.to_bits() == y.weight.to_bits()
                    && x.total_weight.to_bits() == y.total_weight.to_bits()
                    && x.freshness.to_bits() == y.freshness.to_bits()
            }
            _ => false,
        })
}

struct FleetResult {
    sources: usize,
    candidates: usize,
    serial_ms: f64,
    kernel_ms: Vec<(usize, f64)>,
    identical: bool,
    no_idle_worker: bool,
    fuse_slots: usize,
    fuse_serial_ms: f64,
    fuse_kernel_ms: Vec<(usize, f64)>,
    fuse_identical: bool,
}

fn measure_fleet(num_sources: usize) -> FleetResult {
    let mut w = build(num_sources);
    w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
    let union = w.union_table().expect("wrangle caches the union"); // lint-allow: experiment fixture
    let cfg: ErConfig = w.er_config().clone();
    // The pipeline's ER candidate set: name blocking plus exact-key
    // blocking, as the wrangle stage builds it.
    let candidates = er_candidates(&union, "name", "sku").expect("union has name and sku columns"); // lint-allow: experiment fixture

    // --- ER: serial reference vs kernel at each worker count ----------------
    // Serial reference: the uncompiled path, column names resolved once but
    // every pair re-rendering both rows.
    let serial =
        match_pairs(&union, &candidates, &cfg).expect("serial scoring succeeds"); // lint-allow: experiment fixture
    let serial_clusters =
        cluster_pairs(union.num_rows(), serial.iter().map(|p| (p.i, p.j)));
    let serial_ms = 1e3
        * best_secs(|| {
            std::hint::black_box(
                match_pairs(&union, &candidates, &cfg).expect("serial scoring succeeds"), // lint-allow: experiment fixture
            );
        });

    let mut kernel_ms = Vec::new();
    let mut identical = true;
    let mut no_idle_worker = true;
    for &workers in &WORKERS {
        // Timed end-to-end: compile + parallel score. Precompilation is part
        // of the kernel's cost, not free setup. The requested width goes
        // through the pool-sizing policy, exactly as the pipeline's does.
        let ms = 1e3
            * best_secs(|| {
                let k = ErKernel::compile(&union, &cfg).expect("schema compiles"); // lint-allow: experiment fixture
                std::hint::black_box(
                    k.match_pairs_parallel(&candidates, workers)
                        .expect("parallel scoring succeeds"), // lint-allow: experiment fixture
                );
            });
        kernel_ms.push((workers, ms));
        let k = ErKernel::compile(&union, &cfg).expect("schema compiles"); // lint-allow: experiment fixture
        let (pairs, stats) = k
            .match_pairs_parallel(&candidates, workers)
            .expect("parallel scoring succeeds"); // lint-allow: experiment fixture
        let clusters = cluster_pairs(union.num_rows(), pairs.iter().map(|p| (p.i, p.j)));
        identical &= pairs_identical(&serial, &pairs) && clusters == serial_clusters;
        // The sizing policy decides the spawned width; whatever it picks,
        // the items must cover every candidate with no idle worker.
        no_idle_worker &= stats.iter().map(|s| s.items).sum::<u64>() == candidates.len() as u64
            && !stats.is_empty()
            && stats.iter().all(|s| s.items > 0);
    }

    // --- Fuse: serial fuse_attribute vs FuseKernel at each worker count -----
    let (claims, ctx, strategy) = w.fusion_inputs().expect("wrangle caches the claim set"); // lint-allow: experiment fixture
    let slots = claims.slots();
    let fuse_serial: Vec<Option<FusedValue>> = slots
        .iter()
        .map(|&(e, a)| fuse_attribute(claims, e, a, strategy, ctx))
        .collect();
    let fuse_serial_ms = 1e3
        * best_secs(|| {
            std::hint::black_box(
                slots
                    .iter()
                    .map(|&(e, a)| fuse_attribute(claims, e, a, strategy, ctx))
                    .collect::<Vec<Option<FusedValue>>>(),
            );
        });
    let mut fuse_kernel_ms = Vec::new();
    let mut fuse_ident = true;
    for &workers in &WORKERS {
        let ms = 1e3
            * best_secs(|| {
                let k = FuseKernel::compile(claims, strategy, ctx);
                std::hint::black_box(
                    k.fuse_slots_parallel(&slots, workers)
                        .expect("parallel fusion succeeds"), // lint-allow: experiment fixture
                );
            });
        fuse_kernel_ms.push((workers, ms));
        let k = FuseKernel::compile(claims, strategy, ctx);
        let (fused, stats) = k
            .fuse_slots_parallel(&slots, workers)
            .expect("parallel fusion succeeds"); // lint-allow: experiment fixture
        fuse_ident &= fused_identical(&fuse_serial, &fused)
            && stats.iter().map(|s| s.items).sum::<u64>() == slots.len() as u64;
    }

    FleetResult {
        sources: num_sources,
        candidates: candidates.len(),
        serial_ms,
        kernel_ms,
        identical,
        no_idle_worker,
        fuse_slots: slots.len(),
        fuse_serial_ms,
        fuse_kernel_ms,
        fuse_identical: fuse_ident,
    }
}

/// Cache replay: wrangle, force the structural path with unchanged rows,
/// and report (hits, deduped, misses, candidates) of the second pass.
fn cache_replay(num_sources: usize) -> (u64, u64, u64, u64) {
    let mut w = build(num_sources).with_er_workers(4);
    w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
    let first = w.metrics();
    w.working.invalidate(Artifact::Clusters);
    w.rewrangle().expect("structural rewrangle"); // lint-allow: experiment fixture
    let second = w.metrics();
    let get = |m: &wrangler_core::MetricsReport, k: &str| m.counts.get(k).copied().unwrap_or(0);
    let per_pass = get(&first, "er.candidates");
    (
        get(&second, "er.cache.hits") - get(&first, "er.cache.hits"),
        get(&second, "er.cache.deduped") - get(&first, "er.cache.deduped"),
        get(&second, "er.cache.misses") - get(&first, "er.cache.misses"),
        per_pass,
    )
}

fn ms_at(kernel_ms: &[(usize, f64)], w: usize) -> f64 {
    kernel_ms
        .iter()
        .find(|&&(k, _)| k == w)
        .map_or(f64::NAN, |&(_, ms)| ms)
}

fn main() {
    let counts_only = std::env::args().any(|a| a == "--counts");
    if counts_only {
        // Deterministic half only: counts and gauges of the largest workload
        // with fixed worker counts, byte-identical across runs. Pinned
        // counts matter: per-worker counters depend on the requested pool
        // size (the sizing policy then resolves it identically every run on
        // a given machine).
        let mut w = build(*FLEET_SIZES.last().expect("const non-empty")) // lint-allow: const fixture
            .with_er_workers(4)
            .with_fuse_workers(4);
        w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
        print!("{}", w.metrics().render_counts());
        return;
    }

    let cores = par::available_parallelism();
    println!("E14: precompiled kernels (ER + fuse) vs serial references (200 products)");
    println!("(serial = uncompiled match_pairs re-rendering rows per pair; kernel@w =");
    println!(" compile + blocked-pool scoring with w requested workers, width resolved");
    println!(" by the sizing policy — this machine has {cores} core(s); best of {REPS} runs;");
    println!(" identical = pairs, score bits and clusters equal serial at every w)\n");

    let widths = [7, 10, 9, 9, 9, 9, 9, 9, 10];
    println!(
        "{}",
        header(
            &[
                "sources", "cands", "serial", "k@1", "k@2", "k@4", "k@8", "speedup4",
                "identical"
            ],
            &widths
        )
    );

    let mut results = Vec::new();
    for &n in &FLEET_SIZES {
        let r = measure_fleet(n);
        let speedup4 = r.serial_ms / ms_at(&r.kernel_ms, 4);
        let cells = vec![
            r.sources.to_string(),
            r.candidates.to_string(),
            format!("{:.1}", r.serial_ms),
            format!("{:.1}", ms_at(&r.kernel_ms, 1)),
            format!("{:.1}", ms_at(&r.kernel_ms, 2)),
            format!("{:.1}", ms_at(&r.kernel_ms, 4)),
            format!("{:.1}", ms_at(&r.kernel_ms, 8)),
            format!("{:.2}x", speedup4),
            if r.identical { "yes" } else { "NO" }.to_string(),
        ];
        println!("{}", row(&cells, &widths));
        results.push(r);
    }

    println!("\nfuse kernel (same fleets; serial = per-slot fuse_attribute):");
    let fwidths = [7, 8, 9, 9, 9, 9, 9, 9, 10];
    println!(
        "{}",
        header(
            &[
                "sources", "slots", "serial", "f@1", "f@2", "f@4", "f@8", "speedup4",
                "identical"
            ],
            &fwidths
        )
    );
    for r in &results {
        let speedup4 = r.fuse_serial_ms / ms_at(&r.fuse_kernel_ms, 4);
        let cells = vec![
            r.sources.to_string(),
            r.fuse_slots.to_string(),
            format!("{:.2}", r.fuse_serial_ms),
            format!("{:.2}", ms_at(&r.fuse_kernel_ms, 1)),
            format!("{:.2}", ms_at(&r.fuse_kernel_ms, 2)),
            format!("{:.2}", ms_at(&r.fuse_kernel_ms, 4)),
            format!("{:.2}", ms_at(&r.fuse_kernel_ms, 8)),
            format!("{:.2}x", speedup4),
            if r.fuse_identical { "yes" } else { "NO" }.to_string(),
        ];
        println!("{}", row(&cells, &fwidths));
    }

    // --- Cache replay on the largest workload -------------------------------
    let big = *FLEET_SIZES.last().expect("const non-empty"); // lint-allow: const fixture
    let (hits, deduped, misses, per_pass) = cache_replay(big);
    let hit_rate = if per_pass == 0 {
        0.0
    } else {
        (hits + deduped) as f64 / per_pass as f64
    };
    println!(
        "\npair-score cache replay at {big} sources (structural rewrangle, rows unchanged):\n  \
         candidates/pass = {per_pass}, second-pass hits = {hits}, deduped = {deduped}, \
         misses = {misses}, answered from cache = {:.1}%",
        100.0 * hit_rate
    );

    // --- Verdicts ------------------------------------------------------------
    let last = results.last().expect("const non-empty fleet list"); // lint-allow: const fixture
    let speedup4 = last.serial_ms / ms_at(&last.kernel_ms, 4);
    let scaling4 = ms_at(&last.kernel_ms, 1) / ms_at(&last.kernel_ms, 4);
    let verdict_speed = speedup4 >= 2.0;
    // On a machine with ≥4 cores the blocked pool must actually win at 4
    // workers; on narrower machines the sizing policy clamps the widths
    // together and the comparison is two measurements of the same
    // configuration (the gate script applies a noise tolerance there).
    let verdict_scaling = ms_at(&last.kernel_ms, 4) < ms_at(&last.kernel_ms, 1);
    let verdict_identical = results.iter().all(|r| r.identical);
    let verdict_fuse_identical = results.iter().all(|r| r.fuse_identical);
    let verdict_workers = results.iter().all(|r| r.no_idle_worker);
    let verdict_cache = misses == 0 && hits + deduped == per_pass && per_pass > 0;
    println!(
        "verdict: kernel@4 {} the 2x floor at {big} sources ({speedup4:.2}x); \
         k@1/k@4 = {scaling4:.2}x ({}); ER outputs {}; fuse outputs {}; \
         worker items {} candidates; cache replay {}",
        if verdict_speed { "clears" } else { "MISSES" },
        if verdict_scaling {
            "positive scaling"
        } else {
            "NOT positive"
        },
        if verdict_identical {
            "byte-identical to serial"
        } else {
            "DIVERGE"
        },
        if verdict_fuse_identical {
            "byte-identical"
        } else {
            "DIVERGE"
        },
        if verdict_workers { "cover" } else { "DROP" },
        if verdict_cache { "100% from cache" } else { "INCOMPLETE" },
    );

    // --- Machine-readable results -------------------------------------------
    let fleets_json: Vec<String> = results
        .iter()
        .map(|r| {
            let kernels = r
                .kernel_ms
                .iter()
                .map(|(w, ms)| format!("\"{w}\":{:.4}", ms))
                .collect::<Vec<_>>()
                .join(",");
            let fuse_kernels = r
                .fuse_kernel_ms
                .iter()
                .map(|(w, ms)| format!("\"{w}\":{:.4}", ms))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"sources\":{},\"candidates\":{},\"serial_ms\":{:.4},\
                 \"kernel_ms\":{{{kernels}}},\"identical\":{},\
                 \"fuse_slots\":{},\"fuse_serial_ms\":{:.4},\
                 \"fuse_kernel_ms\":{{{fuse_kernels}}},\"fuse_identical\":{}}}",
                r.sources,
                r.candidates,
                r.serial_ms,
                r.identical,
                r.fuse_slots,
                r.fuse_serial_ms,
                r.fuse_identical
            )
        })
        .collect();
    let json = format!(
        "{{\"experiment\":\"e14_er_scaling\",\"seed\":{SEED},\"cores\":{cores},\
         \"speedup_at_4_workers\":{speedup4:.4},\
         \"cache\":{{\"hits\":{hits},\"deduped\":{deduped},\"misses\":{misses},\"candidates_per_pass\":{per_pass}}},\
         \"fleets\":[{}]}}\n",
        fleets_json.join(",")
    );
    wrangler_bench::write_artifact("BENCH_e14.json", &json);

    println!("\nShape expected: the kernels win big even at 1 worker (precompilation —");
    println!("per-row renderings and per-source weights cached once instead of per item);");
    println!("extra workers help exactly when cores exist — the sizing policy refuses");
    println!("oversubscription — and never change a bit of output. The cache turns an");
    println!("unchanged-rows re-wrangle into pure lookup.");
}
