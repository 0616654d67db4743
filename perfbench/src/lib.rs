//! End-to-end and per-layer benchmark of the wrangler pipeline.
//!
//! Each run is one process with one closed-loop client: the next op starts
//! when the previous one returns. The benchmark generates its fleets from
//! the seed it is given; the library receives only generated tables,
//! updates and feedback items, through its public API, with the session's
//! shipped defaults (`ObsMode::On`, pools sized to the machine).
//!
//! Workloads, and why each was chosen:
//!
//! - `source_churn`: 40 sources × 100 products, completeness-first user
//!   (all 40 selected, so selection is stable), warm session; op =
//!   `update_source(seeded source, nudged payload)` + `wrangle()`. Driven by
//!   the incremental engine: union block memos, ER index remap and
//!   partition-scoped pair-cache eviction.
//! - `crash_recovery`: 40 × 40 completeness-first with a checkpoint store;
//!   op = a checkpointed `wrangle()` that panics at crash site `i mod 8`,
//!   then a fresh session's `resume()` over the same store. The only
//!   workload that writes and reads checkpoints. Every op runs the Figure 1
//!   pipeline from fresh sessions, so it is also the control on which
//!   incremental reuse and pair-cache replay are bypassed.
//!
//! Two more workloads were measured and left out because their latency
//! spread between runs reached the bound on a shared 2-vCPU host:
//!
//! - a fresh 40 × 200 `wrangle()` per op. `crash_recovery` covers the same
//!   layers.
//! - a feedback loop: 5 expert value judgements + `rewrangle()` per op on
//!   a warm 40 × 200 session. Its ops are 1.5 to 3 ms of single-threaded
//!   work, and each vCPU of a shared host runs up to 1.6x slower for
//!   seconds at a time, with no correlation between the two vCPUs (both
//!   measured). Multi-threaded ops average the two; a single-threaded op
//!   takes the full swing, so the median, p90 and mean of a 30 s run each
//!   spread 0.2 to 0.34 (quartile distance over median) across ten runs.
//!   A round of the same loop runs as a layer probe after every traced
//!   `crash_recovery` op (see the table below), so the feedback layer is
//!   still measured, but no end-to-end number follows it.
//!
//! Which end-to-end number each layer metric should move:
//!
//! | layer | metrics | moves |
//! |---|---|---|
//! | sources + acquire | `stage.select_ms`, `stage.acquire_ms`, `select.selected`, `acquire.attempts` | `op_ms_p50` on `crash_recovery` |
//! | matching + mapping | `stage.map_generate_ms`, `map.generated` | `op_ms_p50` on `crash_recovery` |
//! | plan + lint + lower | `stage.plan_ms`, `stage.preflight_ms`, `plan.nodes`, `opt.rewrites` | `op_ms_p50` on `crash_recovery`, `source_churn` |
//! | table | `stage.map_apply_ms`, `stage.union_ms`, `scan.bytes`, `union.rows` | `op_ms_p50` on `crash_recovery` |
//! | resolve | `stage.er_ms`, `resolve.*_ms`, `er.*` | `op_ms_p50`/`op_ms_p90` on `crash_recovery`; `op_ms_p50` on `source_churn` by pairs rescored; nothing on the feedback probe |
//! | fusion | `stage.fuse_ms`, `fusion.truthfinder_ms`, `fusion.kernel_ms`, `fuse.claims`, `fuse.slots` | `op_ms_p50` on `crash_recovery`, `source_churn` |
//! | incremental engine | `stage.er_replay_ms`, `stage.fuse_replay_ms`, `incr.*`, `call.update_source_ms` | `op_ms_p50` on `source_churn` only; nothing on `crash_recovery` |
//! | feedback + re-fuse | `feedback.give_ms`, `stage.refuse_ms`, `feedback.signals`, `refuse.slots`: one round of 5 judgements + `rewrangle()` on the resumed session after each traced `crash_recovery` op | no end-to-end metric (see above); `stage.assemble_ms` is the assembly of every pass |
//! | checkpoints | `ckpt.*` | `op_ms_p50`, `peak_rss_mb` on `crash_recovery` only |
//! | benchmark memory | `mem.setup_rss_mb` | `peak_rss_mb` on every workload: the part of it the run's retained fleets hold |
//! | telemetry | `obs.overhead_frac`, `obs.overhead_frac_iqr`, `trace.*`, `stage.coverage`, `stage.unattributed_ms` | `op_ms_p50` on every workload |
//!
//! Every run rotates its ops over several seeded fleets (see
//! [`Scale::full`]); warm workloads run in episodes that restart from the
//! fleet's warmed session and replay the same seeded ops, so the final table
//! of every episode, and with it `f1` and `price_yield`, is the same on every
//! run with the same seed. Output checks run outside the timed region:
//! every episode on a fleet ends with the same table, sampled
//! `source_churn` ops equal a clone re-run with the incremental engine off,
//! and every resumed table equals the uninterrupted one. A failed check,
//! an error or a panic fails the op.
//!
//! A traced run (`--trace 1`) interleaves three variants op by op: shipped
//! defaults, the same with `ObsMode::Off`, and shipped defaults with the
//! benchmark's spans and layer probes. Only the third reports layer numbers.
//! `obs.overhead_frac` is the median per-round latency ratio of the first
//! two minus one, `obs.overhead_frac_iqr` the spread of that ratio over five
//! blocks of rounds, and `trace.overhead_frac` the same ratio for the third
//! against the first. `trace.coverage` is the share of each op span its call
//! spans cover, where the op span starts when the client begins building
//! the op's inputs, so the rest is the benchmark's own work between calls;
//! `stage.coverage` is the share of the pipeline calls the program's own
//! stage spans cover, and `stage.unattributed_ms` the rest.
//!
//! `peak_rss_mb` is the process's high-water mark, and it includes the
//! fleets and warmed sessions a run keeps for its whole length. Every run
//! also prints `setup_rss_mb`, the resident set right after set-up, which
//! is that retained pool; the traced run reports it as `mem.setup_rss_mb`,
//! so the ops' own transient memory is the difference between the two.

mod probe;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use data_wrangler::obs::ObsMode;
use data_wrangler::table::par;

use probe::Sample;
use trace::{Clock, Span};
use workloads::{mix, setup_fleet, OpStream};
pub use workloads::{Scale, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("f1", "frac"),
    ("price_yield", "frac"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Each is the median over
/// the traced ops that report it, and 0 on a workload that never runs the
/// layer.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("stage.select_ms", "ms"),
    ("stage.acquire_ms", "ms"),
    ("select.selected", "count"),
    ("acquire.attempts", "count"),
    ("stage.map_generate_ms", "ms"),
    ("map.generated", "count"),
    ("stage.plan_ms", "ms"),
    ("stage.preflight_ms", "ms"),
    ("plan.nodes", "count"),
    ("opt.rewrites", "count"),
    ("stage.map_apply_ms", "ms"),
    ("stage.union_ms", "ms"),
    ("scan.bytes", "bytes"),
    ("union.rows", "count"),
    ("stage.er_ms", "ms"),
    ("resolve.candidates_ms", "ms"),
    ("resolve.compile_ms", "ms"),
    ("resolve.score_ms", "ms"),
    ("resolve.cluster_ms", "ms"),
    ("er.candidates", "count"),
    ("er.cache.misses", "count"),
    ("er.cache.hit_ratio", "frac"),
    ("er.match_pairs", "count"),
    ("er.worker0.busy_ms", "ms"),
    ("er.worker1.busy_ms", "ms"),
    ("stage.fuse_ms", "ms"),
    ("fusion.truthfinder_ms", "ms"),
    ("fusion.kernel_ms", "ms"),
    ("fuse.claims", "count"),
    ("fuse.slots", "count"),
    ("stage.er_replay_ms", "ms"),
    ("stage.fuse_replay_ms", "ms"),
    ("incr.union.reused", "count"),
    ("incr.union.recomputed", "count"),
    ("incr.er.pairs_remapped", "count"),
    ("incr.pair_cache.retention", "frac"),
    ("call.update_source_ms", "ms"),
    ("feedback.give_ms", "ms"),
    ("stage.refuse_ms", "ms"),
    ("stage.assemble_ms", "ms"),
    ("feedback.signals", "count"),
    ("refuse.slots", "count"),
    ("ckpt.crash_pass_ms", "ms"),
    ("ckpt.resume_ms", "ms"),
    ("ckpt.get_ms", "ms"),
    ("ckpt.bytes_written", "bytes"),
    ("ckpt.records", "count"),
    ("ckpt.hits", "count"),
    ("ckpt.misses", "count"),
    ("obs.overhead_frac", "frac"),
    ("obs.overhead_frac_iqr", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
    ("stage.coverage", "frac"),
    ("stage.unattributed_ms", "ms"),
    ("mem.setup_rss_mb", "MB"),
];

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start ops until this much wall time has passed since set-up ended.
    Seconds(f64),
    /// Run exactly this many op rounds (the smoke tests).
    Ops(usize),
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub scale: Scale,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub attempted: usize,
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Op latencies of the shipped-defaults variant that completed.
    pub samples: usize,
    pub wall_s: f64,
    /// Checkpoint bytes written per op (shipped-defaults variant).
    pub disk_mb_per_op: f64,
    /// Resident set right after set-up: the fleets and sessions the run
    /// keeps.
    pub setup_rss_mb: f64,
    /// The metrics the run reports, in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Deterministic counts: identical on every run with the same seed and
    /// [`Budget::Ops`].
    pub counts: Vec<(String, String)>,
    /// Where a traced run wrote its spans, and how many.
    pub trace_file: Option<(std::path::PathBuf, usize)>,
}

impl Report {
    /// The seed to hold back for checking a claimed gain: never used while
    /// tuning a change on `seed`.
    pub fn holdout_seed(&self) -> u64 {
        mix(self.seed ^ 0x5EED) % 1_000_000
    }

    /// The human-readable lines, then the result JSON as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let ops_per_run = self.samples;
        out.push_str(&format!(
            "workload {} seed {} holdout_seed {} nproc {} fleets {} x {} sources x {} products\n",
            self.workload.name(),
            self.seed,
            self.holdout_seed(),
            par::available_parallelism(),
            self.scale.fleets,
            self.scale.sources,
            self.scale.products,
        ));
        out.push_str(&format!(
            "ops {ops_per_run} (latency samples) attempted {} failed {} wall_s {:.3}\n",
            self.attempted, self.failed, self.wall_s
        ));
        out.push_str(&format!(
            "info failed_frac {:.6} frac\ninfo disk_mb_per_op {:.6} MB\ninfo setup_rss_mb {:.3} MB\n",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.disk_mb_per_op,
            self.setup_rss_mb
        ));
        if let Some((path, n)) = &self.trace_file {
            out.push_str(&format!("trace {n} spans written to {}\n", path.display()));
        }
        for msg in &self.failures {
            out.push_str(&format!("failure {msg}\n"));
        }
        for (name, value) in &self.counts {
            out.push_str(&format!("count {name} {value}\n"));
        }
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("metric {name} {value} {unit}\n"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Linear-interpolated quantile of unsorted values (`q` in 0..=1).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A memory figure of this process from `/proc/self/status` (`VmHWM` is
/// the peak resident set, `VmRSS` the current one), in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Silence the panics the crash harness injects; report every other one.
fn install_crash_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = par::panic_message(info.payload());
            if !msg.starts_with(wrangler_ckpt::CRASH_PANIC_PREFIX) {
                prev(info);
            }
        }));
    });
}

/// One way of running the workload's ops.
struct Variant {
    obs: ObsMode,
    traced: bool,
    tag: &'static str,
}

/// Run one workload and measure it.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    install_crash_hook();
    let scale = cfg.scale;

    let mut setup_s = Vec::new();
    let mut fleets = Vec::new();
    for k in 0..scale.fleets {
        let t = Instant::now();
        fleets.push(setup_fleet(cfg.workload, cfg.seed, k, &scale)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup_rss_mb = status_mb("VmRSS");

    let on = Variant {
        obs: ObsMode::On,
        traced: false,
        tag: "on",
    };
    let variants = if cfg.trace {
        vec![
            on,
            Variant {
                obs: ObsMode::Off,
                traced: false,
                tag: "off",
            },
            Variant {
                obs: ObsMode::On,
                traced: true,
                tag: "traced",
            },
        ]
    } else {
        vec![on]
    };
    let mut streams: Vec<OpStream> = variants
        .iter()
        .map(|v| OpStream::new(cfg.workload, &fleets, scale, cfg.seed, v.obs, v.tag))
        .collect();
    let mut latencies: Vec<Vec<(usize, f64)>> = vec![Vec::new(); variants.len()];
    let mut samples: Vec<Sample> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut attempted = 0;
    let mut failures: Vec<String> = Vec::new();

    let epoch = Instant::now();
    let mut i = 0;
    loop {
        let done = match cfg.budget {
            Budget::Seconds(s) => epoch.elapsed().as_secs_f64() >= s,
            Budget::Ops(n) => i >= n,
        };
        if done {
            break;
        }
        // Rotate which variant goes first so none always runs on the
        // caches another one warmed.
        for r in 0..variants.len() {
            let v = (i + r) % variants.len();
            let mut clock = Clock::new(epoch, variants[v].traced, i);
            let mut sample = Sample::new();
            let traced = variants[v].traced;
            let stream = &mut streams[v];
            let result = catch_unwind(AssertUnwindSafe(|| {
                stream.op(i, &mut clock, traced.then_some(&mut sample))
            }))
            .unwrap_or_else(|p| Err(format!("panic: {}", par::panic_message(&*p))));
            attempted += 1;
            match result {
                Ok(()) => {
                    latencies[v].push((i, clock.timed().as_secs_f64() * 1e3));
                    if traced {
                        let (self_ms, stage_cov) = clock.pass_self_time();
                        sample.insert("trace.coverage".into(), clock.coverage());
                        sample.insert("stage.unattributed_ms".into(), self_ms);
                        sample.insert("stage.coverage".into(), stage_cov);
                        samples.push(sample);
                    }
                }
                Err(msg) => {
                    streams[v].abandon_episode();
                    failures.push(format!("op {i} ({}): {msg}", variants[v].tag));
                }
            }
            clock.finish(&mut spans);
        }
        i += 1;
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let trace_file = if cfg.trace {
        let path = trace_path(cfg);
        trace::write_spans(&path, &spans)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        Some((path, spans.len()))
    } else {
        None
    };

    let primary = &streams[0];
    let lat: Vec<f64> = latencies[0].iter().map(|&(_, ms)| ms).collect();
    let failed = failures.len();
    let (f1, price_yield) = primary.quality().unwrap_or((0.0, 0.0));
    let mut counts = vec![
        ("attempted".to_string(), attempted.to_string()),
        ("failed".to_string(), failed.to_string()),
        ("f1".to_string(), format!("{f1:.6}")),
        ("price_yield".to_string(), format!("{price_yield:.6}")),
    ];
    let metrics = if cfg.trace {
        let mut m: Vec<(&'static str, f64, &'static str)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let vals: Vec<f64> = samples
                    .iter()
                    .filter_map(|s| s.get(name).copied())
                    .collect();
                (name, quantile(&vals, 0.5), unit)
            })
            .collect();
        // Variants run the same op in the same round, so their latencies
        // pair up round by round and fleet-to-fleet variation cancels.
        let obs = paired_ratios(&latencies[0], &latencies[1]);
        let traced = paired_ratios(&latencies[2], &latencies[0]);
        let obs_blocks: Vec<f64> = obs
            .chunks(obs.len().div_ceil(5).max(1))
            .map(|c| quantile(c, 0.5) - 1.0)
            .collect();
        let set = |m: &mut Vec<(&'static str, f64, &'static str)>, name: &str, v: f64| {
            if let Some(e) = m.iter_mut().find(|e| e.0 == name) {
                e.1 = v;
            }
        };
        set(&mut m, "obs.overhead_frac", quantile(&obs, 0.5) - 1.0);
        set(
            &mut m,
            "obs.overhead_frac_iqr",
            quantile(&obs_blocks, 0.75) - quantile(&obs_blocks, 0.25),
        );
        set(&mut m, "trace.overhead_frac", quantile(&traced, 0.5) - 1.0);
        set(&mut m, "mem.setup_rss_mb", setup_rss_mb);
        for (name, v, unit) in &m {
            if *unit != "ms"
                && !name.starts_with("obs.")
                && !name.starts_with("trace.")
                && !name.starts_with("mem.")
                && *name != "stage.coverage"
            {
                counts.push((name.to_string(), format!("{v:.6}")));
            }
        }
        m
    } else {
        let timed_s: f64 = lat.iter().sum::<f64>() / 1e3;
        vec![
            ("setup_s", quantile(&setup_s, 0.5), "s"),
            ("op_ms_p50", quantile(&lat, 0.5), "ms"),
            ("op_ms_p90", quantile(&lat, 0.9), "ms"),
            ("ops_per_s", lat.len() as f64 / timed_s.max(1e-9), "1/s"),
            ("f1", f1, "frac"),
            ("price_yield", price_yield, "frac"),
            (
                "ok_frac",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "frac",
            ),
            ("peak_rss_mb", status_mb("VmHWM"), "MB"),
        ]
    };
    failures.truncate(10);
    Ok(Report {
        workload: cfg.workload,
        seed: cfg.seed,
        scale,
        attempted,
        failed,
        failures,
        samples: lat.len(),
        wall_s,
        disk_mb_per_op: primary.disk_bytes as f64 / 1e6 / lat.len().max(1) as f64,
        setup_rss_mb,
        metrics,
        counts,
        trace_file,
    })
}

/// Latency ratios `a / b` of the rounds both variants completed, in round
/// order.
fn paired_ratios(a: &[(usize, f64)], b: &[(usize, f64)]) -> Vec<f64> {
    let b: std::collections::BTreeMap<usize, f64> = b.iter().copied().collect();
    a.iter()
        .filter_map(|&(i, x)| b.get(&i).map(|&y| x / y))
        .collect()
}

/// Where a traced run writes its spans.
fn trace_path(cfg: &RunConfig) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed))
}
