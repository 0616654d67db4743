//! The workloads: fleet set-up and one op each, driven only through the
//! library's public API.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use data_wrangler::core::eval::{score_against_truth, Scores};
use data_wrangler::core::{scratch_dir, CrashPolicy, CrashSite};
use data_wrangler::obs::MetricsReport;
use data_wrangler::prelude::*;
use data_wrangler::sources::SyntheticFleet;
use data_wrangler::table::{wire, TableError};
use wrangler_bench::{default_fleet_config, fleet, session};
use wrangler_ckpt::CRASH_PANIC_PREFIX;

use crate::probe::{self, Sample};
use crate::trace::{count_delta, stage_ms, worker_busy_ms, Clock};

/// Relative price tolerance of the quality score.
const PRICE_TOL: f64 = 0.005;
/// Expert feedback items per round of the feedback probe.
const ITEMS_PER_ROUND: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SourceChurn,
    CrashRecovery,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SourceChurn, Workload::CrashRecovery];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SourceChurn => "source_churn",
            Workload::CrashRecovery => "crash_recovery",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether ops run on a warm session that carries state from op to op.
    fn warm(self) -> bool {
        self == Workload::SourceChurn
    }
}

/// Fleet size and op schedule of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub sources: usize,
    pub products: usize,
    /// Fleets generated per run; ops rotate over them so one run's median
    /// averages over fleets, not one fleet's blocking luck.
    pub fleets: usize,
    /// Ops per episode of a warm workload. Every episode starts from a
    /// clone of the fleet's warmed session and replays the same seeded op
    /// sequence, so its final table is the same every time.
    pub episode: usize,
    /// `source_churn` checks every this-many-th op against a clone re-run
    /// with the incremental engine off.
    pub check_every: usize,
}

impl Scale {
    /// The measured sizes. Fleet counts are what keeps a run's
    /// medians steady across seeds: ER cost follows the fleet's blocking
    /// luck (candidate pairs vary about 3x between fleets of one size), so
    /// every run averages over many fleets. `crash_recovery` uses 40 × 40
    /// fleets so that at least 100 crash-and-resume ops fit in a run; its
    /// fleet count is coprime to the 8 crash sites.
    pub fn full(w: Workload) -> Scale {
        let base = Scale {
            sources: 40,
            products: 100,
            fleets: 1,
            episode: 1,
            check_every: 1,
        };
        match w {
            Workload::SourceChurn => Scale {
                fleets: 8,
                episode: 8,
                check_every: 24,
                ..base
            },
            Workload::CrashRecovery => Scale {
                products: 40,
                fleets: 29,
                ..base
            },
        }
    }

    /// A reduced size for the smoke tests.
    pub fn smoke(w: Workload) -> Scale {
        Scale {
            sources: 6,
            products: 30,
            fleets: if w == Workload::CrashRecovery { 3 } else { 2 },
            episode: if w.warm() { 4 } else { 1 },
            check_every: 2,
        }
    }
}

/// splitmix64: the benchmark's only source of randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn pick(seed: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(mix(seed), |h, &p| mix(h ^ p))
}

/// One generated fleet and its session template.
pub struct FleetSetup {
    pub fleet: SyntheticFleet,
    /// A built, never-wrangled session.
    pub template: Wrangler,
    /// The warm-up pass.
    pub warmed: Warmed,
}

/// A session after the warm-up pass, with what that pass delivered.
pub struct Warmed {
    /// The warmed session itself, kept for workloads that run on it.
    pub session: Option<Wrangler>,
    pub table: Table,
    pub hash: u64,
    /// Counters of the pass: the reference for probes of state that no op
    /// recomputes.
    pub counts: BTreeMap<String, u64>,
}

/// Generate fleet `k` of a run, build its session and run the warm-up pass.
pub fn setup_fleet(w: Workload, seed: u64, k: usize, scale: &Scale) -> Result<FleetSetup, String> {
    let mut cfg = default_fleet_config();
    cfg.num_sources = scale.sources;
    cfg.num_products = scale.products;
    let fleet = fleet(&cfg, pick(seed, &[k as u64]));
    // Completeness-first selects all 40 sources, so an update's freshness
    // bump cannot reshuffle the selection.
    let template = session(&fleet, UserContext::completeness_first());
    let mut session = template.clone();
    let out = session
        .wrangle()
        .map_err(|e| format!("warm-up pass: {e}"))?;
    let warmed = Warmed {
        session: w.warm().then_some(session),
        hash: wire::table_hash(&out.table),
        counts: out.metrics.counts,
        table: out.table,
    };
    Ok(FleetSetup {
        fleet,
        template,
        warmed,
    })
}

/// A warm session part-way through an episode.
struct Episode {
    fleet: usize,
    session: Wrangler,
    table: Table,
    pos: usize,
    /// Counters of the passes that last computed each stage's output: a
    /// pass that replays ER or fuse from a memo counts nothing for it.
    computed: BTreeMap<String, u64>,
}

/// One variant's op stream over the run's fleets.
pub struct OpStream<'a> {
    workload: Workload,
    fleets: &'a [FleetSetup],
    scale: Scale,
    seed: u64,
    obs: ObsMode,
    /// Distinguishes the variants' checkpoint directories.
    tag: &'static str,
    episode: Option<Episode>,
    episodes_done: usize,
    /// Per fleet: hash and quality of the last complete episode's table.
    finals: Vec<Option<(u64, Scores)>>,
    /// Checkpoint bytes written over the run.
    pub disk_bytes: u64,
}

impl<'a> OpStream<'a> {
    pub fn new(
        workload: Workload,
        fleets: &'a [FleetSetup],
        scale: Scale,
        seed: u64,
        obs: ObsMode,
        tag: &'static str,
    ) -> OpStream<'a> {
        OpStream {
            workload,
            fleets,
            scale,
            seed,
            obs,
            tag,
            episode: None,
            episodes_done: 0,
            finals: vec![None; scale.fleets],
            disk_bytes: 0,
        }
    }

    /// Mean quality over the fleets that delivered a final table.
    pub fn quality(&self) -> Option<(f64, f64)> {
        let done: Vec<&Scores> = self.finals.iter().flatten().map(|(_, s)| s).collect();
        if done.is_empty() {
            return None;
        }
        let n = done.len() as f64;
        Some((
            done.iter().map(|s| s.f1).sum::<f64>() / n,
            done.iter().map(|s| s.correct_price_yield).sum::<f64>() / n,
        ))
    }

    /// Forget the current episode (after a failed op the session may be
    /// half-updated).
    pub fn abandon_episode(&mut self) {
        self.episode = None;
    }

    fn fresh(&self, w: &Wrangler) -> Wrangler {
        let mut w = w.clone();
        w.obs.set_mode(self.obs);
        w
    }

    /// Record a delivered final table for fleet `k`; a fleet's final table
    /// must be the same on every episode and op that delivers one.
    fn deliver_final(&mut self, k: usize, table: &Table) -> Result<(), String> {
        let hash = wire::table_hash(table);
        if let Some((prev, _)) = self.finals[k] {
            return if prev == hash {
                Ok(())
            } else {
                Err(format!(
                    "fleet {k}: final table {hash:016x} differs from an earlier one {prev:016x}"
                ))
            };
        }
        let truth = &self.fleets[k].fleet.truth;
        let q = score_against_truth(table, truth, PRICE_TOL).map_err(|e| e.to_string())?;
        self.finals[k] = Some((hash, q));
        Ok(())
    }

    /// Run op `i`. Only the calls made through `clock` are timed. With a
    /// sample, also record the op's layer numbers and run the probes.
    pub fn op(
        &mut self,
        i: usize,
        clock: &mut Clock,
        sample: Option<&mut Sample>,
    ) -> Result<(), String> {
        match self.workload {
            Workload::SourceChurn => self.churn_op(i, clock, sample),
            Workload::CrashRecovery => self.crash_op(i, clock, sample),
        }
    }

    /// Start a new episode if none is running; returns the episode position.
    fn episode(&mut self) -> usize {
        if let Some(ep) = &self.episode {
            return ep.pos;
        }
        let k = self.episodes_done % self.fleets.len();
        let fleets = self.fleets;
        let warm = &fleets[k].warmed;
        self.episode = Some(Episode {
            fleet: k,
            session: self.fresh(
                warm.session
                    .as_ref()
                    .expect("warm workloads keep the warmed session"),
            ),
            table: warm.table.clone(),
            pos: 0,
            computed: warm.counts.clone(),
        });
        0
    }

    /// Advance the episode; at its end, record the final table.
    fn step_episode(&mut self) -> Result<(), String> {
        let Some(ep) = self.episode.as_mut() else {
            return Ok(());
        };
        ep.pos += 1;
        if ep.pos < self.scale.episode {
            return Ok(());
        }
        let ep = self.episode.take().expect("checked above");
        self.episodes_done += 1;
        self.deliver_final(ep.fleet, &ep.table)
    }

    /// `source_churn`: one seeded source re-ships a nudged payload, then
    /// `wrangle()` on the warm session.
    fn churn_op(
        &mut self,
        _i: usize,
        clock: &mut Clock,
        sample: Option<&mut Sample>,
    ) -> Result<(), String> {
        let j = self.episode();
        let ep = self.episode.as_mut().expect("episode started");
        let k = ep.fleet;
        let f = &self.fleets[k];
        let id = SourceId(
            (pick(self.seed, &[k as u64, j as u64, 1]) % f.fleet.registry.len() as u64) as u32,
        );
        let original = &f.fleet.registry.get(id).ok_or("unknown source")?.table;
        let payload = nudged(original, pick(self.seed, &[k as u64, j as u64, 2]), j);
        // Every `check_every`-th op is replayed on a clone with the
        // incremental engine off.
        let check =
            (self.episodes_done * self.scale.episode + j).is_multiple_of(self.scale.check_every);
        let cold = check.then(|| (ep.session.clone(), payload.clone()));
        let before = sample.as_ref().map(|_| ep.session.metrics());

        let w = &mut ep.session;
        let changed = clock
            .call("update_source", || w.update_source(id, payload))
            .map_err(|e| e.to_string())?;
        if !changed {
            return Err(format!("{id}: nudged payload was not a change"));
        }
        let out = clock
            .call("wrangle", || w.wrangle())
            .map_err(|e| e.to_string())?;
        let hash = wire::table_hash(&out.table);
        if let Some((mut c, payload)) = cold {
            c.update_source(id, payload).map_err(|e| e.to_string())?;
            c.set_incr_enabled(false);
            let reference = c.wrangle().map_err(|e| format!("cold clone: {e}"))?;
            let want = wire::table_hash(&reference.table);
            if want != hash {
                return Err(format!(
                    "incremental table {hash:016x} differs from the cold clone's {want:016x}"
                ));
            }
        }
        if let (Some(s), Some(before)) = (sample, before) {
            let after = w.metrics();
            pass_layers(clock, &[("wrangle", &before, &after)], s);
            s.insert(
                "call.update_source_ms".into(),
                clock.call_ms("update_source"),
            );
            ep.computed.extend(count_delta(&before, &after));
            probe::run(w, &ep.computed, s)?;
        }
        ep.table = out.table;
        self.step_episode()
    }

    /// `crash_recovery`: a checkpointed `wrangle()` that panics at a seeded
    /// seam, then a fresh session's `resume()` over the same store.
    fn crash_op(
        &mut self,
        i: usize,
        clock: &mut Clock,
        sample: Option<&mut Sample>,
    ) -> Result<(), String> {
        let sites = CrashSite::all();
        let site = sites[i % sites.len()];
        let dir = scratch_dir(&format!("perfbench-{}-{i}", self.tag));
        let _ = std::fs::remove_dir_all(&dir);
        let result = self.crash_in(i, site, &dir, clock, sample);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    fn crash_in(
        &mut self,
        i: usize,
        site: CrashSite,
        dir: &std::path::Path,
        clock: &mut Clock,
        sample: Option<&mut Sample>,
    ) -> Result<(), String> {
        // The fleet count is coprime to the 8 crash sites, so every fleet
        // meets every site.
        let k = i % self.fleets.len();
        let fleets = self.fleets;
        let f = &fleets[k];
        let store = |d| CheckpointStore::open(d).map_err(|e| format!("open store: {e}"));
        let mut crashing = self
            .fresh(&f.template)
            .with_checkpoint_store(store(dir)?)
            .with_crash_policy(CrashPolicy::panic_at(site));
        let mut resumed = self.fresh(&f.template).with_checkpoint_store(store(dir)?);

        let crash = clock.call("crash_pass", || {
            catch_unwind(AssertUnwindSafe(|| crashing.wrangle()))
        });
        match crash {
            Err(payload) => {
                let msg = data_wrangler::table::par::panic_message(&*payload);
                if !msg.starts_with(CRASH_PANIC_PREFIX) {
                    return Err(format!("{}: crash pass panicked: {msg}", site.name()));
                }
            }
            // A crash inside a contained stage surfaces as a structured
            // error carrying the injected panic's message.
            Ok(Err(TableError::Unavailable(msg))) if msg.contains(CRASH_PANIC_PREFIX) => {}
            Ok(Err(e)) => return Err(format!("{}: crash pass failed: {e}", site.name())),
            Ok(Ok(_)) => return Err(format!("{}: injected crash never fired", site.name())),
        }
        let out = clock
            .call("resume", || resumed.resume())
            .map_err(|e| format!("resume: {e}"))?;
        let hash = wire::table_hash(&out.table);
        let want = f.warmed.hash;
        if hash != want {
            return Err(format!(
                "{}: resumed table {hash:016x} differs from the uninterrupted {want:016x}",
                site.name()
            ));
        }
        let written = [&crashing, &resumed]
            .iter()
            .filter_map(|w| w.checkpoint_store())
            .map(|s| s.stats())
            .fold((0, 0, 0), |(b, h, m), st| {
                (b + st.bytes_written, h + st.hits, m + st.misses)
            });
        self.disk_bytes += written.0;
        self.deliver_final(k, &out.table)?;
        if let Some(s) = sample {
            let empty = MetricsReport::default();
            let (crashed, resumed_m) = (crashing.metrics(), resumed.metrics());
            pass_layers(
                clock,
                &[
                    ("crash_pass", &empty, &crashed),
                    ("resume", &empty, &resumed_m),
                ],
                s,
            );
            s.insert("ckpt.crash_pass_ms".into(), clock.call_ms("crash_pass"));
            s.insert("ckpt.resume_ms".into(), clock.call_ms("resume"));
            s.insert("ckpt.bytes_written".into(), written.0 as f64);
            s.insert("ckpt.hits".into(), written.1 as f64);
            s.insert("ckpt.misses".into(), written.2 as f64);
            let probe_store = store(dir)?;
            s.insert("ckpt.records".into(), probe_store.num_records() as f64);
            s.insert("ckpt.get_ms".into(), get_every_record(&probe_store, dir)?);
            probe::run(&resumed, &f.warmed.counts, s)?;
            feedback_round(&mut resumed, &out.table, &f.fleet, self.seed, k, i, s)?;
        }
        Ok(())
    }
}

/// The feedback layer's probe: five expert value judgements on the
/// resumed session's delivered table, then `rewrangle()`, which must
/// re-fuse the judged slots without re-running the pipeline. Runs after
/// the traced op, outside its timed calls.
fn feedback_round(
    w: &mut Wrangler,
    table: &Table,
    fleet: &SyntheticFleet,
    seed: u64,
    k: usize,
    i: usize,
    s: &mut Sample,
) -> Result<(), String> {
    let items = judge(table, fleet, w.target(), seed, k, i)?;
    let before = w.metrics();
    let t = std::time::Instant::now();
    for item in items {
        w.give_feedback(item);
    }
    s.insert("feedback.give_ms".into(), t.elapsed().as_secs_f64() * 1e3);
    w.rewrangle().map_err(|e| format!("feedback round: {e}"))?;
    let after = w.metrics();
    let stages = stage_ms(&before, &after);
    if stages.contains_key("er") || !stages.contains_key("refuse") {
        return Err("feedback round: rewrangle re-ran the pipeline instead of re-fusing".into());
    }
    s.insert("stage.refuse_ms".into(), stages["refuse"]);
    let counts = count_delta(&before, &after);
    for name in ["feedback.signals", "refuse.slots"] {
        s.insert(name.into(), counts.get(name).copied().unwrap_or(0) as f64);
    }
    Ok(())
}

/// Time `CheckpointStore::get` over every record in the store.
fn get_every_record(store: &CheckpointStore, dir: &std::path::Path) -> Result<f64, String> {
    let mut keys = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "ckpt") {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default();
            keys.push(
                u64::from_str_radix(stem, 16).map_err(|e| format!("record name {stem}: {e}"))?,
            );
        }
    }
    keys.sort_unstable();
    let t = std::time::Instant::now();
    for &key in &keys {
        if store.get(key).is_none() {
            return Err(format!("checkpoint record {key:016x} failed verification"));
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// One pipeline pass run inside an op: the call that ran it and the
/// session's metrics before and after.
type Pass<'m> = (&'static str, &'m MetricsReport, &'m MetricsReport);

/// Record the layer numbers of an op's passes: stage spans (imported under
/// the call that ran each pass), ER worker busy time and counter deltas,
/// summed over the passes.
fn pass_layers(clock: &mut Clock, passes: &[Pass<'_>], s: &mut Sample) {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for &(call, before, after) in passes {
        let stages = stage_ms(before, after);
        for (stage, ms) in &stages {
            *s.entry(format!("stage.{stage}_ms")).or_insert(0.0) += ms;
        }
        clock.import_stages(call, &stages);
        for w in 0..2 {
            *s.entry(format!("er.worker{w}.busy_ms")).or_insert(0.0) +=
                worker_busy_ms(before, after, w);
        }
        for (name, d) in count_delta(before, after) {
            *counts.entry(name).or_insert(0) += d;
        }
    }
    let c = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "select.selected",
        "acquire.attempts",
        "map.generated",
        "plan.nodes",
        "opt.rewrites",
        "scan.bytes",
        "union.rows",
        "er.candidates",
        "er.cache.misses",
        "er.match_pairs",
        "fuse.claims",
        "fuse.slots",
        "incr.union.reused",
        "incr.union.recomputed",
        "incr.er.pairs_remapped",
        "feedback.signals",
        "refuse.slots",
    ] {
        s.insert(name.to_string(), c(name));
    }
    let lookups = c("er.cache.hits") + c("er.cache.misses");
    if lookups > 0.0 {
        s.insert("er.cache.hit_ratio".into(), c("er.cache.hits") / lookups);
    }
    let cached = c("incr.pair_cache.evicted") + c("incr.pair_cache.retained");
    if cached > 0.0 {
        s.insert(
            "incr.pair_cache.retention".into(),
            c("incr.pair_cache.retained") / cached,
        );
    }
}

/// A provider re-ship: the original payload with one seeded numeric cell
/// moved by an amount that depends on the episode position `j`, so every
/// op of an episode ships a payload different from the current one.
/// Sources without a numeric column get a suffix on a text cell instead.
fn nudged(table: &Table, r: u64, j: usize) -> Table {
    let rows = table.num_rows().max(1);
    let row = (r % rows as u64) as usize;
    let mut cols: Vec<Vec<Value>> = (0..table.num_columns())
        .map(|c| table.column(c).map(<[Value]>::to_vec).unwrap_or_default())
        .collect();
    let numeric = cols.iter().position(|c| {
        c.iter()
            .any(|v| matches!(v, Value::Float(_) | Value::Int(_)))
    });
    let bump = (j + 1) as f64 * 0.01;
    let target = numeric.unwrap_or(cols.len() - 1);
    if let Some(cell) = cols[target].get_mut(row) {
        *cell = match cell.clone() {
            Value::Float(v) => Value::Float(v + bump),
            Value::Int(v) => Value::Int(v + j as i64 + 1),
            Value::Str(s) => Value::Str(format!("{s} v{j}")),
            other => Value::Str(format!("{} v{j}", other.render())),
        };
    }
    Table::from_columns(table.schema().clone(), cols).expect("columns keep their shape")
}

/// Expert judgements of delivered prices at seeded rows of `table`, each
/// checked against the fleet's ground truth.
fn judge(
    table: &Table,
    fleet: &SyntheticFleet,
    target: &Schema,
    seed: u64,
    k: usize,
    j: usize,
) -> Result<Vec<FeedbackItem>, String> {
    let price_attr = target.index_of("price").map_err(|e| e.to_string())?;
    let priced: Vec<(usize, String, f64)> = (0..table.num_rows())
        .filter_map(|r| {
            let sku = table.get_named(r, "sku").ok()?.as_str()?.to_string();
            let price = table.get_named(r, "price").ok()?.as_f64()?;
            Some((r, sku, price))
        })
        .collect();
    if priced.is_empty() {
        return Err("no delivered prices to judge".into());
    }
    Ok((0..ITEMS_PER_ROUND)
        .map(|m| {
            let (row, sku, price) = &priced
                [(pick(seed, &[k as u64, j as u64, 3, m as u64]) % priced.len() as u64) as usize];
            let verdict = if fleet.truth.price_is_correct(sku, *price, PRICE_TOL) {
                Verdict::Positive
            } else {
                Verdict::Negative
            };
            FeedbackItem::expert(
                FeedbackTarget::Value {
                    entity: *row,
                    attr: price_attr,
                    value: None,
                },
                verdict,
                1.0,
            )
        })
        .collect())
}
