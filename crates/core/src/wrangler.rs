//! The end-to-end wrangling session.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap}; // hash-ok: HashMap here is lookup-only (slot/feedback state); nothing iterates it into output

use wrangler_context::{Criterion, DataContext, QualityVector, UserContext};
use wrangler_feedback::router::ValueProvenance;
use wrangler_feedback::{
    route, FeedbackItem, FeedbackStore, FeedbackTarget, RoutedSignal, RoutingMode,
};
use wrangler_fusion::strategies::{fuse_attribute, FusedValue, SourceContext};
use wrangler_fusion::truthfinder::{truthfinder, TruthFinderConfig};
use wrangler_fusion::{ClaimSet, FuseKernel, MIN_SLOTS_PER_WORKER};
use wrangler_lint::{GateMode, Report as LintReport};
use wrangler_mapping::{generate_mapping, generate_mapping_with_profiles, Mapping};
use wrangler_match::{profile_table, MatchConfig};
use wrangler_obs::{MetricsReport, ObsMode, Telemetry};
use wrangler_quality::profile::{quality_vector, ExternalSignals, TableProfile};
use wrangler_resolve::learn::{refine_rule, LabeledPair};
use wrangler_resolve::{cluster_pairs, ErConfig, ErKernel, FieldSim, SimKind};
use wrangler_sources::faults::{Degradation, FaultConfig, FaultProfile};
use wrangler_sources::{
    select_greedy_utility, select_marginal_gain, Source, SourceEstimate, SourceId, SourceMeta,
    SourceRegistry,
};
use wrangler_plan::{FilterPlacement, OptMode, PlanProgram};
use wrangler_table::par;
use wrangler_table::{ops, DataType, Expr, Schema, Table, TableError, Value};
use wrangler_uncertainty::{Belief, Evidence, EvidenceKind};

use wrangler_ckpt::{CheckpointStore, ContentKey, CrashPolicy, CrashSite};
use wrangler_table::wire;

use crate::acquire::{Acquisition, AcquisitionSummary};
use crate::ckpt_io::{self, SessionState};
use crate::incr::{self, BlockMemo, ErMemo, FuseMemo, IncrEngine};
use crate::contain::{
    catch_quiet, poison_reason, ContainMode, ContainPolicy, ContainmentReport, Guarded, Stage,
    StageGuard,
};
use crate::lower::{self, LowerInput};
use crate::planner::{Plan, SelectionStrategy};
use crate::working::{Artifact, WorkingData};

/// Per-source wrangling state in the Working Data.
#[derive(Debug, Clone)]
struct SourceState {
    /// Feedback-updated trust in the source.
    trust: Belief,
    /// The current mapping, if generated.
    mapping: Option<Mapping>,
    /// The mapped (target-schema) table, if computed.
    mapped: Option<Table>,
    /// Which filter placement (and predicate) `mapped` was computed under:
    /// `None` for a plain mapping run, `Some("acquire|…")` /
    /// `Some("post-map|…")` when an early-placed filter already ran. A cached
    /// table is reusable only when the tag matches the current program's
    /// decision.
    filter_tag: Option<String>,
    /// Relevance to the data context in \[0, 1\].
    relevance: f64,
}

/// Caches from the last full wrangle, the substrate of incremental
/// recomputation.
#[derive(Debug, Clone)]
struct WrangleCache {
    /// Union rows: (source index, values aligned to the target schema).
    union: Vec<(usize, Vec<Value>)>,
    /// Entity id per union row.
    row_entity: Vec<usize>,
    /// Number of entities.
    entities: usize,
    /// The claim set.
    claims: ClaimSet,
    /// Source trust/age context used at fusion time.
    source_ctx: SourceContext,
    /// Fused slots.
    fused: HashMap<(usize, usize), FusedValue>, // hash-ok: keyed by slot, read via get()
    /// Selected sources.
    selected: Vec<SourceId>,
}

/// Output of the ER section of a wrangle (see [`Wrangler::er_stage`]).
struct ErStageOutcome {
    clusters: Vec<Vec<usize>>,
    row_entity: Vec<usize>,
}

/// Incremental-engine context threaded into [`Wrangler::er_stage`]: the
/// union's block layout and row→source map (pair-cache eviction grain),
/// the stage content key, and whether memo store / index remap are licensed
/// for this pass.
struct ErIncrCtx<'a> {
    /// `(source, block key, rows)` per union block; empty disables remap
    /// and layout-carrying memo storage.
    layout: &'a [(usize, u64, usize)],
    /// Source of every union row (tags fresh pair-cache inserts).
    union_srcs: &'a [usize],
    /// Full-stage content key to store the new memo under.
    er_key: u64,
    pass_fp: u64,
    prog_fp: u64,
    /// Store a fresh memo after computing (engine on, chaos off).
    store: bool,
    /// Consult the previous memo's packed scores via index remap.
    remap: bool,
}

/// The result of a wrangle.
#[derive(Debug, Clone)]
pub struct WrangleOutcome {
    /// One row per entity in the target schema, plus a `_confidence` column.
    pub table: Table,
    /// Quality vector of the result under the session's user context.
    pub quality: QualityVector,
    /// Multi-criteria utility of `quality` under the user context.
    pub utility: f64,
    /// Sources that were integrated.
    pub selected_sources: Vec<SourceId>,
    /// Number of entities produced.
    pub entities: usize,
    /// Budget spent so far (source access + feedback).
    pub cost_spent: f64,
    /// Selected sources that could not be acquired and were excluded from
    /// this result, with the reason (graceful degradation: the result covers
    /// the surviving subset only).
    pub skipped_sources: Vec<(SourceId, String)>,
    /// Sources integrated from degraded payloads (truncated / partially
    /// corrupted), with what was degraded.
    pub degraded_sources: Vec<(SourceId, Degradation)>,
    /// Acquisition attempts the last pass spent (the retry-cost axis).
    pub acquisition_attempts: u64,
    /// Virtual ticks the last acquisition pass spent (latency + backoff).
    pub acquisition_ticks: u64,
    /// Pre-flight static-analysis findings for this wrangle (merged across
    /// mappings and the plan audit); empty when the gate is off or everything
    /// was clean.
    pub lint: LintReport,
    /// Telemetry snapshot at delivery time: per-stage spans, counters and
    /// gauges aggregated over the session so far. Empty under
    /// [`ObsMode::Off`].
    pub metrics: MetricsReport,
    /// What stage-level containment did during this pass: sources
    /// quarantined mid-pipeline, rows dropped, budgets hit, panics caught.
    /// Clean (empty) when nothing went wrong past acquisition.
    pub containment: ContainmentReport,
}

/// A wrangling session: context + sources + working data + feedback loop.
#[derive(Debug, Clone)]
pub struct Wrangler {
    /// The declarative user context steering every decision.
    pub user: UserContext,
    /// The data context (ontology, master data, reference lists).
    pub data_ctx: DataContext,
    /// The feedback ledger.
    pub feedback: FeedbackStore,
    /// Working-data bookkeeping (dirtiness + work counters).
    pub working: WorkingData,
    /// How feedback is propagated (Shared is the paper's proposal; Siloed is
    /// the E4 baseline).
    pub routing: RoutingMode,
    /// The resilient acquisition engine: retry/backoff policy, per-source
    /// circuit breakers, and the failure-handling mode.
    pub acquisition: Acquisition,
    /// Stage-level fault containment: per-stage budgets, poison scanning,
    /// panic isolation, and the quarantine-vs-abort mode. Default
    /// [`ContainMode::Contain`] — a source that goes bad *mid-pipeline*
    /// degrades the pass instead of killing it.
    pub contain: ContainPolicy,
    /// The session's telemetry collector: hierarchical stage spans over the
    /// monotonic clock plus deterministic counters/gauges (see
    /// [`wrangler_obs`]). On by default; E13 puts the overhead under 5% of
    /// wall on the standard workload.
    pub obs: Telemetry,
    target: Schema,
    target_sample: Table,
    registry: SourceRegistry,
    states: Vec<SourceState>,
    er_cfg: ErConfig,
    /// Worker-count override for the ER scoring pool (`None` = hardware
    /// parallelism). Output is identical for any value; experiments pin it.
    er_workers: Option<usize>,
    /// Worker-count override for the fuse-slot pool (`None` = hardware
    /// parallelism). Output is identical for any value; experiments pin it.
    fuse_workers: Option<usize>,
    match_cfg: MatchConfig,
    now: u64,
    cache: Option<WrangleCache>,
    last_acquisition: AcquisitionSummary,
    access_spent: f64,
    fusion_override: Option<wrangler_fusion::Strategy>,
    /// Slot-level constraints from direct value feedback: values the user
    /// refuted (never deliver again) and values the user confirmed (pin).
    vetoes: HashMap<(usize, usize), Vec<Value>>, // hash-ok: point lookups only
    confirmations: HashMap<(usize, usize), Value>, // hash-ok: point lookups only
    /// Pre-flight gate mode: `Deny` (default) refuses to execute artifacts
    /// with error-grade findings, `Warn` records and proceeds, `Off` skips
    /// analysis entirely.
    lint_gate: GateMode,
    /// Findings of the last pre-flight pass, labelled by origin (`"plan"`,
    /// `"plan-ir"` or `"src{i}"`), kept for provenance export.
    last_lint: Vec<(String, LintReport)>,
    /// Containment report of the last full wrangle.
    last_containment: ContainmentReport,
    /// Optional row predicate over the target schema, applied before ER.
    /// Where it actually runs is the optimizer's decision (per-source
    /// pushdown when the facts allow it; the union loop otherwise).
    row_filter: Option<Expr>,
    /// Optional output projection (target column names). `None` delivers
    /// every target column. Drives dead-column elimination at fuse.
    output_columns: Option<Vec<String>>,
    /// Whether wrangles execute the optimized plan (default) or the naive
    /// one — the E16 comparison axis. Outputs are byte-identical.
    opt_mode: OptMode,
    /// The compiled plan program of the last wrangle (IR, analysis facts,
    /// findings, and the verified rewrite ledger).
    last_program: Option<PlanProgram>,
    /// Optional checkpoint store: with one attached, every wrangle persists
    /// each stage seam under a content key, and a fresh process pointed at
    /// the same store replays the deepest valid prefix instead of
    /// recomputing it (crash-resilient wrangling).
    ckpt: Option<CheckpointStore>,
    /// Optional crash-injection policy (test/bench harness): deterministic
    /// panic or process exit at one stage seam.
    crash: Option<CrashPolicy>,
    /// The incremental dataflow engine: per-source union block memos plus
    /// whole-stage ER/fuse memos, all content-keyed off the pass
    /// fingerprint (see [`crate::incr`]). On by default.
    incr: IncrEngine,
}

impl Wrangler {
    /// New session. `target_sample` carries the target schema *and* sample
    /// instances (typically the master catalog), which matching exploits.
    pub fn new(user: UserContext, data_ctx: DataContext, target_sample: Table) -> Wrangler {
        let target = target_sample.schema().clone();
        let plan = Plan::derive(&user);
        let er_cfg = build_er_config(&target, plan.er_threshold);
        Wrangler {
            user,
            data_ctx,
            feedback: FeedbackStore::new(),
            working: WorkingData::new(),
            routing: RoutingMode::Shared,
            acquisition: Acquisition::default(),
            contain: ContainPolicy::default(),
            obs: Telemetry::default(),
            target,
            target_sample,
            registry: SourceRegistry::new(),
            states: Vec::new(),
            er_cfg,
            er_workers: None,
            fuse_workers: None,
            match_cfg: MatchConfig::default(),
            now: 0,
            cache: None,
            last_acquisition: AcquisitionSummary::default(),
            access_spent: 0.0,
            fusion_override: None,
            vetoes: HashMap::new(), // hash-ok: see field declaration
            confirmations: HashMap::new(), // hash-ok: see field declaration
            lint_gate: GateMode::default(),
            last_lint: Vec::new(),
            last_containment: ContainmentReport::default(),
            row_filter: None,
            output_columns: None,
            opt_mode: OptMode::default(),
            last_program: None,
            ckpt: None,
            crash: None,
            incr: IncrEngine::new(),
        }
    }

    /// Install a row predicate over the target schema: only rows satisfying
    /// it enter ER and fusion. The predicate must be pure (no side channels —
    /// the analyzer checks) and is placed by the optimizer: at acquisition
    /// when every referenced binding is certified cell-exact, after mapping
    /// when the containment barrier is down, in the union loop otherwise.
    pub fn with_row_filter(mut self, predicate: Expr) -> Wrangler {
        self.row_filter = Some(predicate);
        self.invalidate_plan_shape();
        self
    }

    /// Project the delivered table onto `columns` (target names, in the
    /// given order; `_confidence` is always appended). Unprojected columns
    /// become dead at fuse and the optimizer skips fusing them.
    pub fn with_output_columns(mut self, columns: Vec<String>) -> Wrangler {
        self.output_columns = Some(columns);
        self.invalidate_plan_shape();
        self
    }

    /// Select naive or optimized plan execution (default:
    /// [`OptMode::Optimized`]). Outputs are byte-identical; naive is the E16
    /// cost baseline.
    pub fn with_opt_mode(mut self, mode: OptMode) -> Wrangler {
        self.opt_mode = mode;
        self.invalidate_plan_shape();
        self
    }

    /// The compiled plan program of the last wrangle: the typed IR, the
    /// analysis fact base, findings, and the verified rewrite ledger.
    pub fn plan_program(&self) -> Option<&PlanProgram> {
        self.last_program.as_ref()
    }

    /// A plan-shape knob changed (filter, projection, opt mode): cached
    /// mapped tables may embed a stale early-placed filter, and cached
    /// clusters/results were computed under the old shape.
    fn invalidate_plan_shape(&mut self) {
        for i in 0..self.states.len() {
            self.working.invalidate(Artifact::MappedTable(i));
        }
        self.working.invalidate(Artifact::Clusters);
        self.working.invalidate(Artifact::Result);
        self.cache = None;
        // Shape-keyed memos would miss anyway (the pass fingerprint covers
        // every shape knob); dropping them bounds memory to live content.
        self.incr.clear();
    }

    /// Enable/disable the incremental dataflow engine (default: on).
    /// Disabling drops every stage memo AND the content-keyed pair-score
    /// cache: the resulting session recomputes everything from scratch,
    /// making it the genuinely cold comparator the identity tests and the
    /// E18 timing baseline wrangle against.
    pub fn set_incr_enabled(&mut self, on: bool) {
        self.incr.set_enabled(on);
        if !on {
            self.working.pair_scores.clear();
        }
    }

    /// Is the incremental dataflow engine on?
    pub fn incr_enabled(&self) -> bool {
        self.incr.enabled()
    }

    /// Number of live incremental memos (union blocks + ER + fuse).
    pub fn incr_memo_count(&self) -> usize {
        self.incr.memo_count()
    }

    /// Deliver a fresh extraction of one source's payload — the
    /// pay-as-you-go update path. Diffs the content hash first: an
    /// identical payload is a no-op (nothing dirtied, every memo intact).
    /// A real change bumps the source's `last_updated` to the current tick,
    /// dirties exactly that source's derivation chain, evicts only the ER
    /// pair scores touching its rows, and forgets its union block memo —
    /// the next wrangle recomputes that partition and reuses the rest.
    /// Returns true if the payload actually changed; errors on an unknown
    /// id or a schema that no longer matches the registered payload's.
    pub fn update_source(&mut self, id: SourceId, table: Table) -> wrangler_table::Result<bool> {
        let i = id.0 as usize;
        let Some(existing) = self.registry.get(id) else {
            return Err(TableError::Unavailable(format!("{id}: not registered")));
        };
        if existing.table.schema() != table.schema() {
            return Err(TableError::Invalid(format!(
                "{id}: update changes the source schema; register a new source instead"
            )));
        }
        let new_hash = wire::table_hash(&table);
        let prev_hash = self
            .registry
            .update_table(id, table)
            .unwrap_or(new_hash ^ 1);
        if prev_hash == new_hash {
            return Ok(false);
        }
        if let Some(src) = self.registry.get_mut(id) {
            src.meta.last_updated = self.now;
        }
        // Dirty exactly this source's chain. Clusters/fusion recompute is
        // driven by the content keys (the union changes ⇒ the ER key
        // misses), not by a blanket invalidation — that is what lets the
        // other n−1 partitions replay.
        self.working.invalidate(Artifact::Extraction(i));
        self.working.invalidate(Artifact::Mapping(i));
        self.working.invalidate(Artifact::MappedTable(i));
        self.working.invalidate(Artifact::Result);
        self.working.work.extractions += 1;
        let (evicted, retained) = self.working.pair_scores.evict_sources(&[i]);
        self.obs.count("incr.pair_cache.evicted", evicted as u64);
        self.obs.count("incr.pair_cache.retained", retained as u64);
        self.incr.forget_source(i);
        self.cache = None;
        Ok(true)
    }

    /// Replace the stage-level containment policy (default:
    /// [`ContainPolicy::contain`]). [`ContainPolicy::abort`] turns the first
    /// mid-pipeline fault into a structured error (the E15 baseline);
    /// [`ContainPolicy::off`] disables scanning entirely (the overhead
    /// baseline).
    pub fn with_contain_policy(mut self, policy: ContainPolicy) -> Wrangler {
        self.contain = policy;
        self
    }

    /// The containment report of the last full wrangle: which sources were
    /// quarantined mid-pipeline, where, and why.
    pub fn containment_report(&self) -> &ContainmentReport {
        &self.last_containment
    }

    /// Force a fusion strategy regardless of the plan (ablation harness).
    pub fn with_fusion_strategy(mut self, strategy: wrangler_fusion::Strategy) -> Wrangler {
        self.fusion_override = Some(strategy);
        self
    }

    /// Replace the matcher configuration (e.g. the names-only baseline).
    pub fn with_match_config(mut self, cfg: MatchConfig) -> Wrangler {
        self.match_cfg = cfg;
        self
    }

    /// Pin the ER scoring pool to `workers` threads (default: hardware
    /// parallelism). Clusters and scores are byte-identical for any worker
    /// count — this knob trades wall-clock only (E14's sweep axis).
    pub fn with_er_workers(mut self, workers: usize) -> Wrangler {
        self.er_workers = Some(workers.max(1));
        self
    }

    /// Pin the fuse-slot pool to `workers` threads (default: hardware
    /// parallelism). Fused values are byte-identical for any worker count —
    /// this knob trades wall-clock only (E14's fuse sweep axis).
    pub fn with_fuse_workers(mut self, workers: usize) -> Wrangler {
        self.fuse_workers = Some(workers.max(1));
        self
    }

    /// Set the pre-flight static-analysis gate mode (default: `Deny`).
    pub fn with_lint_gate(mut self, mode: GateMode) -> Wrangler {
        self.lint_gate = mode;
        self
    }

    /// Set the telemetry mode (default: [`ObsMode::On`]). `Off` turns every
    /// record operation into a cheap branch — the E13 overhead baseline.
    pub fn with_obs_mode(mut self, mode: ObsMode) -> Wrangler {
        self.obs.set_mode(mode);
        self
    }

    /// Snapshot the session's metrics: stage timings (wall-clock,
    /// non-deterministic) segregated from counters and gauges
    /// (deterministic functions of the seeded data flow).
    pub fn metrics(&self) -> MetricsReport {
        self.obs.report()
    }

    /// The current pre-flight gate mode.
    pub fn lint_gate(&self) -> GateMode {
        self.lint_gate
    }

    /// The last wrangle's fusion inputs — claim set, source context and the
    /// planned strategy — for benchmarks and tests that drive the fuse
    /// kernel directly (E14's fuse scaling sweep). `None` before the first
    /// wrangle.
    pub fn fusion_inputs(
        &self,
    ) -> Option<(&ClaimSet, &SourceContext, wrangler_fusion::Strategy)> {
        let cache = self.cache.as_ref()?;
        Some((&cache.claims, &cache.source_ctx, self.plan().fusion))
    }

    /// Findings of the last pre-flight pass, labelled by origin (`"plan"` or
    /// `"src{i}"`).
    pub fn lint_findings(&self) -> &[(String, LintReport)] {
        &self.last_lint
    }

    /// The last pre-flight findings merged into a single canonical report.
    pub fn lint_report(&self) -> LintReport {
        let mut merged = LintReport::new();
        for (_, r) in &self.last_lint {
            merged.merge(r.clone());
        }
        merged.canonicalize();
        merged
    }

    /// Set the current tick (for timeliness computations).
    pub fn set_now(&mut self, tick: u64) {
        self.now = tick;
    }

    /// The current mapping for a source, if one has been generated or
    /// installed.
    pub fn mapping_of(&self, id: SourceId) -> Option<&Mapping> {
        self.states.get(id.0 as usize)?.mapping.as_ref()
    }

    /// Install a hand-authored (or corrected) mapping for a source,
    /// overriding the generated one. The mapping is treated as clean — the
    /// next wrangle will not regenerate it — but the mapped table is
    /// invalidated so execution (and the pre-flight gate) see the new
    /// artifact. Returns false if the source is unknown.
    pub fn override_mapping(&mut self, id: SourceId, mapping: Mapping) -> bool {
        let i = id.0 as usize;
        let Some(state) = self.states.get_mut(i) else {
            return false;
        };
        state.mapping = Some(mapping);
        state.mapped = None;
        self.working.mark_clean(Artifact::Mapping(i));
        self.working.invalidate(Artifact::MappedTable(i));
        self.working.invalidate(Artifact::Clusters);
        self.working.invalidate(Artifact::Result);
        true
    }

    /// Switch the user context mid-session (§2.1: "a single application may
    /// have different user contexts"). The plan is re-derived on the next
    /// wrangle; cached claims and clusters survive, so switching contexts is
    /// a re-selection + re-fusion, not a from-scratch run — unless the new
    /// plan needs a different ER threshold, which invalidates clustering.
    pub fn set_user_context(&mut self, user: UserContext) {
        let old_plan = self.plan();
        self.user = user;
        let new_plan = self.plan();
        if (new_plan.er_threshold - old_plan.er_threshold).abs() > 1e-12 {
            self.er_cfg = build_er_config(&self.target, new_plan.er_threshold);
            self.working.invalidate(Artifact::Clusters);
            // Pair scores survive: they are threshold-independent (only the
            // match filter moves), so the re-clustering pass replays them
            // from the content-keyed cache instead of re-scoring.
        }
        self.working.invalidate(Artifact::Result);
    }

    /// The derived plan for the current user context (with any ablation
    /// overrides applied).
    pub fn plan(&self) -> Plan {
        let mut plan = Plan::derive(&self.user);
        if let Some(s) = self.fusion_override {
            plan.fusion = s;
        }
        plan
    }

    /// The target schema.
    pub fn target(&self) -> &Schema {
        &self.target
    }

    /// Register a source (already extracted into a table).
    pub fn add_source(&mut self, meta: SourceMeta, table: Table) -> SourceId {
        let id = self.registry.register_with_meta(meta, table);
        self.states.push(SourceState {
            trust: Belief::from_prior(0.6),
            mapping: None,
            mapped: None,
            filter_tag: None,
            relevance: 1.0,
        });
        self.working.invalidate_source(id.0 as usize);
        self.working.work.extractions += 1;
        id
    }

    /// Number of registered sources.
    pub fn num_sources(&self) -> usize {
        self.registry.len()
    }

    /// Current trust in a source.
    pub fn source_trust(&self, source: SourceId) -> f64 {
        self.states[source.0 as usize].trust.probability()
    }

    /// Source by id, as a structured error instead of a panic when the id is
    /// stale (e.g. a cached selection referring to a re-built registry).
    fn source(&self, id: SourceId) -> wrangler_table::Result<&Source> {
        self.registry
            .get(id)
            .ok_or_else(|| TableError::Unavailable(format!("{id}: not registered")))
    }

    /// Attach a seeded fault layer to the fleet (robustness experiments).
    pub fn inject_faults(&mut self, cfg: &FaultConfig) {
        self.registry.inject_faults(cfg);
    }

    /// Override one source's fault profile.
    pub fn set_fault_profile(&mut self, id: SourceId, profile: FaultProfile) {
        self.registry.set_fault_profile(id, profile);
    }

    /// How the last wrangle's acquisition pass went: per-source
    /// dispositions, skips, degradations, and retry cost.
    pub fn acquisition_summary(&self) -> &AcquisitionSummary {
        &self.last_acquisition
    }

    /// Estimate every source's selection-relevant properties from profiling,
    /// master-data coverage and feedback-updated trust. Large sources are
    /// probed on a bounded sample rather than scanned (§4.3 scale
    /// independence: selection must not require touching all of every
    /// candidate source).
    pub fn estimates(&mut self) -> Vec<SourceEstimate> {
        let master_rows = self.target_sample.num_rows().max(1);
        let probe_cfg = wrangler_sources::ProbeConfig::default();
        let mut out = Vec::with_capacity(self.registry.len());
        for (i, src) in self.registry.iter().enumerate() {
            let relevance = if src.table.num_rows() > probe_cfg.sample_rows {
                wrangler_sources::probe_source(&src.table, &self.data_ctx, "product", &probe_cfg)
                    .ok()
                    .and_then(|p| p.relevance)
                    .unwrap_or(1.0)
            } else {
                wrangler_quality::profile::master_relevance(&src.table, &self.data_ctx, "product")
                    .unwrap_or(1.0)
            };
            self.states[i].relevance = relevance;
            let coverage =
                ((src.table.num_rows() as f64 / master_rows as f64) * relevance).min(1.0);
            out.push(SourceEstimate {
                id: src.meta.id,
                coverage,
                accuracy: self.states[i].trust.probability(),
                age: self.now.saturating_sub(src.meta.last_updated),
                cost: src.meta.access_cost,
                relevance,
                availability: self.acquisition.availability(i, self.now),
            });
        }
        out
    }

    /// Full wrangle: select → map → resolve → fuse → gate → report. Every
    /// stage past acquisition runs under the session's [`ContainPolicy`]:
    /// a source whose payload errors, panics, or blows a budget
    /// mid-pipeline is quarantined and the pass completes on survivors
    /// (mirroring acquisition degradation); the decisions land in
    /// [`WrangleOutcome::containment`] and the `contain.<stage>.*` counters.
    pub fn wrangle(&mut self) -> wrangler_table::Result<WrangleOutcome> {
        let mut creport = ContainmentReport::default();
        let mut out = self.wrangle_contained(&mut creport);
        creport.emit(&mut self.obs);
        if let Ok(o) = &mut out {
            o.containment = creport.clone();
            // Re-snapshot: the emit above added the contain.* counters.
            o.metrics = self.obs.report();
        }
        self.last_containment = creport;
        out
    }

    /// Mark source `i` quarantined mid-pipeline: discount its trust (same
    /// soft evidence as an acquisition skip), trip its breaker so the next
    /// acquisition pass sees it unavailable until the cooldown probes it,
    /// and invalidate its cached artifacts so a later (possibly clean)
    /// delivery is remapped from scratch.
    fn discount_quarantined(&mut self, i: usize) {
        if let Some(state) = self.states.get_mut(i) {
            state
                .trust
                .update(&Evidence::vote(EvidenceKind::Component, false, 0.8).discounted(0.9));
        }
        self.acquisition.record_pipeline_failure(i);
        self.working.invalidate(Artifact::Mapping(i));
        self.working.invalidate(Artifact::MappedTable(i));
    }

    // --- Crash-resilient checkpointing -----------------------------------

    /// Attach a checkpoint store: every subsequent wrangle persists each
    /// stage seam (select, acquire, map_generate, map_apply, union, er,
    /// fuse) under a content key derived from the source payload hashes,
    /// the compiled plan fingerprint and the chained upstream seam keys.
    /// A fresh process pointed at the same store replays the deepest valid
    /// prefix byte-identically instead of recomputing it — including
    /// quarantine, trust and breaker state, which travel inside each seam
    /// record. One caveat: the keys do not cover the data context (its
    /// debug rendering iterates an unordered map), so sessions that mutate
    /// the data context between runs must use a fresh store directory.
    pub fn with_checkpoint_store(mut self, store: CheckpointStore) -> Wrangler {
        self.ckpt = Some(store);
        self
    }

    /// Arm deterministic crash injection: the next wrangle panics (or
    /// exits) at the configured stage seam, *after* that seam's checkpoint
    /// persisted. The E17 harness and the resume proptests use this to
    /// interrupt a pass at every boundary.
    pub fn with_crash_policy(mut self, policy: CrashPolicy) -> Wrangler {
        self.crash = Some(policy);
        self
    }

    /// Disarm crash injection (the resume half of an in-process test).
    pub fn clear_crash_policy(&mut self) {
        self.crash = None;
    }

    /// The attached checkpoint store, if any.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.ckpt.as_ref()
    }

    /// Resume an interrupted wrangle from the attached checkpoint store.
    /// Replay is just re-running the pass: every seam whose content key has
    /// a valid record restores its snapshot and skips its compute; the
    /// first seam without one (where the crash hit) computes live. The
    /// outcome is byte-identical to an uninterrupted run.
    pub fn resume(&mut self) -> wrangler_table::Result<WrangleOutcome> {
        if self.ckpt.is_none() {
            return Err(TableError::Invalid(
                "resume requires an attached checkpoint store".into(),
            ));
        }
        self.wrangle()
    }

    fn crash_fire(&self, site: CrashSite) {
        if let Some(p) = &self.crash {
            p.fire(site);
        }
    }

    /// Snapshot everything this pass has mutated so far (see
    /// [`SessionState`]); stored inside every seam record.
    fn snapshot_state(&self, creport: &ContainmentReport) -> SessionState<'_> {
        SessionState {
            now: self.now,
            access_spent: self.access_spent,
            trust: self.states.iter().map(|s| s.trust.clone()).collect(),
            relevance: self.states.iter().map(|s| s.relevance).collect(),
            acq_clock: self.acquisition.clock(),
            acq_total_attempts: self.acquisition.total_attempts,
            acq_total_backoff: self.acquisition.total_backoff_ticks,
            breakers: self.acquisition.breakers().to_vec(),
            pair_cache: Cow::Borrowed(&self.working.pair_scores),
            work: self.working.work,
            creport: creport.clone(),
            last_acquisition: self.last_acquisition.clone(),
        }
    }

    /// Apply a seam snapshot: the session (and the in-progress containment
    /// report) now look exactly as they did when the record was written, so
    /// side effects (trust discounts, breaker trips, quarantines) are never
    /// re-applied on replay.
    fn restore_state(&mut self, st: SessionState<'static>, creport: &mut ContainmentReport) {
        self.now = st.now;
        self.access_spent = st.access_spent;
        for (i, b) in st.trust.into_iter().enumerate() {
            if let Some(s) = self.states.get_mut(i) {
                s.trust = b;
            }
        }
        for (i, r) in st.relevance.into_iter().enumerate() {
            if let Some(s) = self.states.get_mut(i) {
                s.relevance = r;
            }
        }
        self.acquisition.total_attempts = st.acq_total_attempts;
        self.acquisition.total_backoff_ticks = st.acq_total_backoff;
        self.acquisition.restore_state(st.acq_clock, st.breakers);
        self.working.pair_scores = st.pair_cache.into_owned();
        self.working.work = st.work;
        *creport = st.creport;
        self.last_acquisition = st.last_acquisition;
    }

    /// Fingerprint of everything that shapes this pass besides the source
    /// payloads and runtime state: target schema + sample, user context,
    /// derived plan, ER/match/containment/acquisition configuration, filter
    /// and projection, and the value-feedback constraints (in sorted key
    /// order — their maps are lookup-only). Worker-count knobs are
    /// excluded: outputs are byte-identical for any pool width. The data
    /// context is excluded (see [`Self::with_checkpoint_store`]).
    fn pass_fingerprint(&self, plan: &Plan) -> u64 {
        let mut h = wire::Hasher64::new();
        let mut e = wire::Enc::new();
        wire::encode_schema(&mut e, &self.target);
        h.write(&e.into_bytes());
        h.write_u64(wire::table_hash(&self.target_sample));
        h.write_str(&format!("{:?}", self.user));
        h.write_str(&format!("{plan:?}"));
        h.write_str(&format!("{:?}", self.er_cfg));
        h.write_str(&format!("{:?}", self.match_cfg));
        h.write_str(&format!("{:?}", self.contain));
        h.write_str(&format!("{:?}", self.row_filter));
        h.write_str(&format!("{:?}", self.output_columns));
        h.write_str(&format!("{:?}", self.opt_mode));
        h.write_str(&format!("{:?}", self.lint_gate));
        h.write_str(&format!("{:?}", self.routing));
        h.write_str(&format!("{:?}", self.acquisition.mode));
        h.write_str(&format!("{:?}", self.acquisition.policy));
        h.write_str(&format!("{:?}", self.acquisition.breaker_cfg));
        for i in 0..self.registry.len() {
            h.write_str(&format!(
                "{:?}",
                self.registry.fault_profile(SourceId(i as u32))
            ));
        }
        let mut vetoes: Vec<_> = self.vetoes.iter().collect();
        vetoes.sort_by_key(|(k, _)| **k);
        for ((ent, attr), vals) in vetoes {
            h.write_u64(*ent as u64)
                .write_u64(*attr as u64)
                .write_str(&format!("{vals:?}"));
        }
        let mut confirms: Vec<_> = self.confirmations.iter().collect();
        confirms.sort_by_key(|(k, _)| **k);
        for ((ent, attr), v) in confirms {
            h.write_u64(*ent as u64)
                .write_u64(*attr as u64)
                .write_str(&format!("{v:?}"));
        }
        h.finish()
    }

    /// The first seam's key: the pass fingerprint plus everything the
    /// select stage reads — the session tick, every source's payload hash
    /// and pre-pass trust, and the acquisition engine's full state (clock,
    /// counters, breaker fleet). Two passes with any divergent history key
    /// differently, so a checkpoint can never replay across histories.
    fn seam_key_select(&self, pass_fp: u64) -> u64 {
        let mut k = ContentKey::stage("select", pass_fp).labelled("now", self.now);
        for i in 0..self.registry.len() {
            let id = SourceId(i as u32);
            k = k
                .input(self.registry.payload_hash(id).unwrap_or(0))
                .input(self.states[i].trust.to_parts().0.to_bits());
        }
        let acq = wire::hash64(format!("{:?}", self.acquisition).as_bytes());
        k.labelled("acq", acq).finish()
    }

    /// A downstream seam's key: chained through the previous seam's key, so
    /// a valid record implies every upstream seam matched — replaying the
    /// deepest valid prefix falls out of re-running the same sequence.
    fn seam_key(stage: &str, pass_fp: u64, chain: u64, extra: u64) -> u64 {
        ContentKey::stage(stage, pass_fp)
            .labelled("chain", chain)
            .input(extra)
            .finish()
    }

    /// Try to replay a seam. On a valid record the session state is
    /// restored and the stage's output payload returned; a miss, a torn
    /// record (checksum/framing failure — counted, unlinked, never loaded)
    /// or an undecodable payload returns `None` and the stage computes
    /// live.
    fn ckpt_load(
        &mut self,
        stage: &str,
        key: u64,
        creport: &mut ContainmentReport,
    ) -> Option<Vec<u8>> {
        let (raw, torn) = {
            let store = self.ckpt.as_ref()?;
            let before = store.stats().torn_detected;
            let raw = store.get(key);
            (raw, store.stats().torn_detected - before)
        };
        if torn > 0 {
            self.obs.count(&format!("ckpt.{stage}.torn_detected"), torn);
        }
        let Some(raw) = raw else {
            self.obs.inc(&format!("ckpt.{stage}.misses"));
            return None;
        };
        match ckpt_io::decode_record(&raw) {
            Ok((state, out)) if state.trust.len() == self.states.len() => {
                self.restore_state(state, creport);
                self.obs.inc(&format!("ckpt.{stage}.hits"));
                Some(out)
            }
            // Checksummed but undecodable, or from a different fleet shape:
            // never trust it, recompute.
            _ => {
                self.obs.inc(&format!("ckpt.{stage}.misses"));
                None
            }
        }
    }

    /// Persist a seam record (session snapshot + stage output). Atomic
    /// temp-file + rename inside the store; a failed write degrades to "no
    /// checkpoint at this seam", never to a torn record.
    fn ckpt_save(&mut self, stage: &str, key: u64, creport: &ContainmentReport, output: &[u8]) {
        let Some(store) = self.ckpt.as_ref() else {
            return;
        };
        let rec = ckpt_io::encode_record(&self.snapshot_state(creport), output);
        let wrote = store.put(key, &rec).is_ok();
        if wrote {
            self.obs
                .count(&format!("ckpt.{stage}.bytes_written"), rec.len() as u64);
        } else {
            self.obs.inc(&format!("ckpt.{stage}.write_failed"));
        }
    }

    /// The live map-generate stage: alignment budgets, chaos rolls, the
    /// blocked schema-matching fan-out, and per-source quarantine of
    /// panicking inputs. Factored out of `wrangle_contained` so the
    /// checkpoint seam around it stays readable.
    fn map_generate_stage(
        &mut self,
        policy: &ContainPolicy,
        creport: &mut ContainmentReport,
        selected: &mut Vec<SourceId>,
        degraded_tables: &BTreeMap<usize, Table>,
    ) -> wrangler_table::Result<()> {
        let need_mapping: Vec<usize> = selected
            .iter()
            .map(|id| id.0 as usize)
            .filter(|&i| {
                self.states[i].mapping.is_none() || self.working.is_dirty(Artifact::Mapping(i))
            })
            .collect();
        let mut gen_removed: Vec<usize> = Vec::new();
        if !need_mapping.is_empty() {
            let target = &self.target;
            let sample = &self.target_sample;
            let ontology = &self.data_ctx.ontology;
            let match_cfg = &self.match_cfg;
            let registry = &self.registry;
            // Resolve every input table before fanning out: workers then hold
            // plain references, and a stale id surfaces as a structured error
            // here instead of a panic inside a worker thread.
            let resolved: Vec<(usize, &Table)> = need_mapping
                .iter()
                .map(|&i| {
                    let table = match degraded_tables.get(&i) {
                        Some(t) => t,
                        None => {
                            &registry
                                .get(SourceId(i as u32))
                                .ok_or_else(|| {
                                    TableError::Unavailable(format!("src{i}: not registered"))
                                })?
                                .table
                        }
                    };
                    Ok((i, table))
                })
                .collect::<wrangler_table::Result<_>>()?;
            // Alignment budget: schema matching is quadratic-ish in cells,
            // so a pathologically oversized payload is ejected *before* it
            // can monopolize the pool — the logical-clock deadline for the
            // most expensive stage. Chaos rolls happen here too, on the
            // main thread, so worker count never changes which sources are
            // hit.
            let mut guard = StageGuard::new(Stage::MapGenerate, policy, creport);
            let mut inputs: Vec<(usize, &Table, bool)> = Vec::with_capacity(resolved.len());
            for (i, table) in resolved {
                let id = SourceId(i as u32);
                let cells = table.num_rows().saturating_mul(table.num_columns());
                if policy.scans_enabled() && cells > policy.max_align_cells {
                    if let Some(err) = guard.deadline_excess(id, "alignment budget", 0) {
                        return Err(err);
                    }
                    guard.flag(
                        id,
                        &format!(
                            "alignment budget exceeded ({cells} cells > {})",
                            policy.max_align_cells
                        ),
                    );
                    gen_removed.push(i);
                    continue;
                }
                let chaos_hit = !policy.is_off()
                    && policy
                        .chaos
                        .as_ref()
                        .is_some_and(|c| c.should_panic(Stage::MapGenerate, id));
                inputs.push((i, table, chaos_hit));
            }
            // Cross-source CSE: the target-sample column profiles are the
            // same for every source, so the optimized mode computes them
            // once here and shares them across workers (the
            // `share-target-profile` rewrite — recorded with its justifying
            // fact in the compiled program's ledger below). Naive mode
            // re-profiles the target per source: the E16 wall-clock
            // baseline. Profiling is deterministic, so the generated
            // mappings are identical either way.
            let shared_profiles = (self.opt_mode == OptMode::Optimized && inputs.len() >= 2)
                .then(|| profile_table(sample));
            let shared_profiles = shared_profiles.as_deref();
            type GenItem = (usize, Result<Mapping, String>);
            // Blocked fan-out (wrangler_table::par): contiguous chunks keep
            // each worker on adjacent sources and reassembly in chunk order
            // keeps the per-worker metrics and output deterministic. One
            // mapping generation is milliseconds of work, so the threshold
            // is 1 item per worker.
            let workers = par::effective_workers(par::available_parallelism(), inputs.len(), 1);
            let (chunks, worker_stats) = par::run_blocked(&inputs, workers, |_, chunk| {
                // Each item runs under its own catch: one poisonous source
                // quarantines itself, not its whole worker's chunk.
                chunk
                    .iter()
                    .map(|&(i, table, chaos_hit)| {
                        let res = catch_quiet(|| {
                            if chaos_hit {
                                panic!("chaos: injected map_generate panic"); // lint-allow: deterministic chaos injection, caught one line up
                            }
                            match shared_profiles {
                                Some(profiles) => generate_mapping_with_profiles(
                                    table,
                                    target,
                                    sample,
                                    profiles,
                                    Some(ontology),
                                    match_cfg,
                                ),
                                None => {
                                    generate_mapping(table, target, sample, Some(ontology), match_cfg)
                                }
                            }
                        });
                        (i, res)
                    })
                    .collect::<Vec<GenItem>>()
            })
            // Backstop: the per-item catch above means a worker thread can no
            // longer die mid-chunk, but if it somehow does, fail structured.
            .map_err(|msg| {
                TableError::Unavailable(format!("schema-matching worker panicked: {msg}"))
            })?;
            let generated: Vec<GenItem> = chunks.into_iter().flatten().collect();
            for (w, s) in worker_stats.iter().enumerate() {
                self.obs.count(&format!("map.worker{w}.items"), s.items);
                self.obs.record_nanos(&format!("worker{w}"), s.busy_nanos, 1);
            }
            let mut generated_ok = 0u64;
            for (i, res) in generated {
                match res {
                    Ok(mapping) => {
                        generated_ok += 1;
                        self.states[i].mapping = Some(mapping);
                        self.states[i].mapped = None;
                        self.working.work.mappings_generated += 1;
                        self.working.mark_clean(Artifact::Mapping(i));
                    }
                    Err(msg) => {
                        // The panicking source is *identified* and
                        // quarantined; survivors proceed (satellite fix for
                        // the old opaque all-or-nothing worker error).
                        creport.caught_panic(Stage::MapGenerate);
                        match policy.mode {
                            ContainMode::Contain => {
                                creport.record_quarantine(
                                    SourceId(i as u32),
                                    Stage::MapGenerate,
                                    format!("panicked: {msg}"),
                                );
                                gen_removed.push(i);
                            }
                            ContainMode::Abort | ContainMode::Off => {
                                return Err(TableError::Unavailable(format!(
                                    "src{i}: schema-matching worker panicked at map_generate: {msg}"
                                )));
                            }
                        }
                    }
                }
            }
            self.obs.count("map.generated", generated_ok);
        }
        if !gen_removed.is_empty() {
            selected.retain(|id| !gen_removed.contains(&(id.0 as usize)));
            for i in gen_removed {
                self.discount_quarantined(i);
            }
            if selected.is_empty() {
                self.obs.end();
                return Err(TableError::Unavailable(
                    "all sources quarantined at map_generate; no survivors".into(),
                ));
            }
        }
        Ok(())
    }

    fn wrangle_contained(
        &mut self,
        creport: &mut ContainmentReport,
    ) -> wrangler_table::Result<WrangleOutcome> {
        let plan = self.plan();
        let policy = self.contain.clone();
        // A pass that aborted with `?` leaves spans open; start clean. An
        // early error return below simply leaves this pass's spans
        // unrecorded — counters recorded up to the failure point persist.
        self.obs.start_pass();
        self.obs.begin("wrangle");
        self.obs.inc("pass.wrangle");

        // 1. Source selection under the user context. With a checkpoint
        // store attached, every stage seam below is content-keyed: a hit
        // restores the seam's session snapshot and installs its output
        // (side effects replay from the snapshot, never re-derive); a miss
        // computes live and persists. Keys chain, so a valid record implies
        // the whole upstream prefix matched.
        self.obs.begin("select");
        let ckpt_on = self.ckpt.is_some();
        // The incremental engine shares the checkpoint machinery's content
        // keys. It stands down for chaos passes wholesale: fault rolls are
        // stateful (each guarded region advances the chaos RNG), so skipping
        // a memoized region would change which sources later rolls hit.
        let incr_on = self.incr.enabled() && policy.chaos.is_none();
        let pass_fp = if ckpt_on || incr_on {
            self.pass_fingerprint(&plan)
        } else {
            0
        };
        let k_select = if ckpt_on { self.seam_key_select(pass_fp) } else { 0 };
        let selected: Vec<SourceId> = match self.ckpt_load("select", k_select, creport) {
            Some(out) => ckpt_io::SelectOut::decode(&out)?.selected,
            None => {
                let estimates = self.estimates();
                let selected: Vec<SourceId> = match plan.selection {
                    SelectionStrategy::MarginalGain => {
                        select_marginal_gain(&estimates, &self.user).0
                    }
                    SelectionStrategy::AllRelevant => {
                        let mut all = UserContext::balanced("all");
                        all.budget = self.user.budget;
                        all.max_sources = self.user.max_sources;
                        all.freshness_horizon = self.user.freshness_horizon;
                        select_greedy_utility(&estimates, &all)
                    }
                };
                self.obs.count("select.candidates", estimates.len() as u64);
                self.obs.count("select.selected", selected.len() as u64);
                let out = ckpt_io::SelectOut {
                    selected: selected.clone(),
                }
                .encode();
                self.ckpt_save("select", k_select, creport, &out);
                selected
            }
        };
        self.obs.end();
        self.crash_fire(CrashSite::AfterSelect);
        let mut chain = k_select;
        // 2. Acquisition: fallibly fetch every selected source through the
        // registry's (optional) fault layer under the session's resilience
        // policy. The pipeline then continues on the surviving subset:
        // skipped sources are recorded in the outcome and their trust
        // discounted, degraded payloads are integrated as delivered.
        self.obs.begin("acquire");
        let k_acquire = if ckpt_on {
            Self::seam_key("acquire", pass_fp, chain, 0)
        } else {
            0
        };
        let (mut selected, degraded_tables): (Vec<SourceId>, BTreeMap<usize, Table>) =
            match self.ckpt_load("acquire", k_acquire, creport) {
                Some(out) => {
                    let rec = ckpt_io::AcquireOut::decode(&out)?;
                    self.obs.end();
                    (rec.selected, rec.degraded_tables.into_iter().collect())
                }
                None => {
                    let mut report = self
                        .acquisition
                        .acquire_selected(&self.registry, &selected, self.now);
                    let skipped = report.skipped();
                    let degraded = report.degraded();
                    let survivors = report.survivors();
                    let degraded_payloads = std::mem::take(&mut report.degraded_tables);
                    self.obs.absorb("acquire", &report.events);
                    self.obs.count("acquire.attempts", report.attempts);
                    self.obs.count("acquire.virtual_ticks", report.ticks);
                    self.obs.count("acquire.skipped", skipped.len() as u64);
                    self.obs.count("acquire.degraded", degraded.len() as u64);
                    self.last_acquisition = AcquisitionSummary {
                        outcomes: report.outcomes,
                        skipped: skipped.clone(),
                        degraded: degraded.clone(),
                        attempts: report.attempts,
                        ticks: report.ticks,
                    };
                    self.obs.end();
                    if let Some(err) = report.aborted {
                        return Err(TableError::Unavailable(format!(
                            "acquisition aborted after {} attempts: {err}",
                            report.attempts
                        )));
                    }
                    for (id, _) in &skipped {
                        // An operational failure is (soft) evidence against
                        // the source; the discount keeps selection from
                        // re-picking serial offenders even after their
                        // breaker half-opens.
                        self.states[id.0 as usize].trust.update(
                            &Evidence::vote(EvidenceKind::Component, false, 0.8).discounted(0.9),
                        );
                    }
                    if survivors.is_empty() {
                        // `why` already names the source (AcquireError's
                        // Display does).
                        let reasons: Vec<String> =
                            skipped.iter().map(|(_, why)| why.clone()).collect();
                        return Err(TableError::Unavailable(format!(
                            "no sources could be acquired ({} selected, all failed: {})",
                            selected.len(),
                            reasons.join("; ")
                        )));
                    }
                    let selected = survivors;
                    let degraded_tables: BTreeMap<usize, Table> = degraded_payloads
                        .into_iter()
                        .map(|(id, t)| (id.0 as usize, t))
                        .collect();
                    self.access_spent = {
                        let mut total = 0.0;
                        for id in &selected {
                            total += self.source(*id)?.meta.access_cost;
                        }
                        total
                    };
                    let out = ckpt_io::AcquireOut {
                        selected: selected.clone(),
                        degraded_tables: degraded_tables
                            .iter()
                            .map(|(&i, t)| (i, t.clone()))
                            .collect(),
                    }
                    .encode();
                    self.ckpt_save("acquire", k_acquire, creport, &out);
                    (selected, degraded_tables)
                }
            };
        // Degraded payloads are transient: remap them from this delivery and
        // invalidate the cached artifacts so a later (possibly clean)
        // acquisition remaps again instead of reusing stale noise.
        for &i in degraded_tables.keys() {
            self.working.invalidate(Artifact::Mapping(i));
            self.working.invalidate(Artifact::MappedTable(i));
        }
        self.crash_fire(CrashSite::AfterAcquire);
        chain = k_acquire;

        // 3. Mapping generation + execution per acquired source. Generation
        // (schema matching) is the CPU-heavy step; fan it out across threads.
        self.obs.begin("map_generate");
        let k_mapgen = if ckpt_on {
            Self::seam_key("map_generate", pass_fp, chain, 0)
        } else {
            0
        };
        match self.ckpt_load("map_generate", k_mapgen, creport) {
            Some(out) => {
                let rec = ckpt_io::MapGenOut::decode(&out)?;
                selected = rec.selected;
                for (i, mapping) in rec.mappings {
                    if let Some(state) = self.states.get_mut(i) {
                        state.mapping = Some(mapping);
                        self.working.mark_clean(Artifact::Mapping(i));
                    }
                }
            }
            None => {
                self.map_generate_stage(&policy, creport, &mut selected, &degraded_tables)?;
                let out = ckpt_io::MapGenOut {
                    selected: selected.clone(),
                    mappings: selected
                        .iter()
                        .filter_map(|id| {
                            let i = id.0 as usize;
                            self.states[i].mapping.clone().map(|m| (i, m))
                        })
                        .collect(),
                }
                .encode();
                self.ckpt_save("map_generate", k_mapgen, creport, &out);
            }
        }
        self.obs.end();
        self.crash_fire(CrashSite::AfterMapGenerate);
        chain = k_mapgen;
        // 3b. Lower the pass into the typed plan IR and compile it: the
        // analyzer establishes the fact base, emits whole-plan findings
        // (L301+), and the optimizer's rewrite ledger is re-verified against
        // the facts. A forged or insufficient justification is rejected
        // *here*, with a typed L304 diagnostic, before anything executes.
        self.obs.begin("plan");
        self.last_lint.clear();
        let compiled = {
            let mut inputs: Vec<LowerInput<'_>> = Vec::with_capacity(selected.len());
            for id in &selected {
                let i = id.0 as usize;
                let table = match degraded_tables.get(&i) {
                    Some(t) => t,
                    None => {
                        &self
                            .registry
                            .get(*id)
                            .ok_or_else(|| TableError::Unavailable(format!("{id}: not registered")))?
                            .table
                    }
                };
                let mapping = self.states[i]
                    .mapping
                    .as_ref()
                    .ok_or_else(|| TableError::Invalid(format!("{id}: no mapping available")))?;
                inputs.push(LowerInput {
                    source: i,
                    name: format!("src{i}"),
                    table,
                    mapping,
                });
            }
            let ir = lower::lower(
                &inputs,
                &self.target,
                &plan,
                &policy,
                self.row_filter.as_ref(),
                self.output_columns.as_deref(),
                &self.er_cfg,
            );
            PlanProgram::compile(ir, self.opt_mode)
        };
        let program = match compiled {
            Ok(p) => p,
            Err(report) => {
                self.obs.inc("plan.rejected");
                let first = report
                    .errors()
                    .next()
                    .map(|d| d.to_string())
                    .unwrap_or_default();
                let summary = report.summary();
                self.last_lint.push(("plan-ir".to_string(), report));
                return Err(TableError::Invalid(format!(
                    "plan compilation rejected the wrangle ({summary}): {first}"
                )));
            }
        };
        self.obs.count("plan.nodes", program.ir.nodes.len() as u64);
        self.obs.count("plan.facts", program.facts.len() as u64);
        self.obs
            .count("plan.findings", program.report.diagnostics().len() as u64);
        self.obs.count("opt.rewrites", program.rewrites.len() as u64);
        for rw in &program.rewrites {
            self.obs.inc(&format!("opt.rewrite.{}", rw.kind.name()));
        }
        if self.lint_gate != GateMode::Off && !program.report.is_empty() {
            self.last_lint.push(("plan-ir".to_string(), program.report.clone()));
        }
        self.last_program = Some(program);
        self.obs.end();

        // 3c. Pre-flight static analysis: lint every (mapping, source schema)
        // pair plus the plan's determinism description *before* any mapping
        // executes. Under `Deny`, error-grade findings abort here with a
        // structured error instead of surfacing mid-run (or never). The
        // whole-plan findings from 3b participate in the same gate decision.
        self.obs.begin("preflight");
        if self.lint_gate != GateMode::Off {
            let audit = wrangler_lint::audit_steps(&plan.describe());
            if !audit.is_empty() {
                self.last_lint.push(("plan".to_string(), audit));
            }
            let mut pf_removed: Vec<usize> = Vec::new();
            for id in &selected {
                let i = id.0 as usize;
                let table = match degraded_tables.get(&i) {
                    Some(t) => t,
                    None => {
                        &self
                            .registry
                            .get(*id)
                            .ok_or_else(|| TableError::Unavailable(format!("{id}: not registered")))?
                            .table
                    }
                };
                let mapping = self.states[i]
                    .mapping
                    .as_ref()
                    .ok_or_else(|| TableError::Invalid(format!("{id}: no mapping available")))?;
                let report = wrangler_lint::check_mapping(mapping, table.schema());
                if !report.is_empty() {
                    // Opt-in containment at the gate: quarantine the one
                    // source whose artifact would be denied instead of
                    // refusing the whole wrangle. Findings stay recorded.
                    if policy.quarantine_preflight
                        && policy.mode == ContainMode::Contain
                        && report.blocks(self.lint_gate)
                    {
                        creport.record_quarantine(
                            *id,
                            Stage::Preflight,
                            "pre-flight lint blocked this source's mapping",
                        );
                        pf_removed.push(i);
                    }
                    self.last_lint.push((format!("src{i}"), report));
                }
            }
            // The gate decision covers the plan plus *surviving* sources;
            // quarantined sources keep their findings in `lint_findings`
            // but no longer block the pass.
            let mut merged = LintReport::new();
            for (origin, r) in &self.last_lint {
                let quarantined = origin
                    .strip_prefix("src")
                    .and_then(|s| s.parse::<usize>().ok())
                    .is_some_and(|i| pf_removed.contains(&i));
                if !quarantined {
                    merged.merge(r.clone());
                }
            }
            merged.canonicalize();
            self.obs
                .count("lint.findings", merged.diagnostics().len() as u64);
            if merged.blocks(self.lint_gate) {
                self.obs.inc("lint.gate_denials");
                let first = merged
                    .errors()
                    .next()
                    .map(|d| d.to_string())
                    .unwrap_or_default();
                return Err(TableError::Invalid(format!(
                    "pre-flight lint rejected the wrangle ({}): {first}",
                    merged.summary()
                )));
            }
            if !pf_removed.is_empty() {
                selected.retain(|id| !pf_removed.contains(&(id.0 as usize)));
                for i in pf_removed {
                    self.discount_quarantined(i);
                }
                if selected.is_empty() {
                    self.obs.end();
                    return Err(TableError::Unavailable(
                        "all sources quarantined at preflight; no survivors".into(),
                    ));
                }
            }
        }
        self.obs.end();
        self.obs.begin("map_apply");
        let prog_fp = if ckpt_on || incr_on {
            self.last_program.as_ref().map(|p| p.fingerprint()).unwrap_or(0)
        } else {
            0
        };
        let k_apply = if ckpt_on {
            Self::seam_key("map_apply", pass_fp, chain, prog_fp)
        } else {
            0
        };
        let track_scans = self.obs.is_on();
        let mut scan_filter_cells = 0u64;
        let mut scan_bytes = 0u64;
        match self.ckpt_load("map_apply", k_apply, creport) {
            Some(out) => {
                let rec = ckpt_io::MapApplyOut::decode(&out)?;
                selected = rec.selected;
                for (i, table, tag) in rec.mapped {
                    if let Some(state) = self.states.get_mut(i) {
                        state.mapped = Some(table);
                        state.filter_tag = tag;
                        self.working.mark_clean(Artifact::MappedTable(i));
                    }
                }
            }
            None => {
        let mut apply_removed: Vec<usize> = Vec::new();
        let mut scan_map_cells = 0u64;
        {
            let program = self.last_program.as_ref();
            let target = &self.target;
            let registry = &self.registry;
            let states = &mut self.states;
            let working = &mut self.working;
            let mut guard = StageGuard::new(Stage::MapApply, &policy, creport);
            for id in &selected {
                let i = id.0 as usize;
                let placement = program
                    .map(|p| p.placement_for(i))
                    .unwrap_or(FilterPlacement::Union);
                let predicate = program.and_then(|p| p.predicate());
                let desired_tag = match (placement, predicate) {
                    (FilterPlacement::Union, _) | (_, None) => None,
                    (p, Some(e)) => Some(format!("{}|{e:?}", p.name())),
                };
                if states[i].mapped.is_none()
                    || working.is_dirty(Artifact::MappedTable(i))
                    || states[i].filter_tag != desired_tag
                {
                    let table = match degraded_tables.get(&i) {
                        Some(t) => t,
                        None => {
                            &registry
                                .get(*id)
                                .ok_or_else(|| {
                                    TableError::Unavailable(format!("{id}: not registered"))
                                })?
                                .table
                        }
                    };
                    let mapping = states[i]
                        .mapping
                        .as_ref()
                        .ok_or_else(|| TableError::Invalid(format!("{id}: no mapping available")))?;
                    // Pushdown to acquisition: the verified ledger proved the
                    // predicate pure and every referenced binding cell-exact
                    // for this source, so filtering the *raw* payload (under
                    // the bound raw column names) keeps the union
                    // byte-identical while only surviving rows get mapped.
                    let filtered_raw: Option<Table> = match (placement, predicate) {
                        (FilterPlacement::Acquire, Some(pred)) => {
                            let pushed =
                                lower::pushdown_predicate(pred, table.schema(), target, mapping);
                            if track_scans {
                                let cols = wrangler_plan::predicate_columns(&pushed);
                                scan_filter_cells +=
                                    (table.num_rows() as u64) * cols.len() as u64;
                                scan_bytes += lower::columns_scan_bytes(table, &cols);
                            }
                            Some(ops::filter(table, &pushed)?)
                        }
                        _ => None,
                    };
                    let input = filtered_raw.as_ref().unwrap_or(table);
                    if track_scans {
                        scan_map_cells += (input.num_rows() as u64) * target.len() as u64;
                        scan_bytes += lower::table_scan_bytes(input);
                    }
                    // A mapping that errors against its own payload (e.g. an
                    // out-of-range binding, or a schema that drifted after
                    // the mapping was generated) condemns this source only.
                    let mut mapped = match guard.run(*id, || mapping.apply(input)) {
                        Guarded::Ok(m) => m,
                        Guarded::Quarantined => {
                            apply_removed.push(i);
                            continue;
                        }
                        Guarded::Fatal(e) => return Err(e),
                    };
                    // Post-map placement: the barrier is down but this
                    // source's bindings are not cell-exact, so filter the
                    // *mapped* rows before they reach the union.
                    if let (FilterPlacement::PostMap, Some(pred)) = (placement, predicate) {
                        if track_scans {
                            let cols = wrangler_plan::predicate_columns(pred);
                            scan_filter_cells += (mapped.num_rows() as u64) * cols.len() as u64;
                            scan_bytes += lower::columns_scan_bytes(&mapped, &cols);
                        }
                        mapped = ops::filter(&mapped, pred)?;
                    }
                    // Row budget: the logical deadline for an unbounded
                    // feed. Deterministic prefix keep. (Early filter
                    // placements require the barrier down, i.e. scans off,
                    // so the budget and the filter never both apply.)
                    if policy.scans_enabled() && mapped.num_rows() > policy.max_rows_per_source {
                        let excess = (mapped.num_rows() - policy.max_rows_per_source) as u64;
                        if let Some(err) = guard.deadline_excess(*id, "row budget", excess) {
                            return Err(err);
                        }
                        let keep = policy.max_rows_per_source;
                        mapped = mapped.retain_rows(|r| r < keep);
                    }
                    states[i].mapped = Some(mapped);
                    states[i].filter_tag = desired_tag;
                    working.work.tables_mapped += 1;
                    working.mark_clean(Artifact::MappedTable(i));
                }
            }
        }
        if !apply_removed.is_empty() {
            selected.retain(|id| !apply_removed.contains(&(id.0 as usize)));
            for i in apply_removed {
                self.discount_quarantined(i);
            }
            if selected.is_empty() {
                self.obs.end();
                return Err(TableError::Unavailable(
                    "all sources quarantined at map_apply; no survivors".into(),
                ));
            }
        }
        self.obs.count("map.applied", selected.len() as u64);
        self.obs.count("scan.map.cells", scan_map_cells);
        let out = ckpt_io::MapApplyOut {
            selected: selected.clone(),
            mapped: selected
                .iter()
                .filter_map(|id| {
                    let i = id.0 as usize;
                    self.states[i]
                        .mapped
                        .clone()
                        .map(|t| (i, t, self.states[i].filter_tag.clone()))
                })
                .collect(),
        }
        .encode();
        self.ckpt_save("map_apply", k_apply, creport, &out);
            }
        }
        self.obs.end();
        self.crash_fire(CrashSite::AfterMapApply);
        chain = k_apply;

        // 4. Union with provenance — and the poison firewall: every row is
        // scanned here, the last point where damage is still attributable
        // to one source, before rows from different sources interleave in
        // ER and fusion. Sources whose filter placement stayed `Union` have
        // the predicate fused into this loop, *after* the poison scan (the
        // `fuse-filter-into-union` rewrite) — a poison row is poison whether
        // or not it matches the filter, so containment decisions are
        // placement-independent.
        self.obs.begin("union");
        let k_union = if ckpt_on {
            Self::seam_key("union", pass_fp, chain, prog_fp)
        } else {
            0
        };
        // Union block layout of this pass: `(source, block key, rows)` per
        // contiguous block, in union order — the ER remap fast path's
        // coordinate system. Left empty when the engine is off or the union
        // replayed from a checkpoint (no keys to attest the blocks).
        let mut union_layout: Vec<(usize, u64, usize)> = Vec::new();
        let union: Vec<(usize, Vec<Value>)> = match self.ckpt_load("union", k_union, creport) {
            Some(out) => {
                let rec = ckpt_io::UnionOut::decode(&out)?;
                selected = rec.selected;
                self.obs.count("union.rows", rec.union.len() as u64);
                self.obs.count("union.filtered", rec.union_filtered);
                rec.union
            }
            None => {
        let inline_filter = match (&self.last_program, self.opt_mode) {
            (Some(p), OptMode::Optimized) => match p.predicate() {
                Some(e) => Some(e.bind(&self.target)?),
                None => None,
            },
            _ => None,
        };
        // Per-source block content keys: the pass/program fingerprints plus
        // everything this source's union block derives from — its effective
        // payload (the degraded delivery when there was one, the registry
        // content otherwise), its mapping, and the filter placement its
        // mapped table was computed under. Equal key ⇒ the live loop below
        // would reproduce the block byte-for-byte.
        let block_keys: BTreeMap<usize, u64> = if incr_on {
            selected
                .iter()
                .map(|id| {
                    let i = id.0 as usize;
                    let payload = match degraded_tables.get(&i) {
                        Some(t) => wire::table_hash(t),
                        None => self.registry.payload_hash(*id).unwrap_or(0),
                    };
                    let mapping =
                        wire::hash64(format!("{:?}", self.states[i].mapping).as_bytes());
                    let tag =
                        wire::hash64(format!("{:?}", self.states[i].filter_tag).as_bytes());
                    // Deliberately NOT the whole-program fingerprint: a dirty
                    // source's regenerated mapping changes its own Map node
                    // and with it the global IR hash, which would miss every
                    // clean block. The union loop reads only this source's
                    // slice of the program — its filter placement (the
                    // predicate text is pass_fp-covered) — so the key pins
                    // exactly that.
                    let place = self
                        .last_program
                        .as_ref()
                        .map(|p| format!("{:?}", p.placement_for(i)))
                        .unwrap_or_default();
                    let key = ContentKey::stage("union-block", pass_fp)
                        .labelled("place", wire::hash64(place.as_bytes()))
                        .labelled("src", i as u64)
                        .input(payload)
                        .input(mapping)
                        .input(tag)
                        .finish();
                    (i, key)
                })
                .collect()
        } else {
            BTreeMap::new()
        };
        let mut scan_union_cells = 0u64;
        let mut union_filtered = 0u64;
        let mut union: Vec<(usize, Vec<Value>)> = Vec::new();
        let mut union_removed: Vec<usize> = Vec::new();
        let mut blocks_reused = 0u64;
        let mut blocks_recomputed = 0u64;
        let mut rows_reused = 0u64;
        let mut cells_skipped = 0u64;
        let mut bytes_skipped = 0u64;
        {
            let program = self.last_program.as_ref();
            let states = &self.states;
            let incr_engine = &mut self.incr;
            let mut guard = StageGuard::new(Stage::Union, &policy, creport);
            for id in &selected {
                let i = id.0 as usize;
                let mapped = states[i]
                    .mapped
                    .as_ref()
                    .ok_or_else(|| TableError::Invalid(format!("{id}: not mapped")))?;
                // Early-placed sources arrive pre-filtered; only
                // `Union`-placed ones filter here.
                let filter_here = inline_filter.as_ref().filter(|_| {
                    program
                        .map(|p| p.placement_for(i) == FilterPlacement::Union)
                        .unwrap_or(true)
                });
                // Proof-carrying reuse: replay this source's memoized block
                // only under a matching content key AND the analyzer's
                // verified fact that the block is isolated to this source.
                let block_key = block_keys.get(&i).copied();
                let partition_isolated = program
                    .map(|p| p.holds(&wrangler_plan::Fact::PartitionIsolated { source: i }))
                    .unwrap_or(false);
                if let (Some(key), true) = (block_key, partition_isolated) {
                    if let Some(memo) = incr_engine.blocks.get(&i) {
                        if memo.key == key {
                            union_filtered += memo.filtered;
                            blocks_reused += 1;
                            rows_reused += memo.rows.len() as u64;
                            cells_skipped += memo.scan_cells;
                            bytes_skipped += memo.scan_bytes;
                            union_layout.push((i, key, memo.rows.len()));
                            union.extend(memo.rows.iter().map(|row| (i, row.clone())));
                            continue;
                        }
                    }
                }
                let mut this_cells = 0u64;
                let mut this_bytes = 0u64;
                if track_scans {
                    this_cells = (mapped.num_rows() as u64) * mapped.num_columns() as u64;
                    this_bytes = lower::table_scan_bytes(mapped);
                    scan_union_cells += this_cells;
                    scan_bytes += this_bytes;
                }
                let mut poison = 0u64;
                let mut filtered_out = 0u64;
                let abort_scan = policy.mode != ContainMode::Contain;
                let rows = guard.run(*id, || {
                    let mut out: Vec<(usize, Vec<Value>)> = Vec::with_capacity(mapped.num_rows());
                    for row in mapped.iter_rows() {
                        if policy.scans_enabled() {
                            if let Some(reason) = poison_reason(&row, &policy) {
                                if abort_scan {
                                    return Err(TableError::Unavailable(format!(
                                        "src{i}: {reason}"
                                    )));
                                }
                                poison += 1;
                                continue;
                            }
                        }
                        if let Some(bound) = filter_here {
                            if !bound.eval_predicate(&row)? {
                                filtered_out += 1;
                                continue;
                            }
                        }
                        out.push((i, row));
                    }
                    Ok(out)
                });
                if track_scans && filter_here.is_some() {
                    let cols = program
                        .and_then(|p| p.predicate())
                        .map(|e| wrangler_plan::predicate_columns(e).len() as u64)
                        .unwrap_or(0);
                    scan_filter_cells += (mapped.num_rows() as u64) * cols;
                }
                union_filtered += filtered_out;
                match rows {
                    Guarded::Ok(rows) => {
                        if poison > 0 {
                            guard.report_mut().drop_rows(Stage::Union, poison);
                            if poison as usize >= policy.poison_row_threshold {
                                // Repeated poison is a condemned feed, not
                                // line noise: eject the source entirely.
                                guard.flag(
                                    *id,
                                    &format!(
                                        "{poison} poison rows (threshold {})",
                                        policy.poison_row_threshold
                                    ),
                                );
                                union_removed.push(i);
                                continue;
                            }
                        }
                        blocks_recomputed += 1;
                        if let Some(key) = block_key {
                            union_layout.push((i, key, rows.len()));
                            // Memoize only clean blocks: a poisoned one must
                            // recompute live so its row-drop side effects land
                            // in every pass's containment report. Store only
                            // under the isolation fact — an unprovable block
                            // would never be eligible for replay anyway.
                            if partition_isolated && poison == 0 {
                                incr_engine.blocks.insert(
                                    i,
                                    BlockMemo {
                                        key,
                                        rows: rows.iter().map(|(_, r)| r.clone()).collect(),
                                        filtered: filtered_out,
                                        scan_cells: this_cells,
                                        scan_bytes: this_bytes,
                                    },
                                );
                            }
                        }
                        union.extend(rows);
                    }
                    Guarded::Quarantined => {
                        union_removed.push(i);
                    }
                    Guarded::Fatal(e) => return Err(e),
                }
            }
        }
        if !union_removed.is_empty() {
            selected.retain(|id| !union_removed.contains(&(id.0 as usize)));
            for i in union_removed {
                self.discount_quarantined(i);
            }
            if selected.is_empty() {
                self.obs.end();
                return Err(TableError::Unavailable(
                    "all sources quarantined at union; no survivors".into(),
                ));
            }
        }
        // Naive execution runs the filter as its own pass over the
        // materialized union — the extra full scan the optimizer's
        // placements avoid. Both modes feed ER the identical filtered union:
        // poison/budget decisions happened before either filter site.
        if self.opt_mode == OptMode::Naive {
            if let Some(pred) = &self.row_filter {
                let bound = pred.bind(&self.target)?;
                if track_scans {
                    let cols: Vec<usize> = wrangler_plan::predicate_columns(pred)
                        .iter()
                        .map(|n| self.target.index_of(n))
                        .collect::<wrangler_table::Result<_>>()?;
                    scan_filter_cells += (union.len() as u64) * cols.len() as u64;
                    for (_, row) in &union {
                        for &c in &cols {
                            scan_bytes += lower::value_bytes(&row[c]);
                        }
                    }
                }
                let mut kept = Vec::with_capacity(union.len());
                for (src, row) in union {
                    if bound.eval_predicate(&row)? {
                        kept.push((src, row));
                    } else {
                        union_filtered += 1;
                    }
                }
                union = kept;
                // The post-union filter just shifted row indices out from
                // under the block layout; ER falls back to the content-keyed
                // pair cache (always sound) instead of index remapping.
                union_layout.clear();
            }
        }
        self.obs.count("union.rows", union.len() as u64);
        self.obs.count("union.filtered", union_filtered);
        self.obs.count("scan.union.cells", scan_union_cells);
        self.obs.count("scan.filter.cells", scan_filter_cells);
        self.obs.count("scan.bytes", scan_bytes);
        if incr_on {
            self.obs.count("incr.union.reused", blocks_reused);
            self.obs.count("incr.union.recomputed", blocks_recomputed);
            self.obs.count("incr.union.rows_reused", rows_reused);
            self.obs.count("incr.union.cells_skipped", cells_skipped);
            self.obs.count("incr.union.bytes_skipped", bytes_skipped);
        }
        let out = ckpt_io::UnionOut {
            selected: selected.clone(),
            union: union.clone(),
            union_filtered,
        }
        .encode();
        self.ckpt_save("union", k_union, creport, &out);
        union
            }
        };
        self.crash_fire(CrashSite::AfterUnion);
        chain = k_union;

        // 5. Entity resolution over the union.
        let union_table = {
            let mut t = Table::empty(self.target.clone());
            for (_, row) in &union {
                t.push_row(row.clone())?;
            }
            t
        };
        self.obs.end();
        let union_srcs: Vec<usize> = union.iter().map(|(s, _)| *s).collect();
        let union_hash = if incr_on {
            wire::table_hash(&union_table)
        } else {
            0
        };
        let er_key = if incr_on {
            ContentKey::stage("incr-er", pass_fp)
                .labelled("prog", prog_fp)
                .input(union_hash)
                .finish()
        } else {
            0
        };
        // An explicitly dirtied clustering (ER rule refined, plan shape
        // changed, a test forcing recompute) must run live — both the
        // whole-stage replay and the index-remap fast path stand down.
        let er_reusable = incr_on && !self.working.is_dirty(Artifact::Clusters);
        let er_hit = er_reusable && self.incr.er.as_ref().is_some_and(|m| m.key == er_key);
        let k_er = if ckpt_on {
            Self::seam_key("er", pass_fp, chain, prog_fp)
        } else {
            0
        };
        let er = if er_hit {
            // Whole-stage replay: the union content is unchanged, so the
            // memoized clustering is byte-identical to a recompute. No "er"
            // span is opened — a zero-duration span would deflate the
            // stage's share in `stage_shares` — the reuse surfaces as an
            // explicit counter, and the replay's own (tiny) cost gets its
            // own honestly-named span.
            self.obs.begin("er_replay");
            let memo = self.incr.er.as_ref().expect("er_hit checked above"); // lint-allow: guarded by er_hit
            let er = ErStageOutcome {
                clusters: memo.clusters.clone(),
                row_entity: memo.row_entity.clone(),
            };
            self.working.mark_clean(Artifact::Clusters);
            self.obs.inc("incr.er.reused");
            if ckpt_on {
                let out = ckpt_io::ErOut {
                    clusters: er.clusters.clone(),
                    row_entity: er.row_entity.clone(),
                }
                .encode();
                self.ckpt_save("er", k_er, creport, &out);
            }
            self.obs.end();
            er
        } else {
            self.obs.begin("er");
            // ER has no per-source partition (rows from every source
            // interleave in the candidate pairs), so a panic here cannot be
            // pinned on one source and quarantined — but it can still be
            // *caught* and turned into a structured error instead of
            // unwinding through the session.
            let er = match self.ckpt_load("er", k_er, creport) {
                Some(out) => {
                    let rec = ckpt_io::ErOut::decode(&out)?;
                    self.working.mark_clean(Artifact::Clusters);
                    self.obs.count("er.entities", rec.clusters.len() as u64);
                    ErStageOutcome {
                        clusters: rec.clusters,
                        row_entity: rec.row_entity,
                    }
                }
                None => {
                    let er_ctx = ErIncrCtx {
                        layout: &union_layout,
                        union_srcs: &union_srcs,
                        er_key,
                        pass_fp,
                        prog_fp,
                        store: incr_on,
                        remap: er_reusable,
                    };
                    let er = if policy.is_off() {
                        self.er_stage(&union_table, &er_ctx)?
                    } else {
                        match catch_quiet(|| self.er_stage(&union_table, &er_ctx)) {
                            Ok(r) => r?,
                            Err(msg) => {
                                creport.caught_panic(Stage::Er);
                                self.obs.end();
                                return Err(TableError::Unavailable(format!(
                                    "er stage panicked: {msg}"
                                )));
                            }
                        }
                    };
                    if ckpt_on {
                        let out = ckpt_io::ErOut {
                            clusters: er.clusters.clone(),
                            row_entity: er.row_entity.clone(),
                        }
                        .encode();
                        self.ckpt_save("er", k_er, creport, &out);
                    }
                    er
                }
            };
            self.obs.end();
            er
        };
        let ErStageOutcome {
            clusters,
            row_entity,
        } = er;
        self.crash_fire(CrashSite::AfterEr);
        chain = k_er;

        // 6. Claims + trust. Fuse-stage chaos rolls first: a source whose
        // partition "panics" here is quarantined before its claims enter
        // the claim set, so its values cannot influence fusion.
        //
        // The fuse content key covers every input that can ripple into a
        // fused value beyond the pass/program fingerprints: the union and
        // clustering content, every source's belief trust (feedback moves
        // it), every source's age (fusion decays stale claims), and the
        // master catalog (anchors steer truthfinder). A 1-source data
        // update legitimately misses here — its claims shift everyone's
        // estimated trust — so fusion recomputes; pure replays hit.
        let fuse_key = if incr_on {
            let mut h = wire::Hasher64::new();
            h.write_u64(pass_fp).write_u64(prog_fp).write_u64(union_hash);
            for &e in &row_entity {
                h.write_u64(e as u64);
            }
            for s in &self.states {
                h.write_u64(s.trust.probability().to_bits());
            }
            for s in self.registry.iter() {
                h.write_u64(self.now.saturating_sub(s.meta.last_updated));
            }
            match self.data_ctx.master("product") {
                Some(m) => {
                    h.write_u64(wire::table_hash(&m.table));
                    h.write_str(&m.key_column);
                }
                None => {
                    h.write_u64(0);
                }
            }
            h.write_u64(self.registry.len() as u64);
            h.finish()
        } else {
            0
        };
        let fuse_hit = incr_on && self.incr.fuse.as_ref().is_some_and(|m| m.key == fuse_key);
        let k_fuse = if ckpt_on {
            Self::seam_key("fuse", pass_fp, chain, prog_fp)
        } else {
            0
        };
        #[allow(clippy::type_complexity)]
        let (claims, source_ctx, fused): (
            ClaimSet,
            SourceContext,
            HashMap<(usize, usize), FusedValue>, // hash-ok: keyed by slot, read via get()
        ) = if fuse_hit {
            // Whole-stage replay. No "fuse" span is opened — a near-zero
            // span would deflate the stage's share in `stage_shares` — but
            // the replay's own cost (rebuilding claims from the union) is
            // honestly attributed to its own span. The memo only ever
            // stores passes where no source was quarantined at fuse, so no
            // exclusions apply.
            self.obs.begin("fuse_replay");
            let memo = self.incr.fuse.as_ref().expect("fuse_hit checked above"); // lint-allow: guarded by fuse_hit
            let source_ctx = SourceContext {
                trust: memo.trust.clone(),
                age: memo.age.clone(),
            };
            let fused: HashMap<(usize, usize), FusedValue> = memo // hash-ok: keyed by slot, read via get()
                .fused
                .iter()
                .map(|(e, a, f)| ((*e, *a), f.clone()))
                .collect();
            let memo_fused = memo.fused.clone();
            let mut claims = ClaimSet::new(self.registry.len());
            claims.rel_tol = plan.fusion_tolerance;
            for (r, (src, row)) in union.iter().enumerate() {
                for (a, v) in row.iter().enumerate() {
                    claims.add(row_entity[r], a, v.clone(), *src);
                }
            }
            for (e, a) in claims.slots() {
                self.working.mark_clean(Artifact::FusedSlot(e, a));
            }
            self.obs.inc("incr.fuse.reused");
            if ckpt_on {
                let out = ckpt_io::FuseOut {
                    selected: selected.clone(),
                    fuse_removed: Vec::new(),
                    trust: source_ctx.trust.clone(),
                    age: source_ctx.age.clone(),
                    fused: memo_fused,
                }
                .encode();
                self.ckpt_save("fuse", k_fuse, creport, &out);
            }
            self.obs.end();
            (claims, source_ctx, fused)
        } else {
            self.obs.begin("fuse");
            let result = match self.ckpt_load("fuse", k_fuse, creport) {
            Some(out) => {
                let rec = ckpt_io::FuseOut::decode(&out)?;
                selected = rec.selected;
                // Claims are rebuilt live from the (already restored) union
                // and clustering — cheap, and it keeps the heavy claim set
                // out of the wire format. Quarantined-at-fuse sources are
                // excluded exactly as the cold run excluded them; their
                // trust/breaker discounts replayed from the snapshot.
                let mut claims = ClaimSet::new(self.registry.len());
                claims.rel_tol = plan.fusion_tolerance;
                for (r, (src, row)) in union.iter().enumerate() {
                    if rec.fuse_removed.contains(src) {
                        continue;
                    }
                    for (a, v) in row.iter().enumerate() {
                        claims.add(row_entity[r], a, v.clone(), *src);
                    }
                }
                for (e, a) in claims.slots() {
                    self.working.mark_clean(Artifact::FusedSlot(e, a));
                }
                let source_ctx = SourceContext {
                    trust: rec.trust,
                    age: rec.age,
                };
                let fused: HashMap<(usize, usize), FusedValue> = // hash-ok: keyed by slot, read via get()
                    rec.fused.into_iter().map(|(e, a, f)| ((e, a), f)).collect();
                (claims, source_ctx, fused)
            }
            None => {
        let mut fuse_removed: Vec<usize> = Vec::new();
        {
            let mut guard = StageGuard::new(Stage::Fuse, &policy, creport);
            for id in &selected {
                match guard.run(*id, || Ok(())) {
                    Guarded::Ok(()) => {}
                    Guarded::Quarantined => fuse_removed.push(id.0 as usize),
                    Guarded::Fatal(e) => return Err(e),
                }
            }
        }
        if !fuse_removed.is_empty() {
            selected.retain(|id| !fuse_removed.contains(&(id.0 as usize)));
            if selected.is_empty() {
                for i in fuse_removed {
                    self.discount_quarantined(i);
                }
                self.obs.end();
                return Err(TableError::Unavailable(
                    "all sources quarantined at fuse; no survivors".into(),
                ));
            }
        }
        let mut claims = ClaimSet::new(self.registry.len());
        claims.rel_tol = plan.fusion_tolerance;
        for (r, (src, row)) in union.iter().enumerate() {
            if fuse_removed.contains(src) {
                continue;
            }
            for (a, v) in row.iter().enumerate() {
                claims.add(row_entity[r], a, v.clone(), *src);
            }
        }
        for &i in &fuse_removed {
            self.discount_quarantined(i);
        }
        // Master-data anchors for the attributes the catalog knows.
        let anchors = self.master_anchors(&claims, &clusters, &union);
        let tf = truthfinder(&claims, &TruthFinderConfig::default(), &anchors);
        // Blend data-driven trust with feedback-driven belief trust.
        let trust: Vec<f64> = (0..self.registry.len())
            .map(|i| 0.5 * tf.trust[i] + 0.5 * self.states[i].trust.probability())
            .collect();
        let age: Vec<u64> = self
            .registry
            .iter()
            .map(|s| self.now.saturating_sub(s.meta.last_updated))
            .collect();
        let source_ctx = SourceContext { trust, age };
        self.obs.count("fuse.claims", claims.claims.len() as u64);
        self.obs.count("fuse.anchors", anchors.len() as u64);

        // 7. Fuse every slot (honouring value-level feedback constraints).
        // Columns the projection never reads are dead at fuse: the
        // `skip-dead-fusion` rewrites (each citing its `DeadAtFuse` fact)
        // license skipping their fusion work entirely. Their claims stayed
        // in the claim set above, so trust estimation — and therefore every
        // *live* fused value — is unchanged.
        let live_mask: Option<Vec<bool>> = self
            .last_program
            .as_ref()
            .and_then(|p| p.live_mask().map(|m| m.to_vec()));
        // hash-ok: populated per sorted slot, consumed via get()
        let mut fused: HashMap<(usize, usize), FusedValue> = HashMap::new();
        let mut slots_fused = 0u64;
        let mut slots_skipped = 0u64;
        // Partition the slots: dead columns are skipped outright (the
        // `skip-dead-fusion` rewrite), slots pinned by a confirmation or
        // constrained by vetoes take the feedback-aware serial path, and
        // the plain majority go through the precompiled FuseKernel over the
        // blocked worker pool.
        let mut special_slots: Vec<(usize, usize)> = Vec::new();
        let mut plain_slots: Vec<(usize, usize)> = Vec::new();
        for (e, a) in claims.slots() {
            if live_mask.as_ref().is_some_and(|m| !m[a]) {
                slots_skipped += 1;
                self.working.mark_clean(Artifact::FusedSlot(e, a));
            } else if self.confirmations.contains_key(&(e, a)) || self.vetoes.contains_key(&(e, a))
            {
                special_slots.push((e, a));
            } else {
                plain_slots.push((e, a));
            }
        }
        for &(e, a) in &special_slots {
            // Per-slot isolation: a fusion strategy that panics on one
            // pathological slot costs that slot (delivered as Null), not
            // the pass.
            let slot_value = if policy.is_off() {
                self.fuse_slot(&claims, e, a, plan.fusion, &source_ctx)
            } else {
                match catch_quiet(|| self.fuse_slot(&claims, e, a, plan.fusion, &source_ctx)) {
                    Ok(v) => v,
                    Err(msg) => {
                        creport.caught_panic(Stage::Fuse);
                        if policy.mode != ContainMode::Contain {
                            self.obs.end();
                            return Err(TableError::Unavailable(format!(
                                "fuse slot ({e},{a}) panicked: {msg}"
                            )));
                        }
                        None
                    }
                }
            };
            if let Some(f) = slot_value {
                fused.insert((e, a), f);
            }
            slots_fused += 1;
            self.working.work.slots_fused += 1;
            self.working.mark_clean(Artifact::FusedSlot(e, a));
        }
        // Plain slots: per-source weights/decays are compiled once per pass,
        // then slots fuse in contiguous blocked chunks — bit-identical to
        // the serial fuse_attribute path for any worker count. Worker panics
        // surface per slot (catch inside the chunk) so one pathological slot
        // cannot take down its chunk; a panic escaping the pool itself is
        // the structured-error backstop, as in the ER kernel.
        let fuse_kernel = FuseKernel::compile(&claims, plan.fusion, &source_ctx);
        let requested = self.fuse_workers.unwrap_or_else(par::available_parallelism);
        let workers = par::effective_workers(requested, plain_slots.len(), MIN_SLOTS_PER_WORKER);
        let contained = !policy.is_off();
        let (chunks, fuse_worker_stats) = par::run_blocked(&plain_slots, workers, |_, chunk| {
            chunk
                .iter()
                .map(|&(e, a)| {
                    if contained {
                        catch_quiet(|| fuse_kernel.fuse_slot(e, a))
                    } else {
                        Ok(fuse_kernel.fuse_slot(e, a))
                    }
                })
                .collect::<Vec<Result<Option<FusedValue>, String>>>()
        })
        .map_err(|msg| TableError::Unavailable(format!("fuse worker panicked: {msg}")))?;
        for (&(e, a), res) in plain_slots.iter().zip(chunks.into_iter().flatten()) {
            match res {
                Ok(Some(f)) => {
                    fused.insert((e, a), f);
                }
                Ok(None) => {}
                Err(msg) => {
                    creport.caught_panic(Stage::Fuse);
                    if policy.mode != ContainMode::Contain {
                        self.obs.end();
                        return Err(TableError::Unavailable(format!(
                            "fuse slot ({e},{a}) panicked: {msg}"
                        )));
                    }
                }
            }
            slots_fused += 1;
            self.working.work.slots_fused += 1;
            self.working.mark_clean(Artifact::FusedSlot(e, a));
        }
        for (w, st) in fuse_worker_stats.iter().enumerate() {
            self.obs.count(&format!("fuse.worker{w}.items"), st.items);
            self.obs.record_nanos(&format!("worker{w}"), st.busy_nanos, 1);
        }
        self.obs.count("fuse.slots", slots_fused);
        self.obs.count("fuse.slots_skipped", slots_skipped);
        let mut sorted: Vec<(usize, usize, FusedValue)> = fused
            .iter()
            .map(|(&(e, a), f)| (e, a, f.clone()))
            .collect();
        sorted.sort_unstable_by_key(|&(e, a, _)| (e, a));
        // Memoize the stage for the next pass — only a pass with no
        // fuse-stage quarantine (chaos is off whenever `incr_on` holds, and
        // chaos rolls are the only quarantine source here, but be explicit).
        if incr_on && fuse_removed.is_empty() {
            self.incr.fuse = Some(FuseMemo {
                key: fuse_key,
                trust: source_ctx.trust.clone(),
                age: source_ctx.age.clone(),
                fused: sorted.clone(),
            });
        }
        let out = ckpt_io::FuseOut {
            selected: selected.clone(),
            fuse_removed: fuse_removed.clone(),
            trust: source_ctx.trust.clone(),
            age: source_ctx.age.clone(),
            fused: sorted,
        }
        .encode();
        self.ckpt_save("fuse", k_fuse, creport, &out);
        (claims, source_ctx, fused)
            }
            };
            self.obs.end();
            result
        };
        self.crash_fire(CrashSite::AfterFuse);

        self.cache = Some(WrangleCache {
            union,
            row_entity,
            entities: clusters.len(),
            claims,
            source_ctx,
            fused,
            selected: selected.clone(),
        });
        self.working.mark_clean(Artifact::Result);
        let mut outcome = if policy.is_off() {
            self.assemble(&plan)?
        } else {
            // Assembly panics (like ER panics) have no per-source partition
            // to quarantine; they become structured errors.
            match catch_quiet(|| self.assemble(&plan)) {
                Ok(r) => r?,
                Err(msg) => {
                    creport.caught_panic(Stage::Assemble);
                    return Err(TableError::Unavailable(format!(
                        "assemble stage panicked: {msg}"
                    )));
                }
            }
        };
        self.obs.end(); // close the "wrangle" root span
        outcome.metrics = self.obs.report();
        Ok(outcome)
    }

    /// ER candidate pairs over a union table: blocked on the name-ish column
    /// AND the key column, so rows whose name is null or typo-prefixed
    /// still meet their duplicates through the key. Sorted, deduplicated.
    fn er_candidates(&self, union_table: &Table) -> wrangler_table::Result<Vec<(usize, usize)>> {
        let key_col = &self.target.fields()[0].name;
        wrangler_resolve::er_candidates(union_table, &blocking_column(&self.target), key_col)
    }

    /// The ER section of a wrangle: candidate generation (blocked on name +
    /// key), memo replay of clean pairs, kernel scoring of the rest through
    /// the content-keyed pair cache, match filtering, clustering and memo
    /// storage — each timed as a child span of `er` (`candidates`,
    /// `compile`, `replay`, `score`, `cluster`, `memo`). Factored out so
    /// `wrangle_contained` can run it under panic isolation.
    fn er_stage(
        &mut self,
        union_table: &Table,
        ctx: &ErIncrCtx<'_>,
    ) -> wrangler_table::Result<ErStageOutcome> {
        // Each timed step is a child span of `er`; worker busy time is
        // recorded after they close, so it lands at `er/workerN`.
        self.obs.begin("candidates");
        let candidates = self.er_candidates(union_table)?;
        self.working.work.er_pairs += candidates.len();
        self.obs.end();
        // Mid-stage crash site: after candidate generation, before scoring —
        // the worst place to die (ER dominates wall-clock), which is exactly
        // why the harness injects here. No seam has persisted for this
        // stage yet, so resume replays up to the union and re-runs ER.
        self.crash_fire(CrashSite::MidEr);
        // Score through the precompiled kernel: the ER config is compiled
        // once against the union schema (an unknown column errors before any
        // scoring), per-row renderings/token sets are cached, and only
        // distinct content pairs the session has not scored before reach the
        // worker pool — the rest come from the content-keyed pair-score
        // cache or copy the score of an earlier pair with the same content.
        // Clusters and scores are byte-identical to the serial path for any
        // worker count.
        self.obs.begin("compile");
        let kernel = ErKernel::compile(union_table, &self.er_cfg)?;
        self.obs.end();
        // The index-remap fast path: when the previous pass's memo was built
        // under the same fingerprints and both layouts cover their unions,
        // rows of unchanged blocks map old→new by offset, and clean-clean
        // candidate pairs replay their scores through a merge-join against
        // the memo — no content key is rendered, and the pair cache is not
        // consulted. Pairs touching changed rows fall through to the
        // content-keyed cache path, which is always sound.
        self.obs.begin("replay");
        let layout_rows: usize = ctx.layout.iter().map(|&(_, _, n)| n).sum();
        let memo = self.incr.er.as_ref().filter(|m| {
            // pass_fp pins the scoring config; the per-block keys in the
            // layout pin row content. The whole-program fingerprint is
            // deliberately not required — a dirty source's regenerated
            // mapping shifts it without touching any clean row.
            ctx.remap
                && layout_rows == union_table.num_rows()
                && m.pass_fp == ctx.pass_fp
                && m.layout.iter().map(|&(_, _, n)| n).sum::<usize>() == m.row_entity.len()
        });
        let incr::ErReplay { mut scores, todo } = match memo {
            Some(m) => m.replay(&incr::remap_rows(&m.layout, ctx.layout), &candidates),
            None => incr::ErReplay {
                scores: vec![0.0; candidates.len()],
                todo: (0..candidates.len()).collect(),
            },
        };
        let remapped = (candidates.len() - todo.len()) as u64;
        let todo_pairs: Vec<(usize, usize)> = todo.iter().map(|&k| candidates[k]).collect();
        self.obs.end();
        // The kernel's pool-sizing policy (cores cap + MIN_PAIRS_PER_WORKER)
        // applies on top of the requested width.
        self.obs.begin("score");
        let workers = self.er_workers.unwrap_or_else(par::available_parallelism);
        let (todo_scores, pass) =
            self.working
                .pair_scores
                .score_pass(&kernel, &todo_pairs, ctx.union_srcs, |p| {
                    kernel.score_pairs_parallel(p, workers)
                })?;
        for (&k, s) in todo.iter().zip(todo_scores) {
            scores[k] = s;
        }
        self.obs.end();
        self.obs.begin("cluster");
        let pairs = kernel.filter_matches(&candidates, &scores);
        let clusters = cluster_pairs(union_table.num_rows(), pairs.iter().map(|p| (p.i, p.j)));
        let mut row_entity = vec![0usize; union_table.num_rows()];
        for (e, cluster) in clusters.iter().enumerate() {
            for &r in cluster {
                row_entity[r] = e;
            }
        }
        self.working.mark_clean(Artifact::Clusters);
        self.obs.end();
        if ctx.store {
            self.obs.begin("memo");
            // Candidates ascend by (i, j) with i < j, so their packed keys
            // are already in the order `ErMemo::replay` searches.
            let packed: Vec<(u64, f64)> = candidates
                .iter()
                .zip(&scores)
                .map(|(&(i, j), &s)| (incr::pack_pair(i, j), s))
                .collect();
            debug_assert!(packed.windows(2).all(|w| w[0].0 < w[1].0));
            let layout = if layout_rows == union_table.num_rows() {
                ctx.layout.to_vec()
            } else {
                Vec::new()
            };
            self.incr.er = Some(ErMemo {
                key: ctx.er_key,
                pass_fp: ctx.pass_fp,
                prog_fp: ctx.prog_fp,
                clusters: clusters.clone(),
                row_entity: row_entity.clone(),
                layout,
                scores: packed,
            });
            self.obs.end();
        }
        for (w, st) in pass.workers.iter().enumerate() {
            self.obs.count(&format!("er.worker{w}.items"), st.items);
            self.obs.record_nanos(&format!("worker{w}"), st.busy_nanos, 1);
        }
        self.obs.count("er.cache.hits", pass.hits);
        self.obs.count("er.cache.deduped", pass.deduped);
        self.obs.count("er.cache.misses", pass.misses);
        self.obs.count("incr.er.pairs_remapped", remapped);
        self.obs.count("er.candidates", candidates.len() as u64);
        self.obs.count("er.match_pairs", pairs.len() as u64);
        self.obs.count("er.entities", clusters.len() as u64);
        Ok(ErStageOutcome {
            clusters,
            row_entity,
        })
    }

    /// Incrementally re-wrangle after feedback: re-fuse only dirty slots with
    /// the updated trust. Falls back to a full wrangle when structural
    /// artifacts (mappings, clusters) are dirty or no cache exists.
    pub fn rewrangle(&mut self) -> wrangler_table::Result<WrangleOutcome> {
        let structural_dirty = self.cache.is_none()
            || self.working.is_dirty(Artifact::Clusters)
            || self.cache.as_ref().is_some_and(|c| {
                c.selected.iter().any(|id| {
                    let i = id.0 as usize;
                    self.working.is_dirty(Artifact::Mapping(i))
                        || self.working.is_dirty(Artifact::MappedTable(i))
                })
            });
        if structural_dirty {
            return self.wrangle();
        }
        let plan = self.plan();
        self.obs.start_pass();
        self.obs.begin("rewrangle");
        self.obs.inc("pass.rewrangle");
        // Refresh the trust vector from beliefs (feedback may have moved it).
        let mut cache = self.cache.take().expect("checked above"); // lint-allow: presence checked by the guard above
        for i in 0..self.registry.len() {
            let blended =
                0.5 * cache.source_ctx.trust[i].min(1.0) + 0.5 * self.states[i].trust.probability();
            cache.source_ctx.trust[i] = blended;
        }
        self.obs.begin("refuse");
        let mut refused = 0u64;
        for (e, a) in self.working.dirty_slots() {
            match self.fuse_slot(&cache.claims, e, a, plan.fusion, &cache.source_ctx) {
                Some(f) => {
                    cache.fused.insert((e, a), f);
                }
                // All claims vetoed: the slot has no deliverable value left.
                None => {
                    cache.fused.remove(&(e, a));
                }
            }
            refused += 1;
            self.working.work.slots_fused += 1;
            self.working.mark_clean(Artifact::FusedSlot(e, a));
        }
        self.obs.count("refuse.slots", refused);
        self.obs.end();
        self.cache = Some(cache);
        self.working.mark_clean(Artifact::Result);
        let mut outcome = self.assemble(&plan)?;
        self.obs.end(); // close the "rewrangle" root span
        outcome.metrics = self.obs.report();
        // An incremental pass re-fuses cached artifacts; the containment
        // picture is still the one from the last full wrangle.
        outcome.containment = self.last_containment.clone();
        Ok(outcome)
    }

    /// Fuse one slot, honouring confirmed and vetoed values from direct
    /// feedback: a confirmed value is pinned at full confidence; a vetoed
    /// value can never win again (its supporting claims are excluded).
    fn fuse_slot(
        &self,
        claims: &ClaimSet,
        e: usize,
        a: usize,
        strategy: wrangler_fusion::Strategy,
        ctx: &SourceContext,
    ) -> Option<FusedValue> {
        if let Some(v) = self.confirmations.get(&(e, a)) {
            return Some(FusedValue {
                value: v.clone(),
                weight: 1.0,
                total_weight: 1.0,
                supporters: Vec::new(),
                freshness: 1.0,
            });
        }
        match self.vetoes.get(&(e, a)) {
            None => fuse_attribute(claims, e, a, strategy, ctx),
            Some(vetoed) => {
                // Rebuild the slot without claims agreeing with any veto.
                let mut filtered = ClaimSet::new(claims.num_sources);
                filtered.rel_tol = claims.rel_tol;
                for c in claims.slot(e, a) {
                    let banned = vetoed
                        .iter()
                        .any(|v| wrangler_fusion::values_agree(v, &c.value, claims.rel_tol));
                    if !banned {
                        filtered.add(c.entity, c.attr, c.value.clone(), c.source);
                    }
                }
                fuse_attribute(&filtered, e, a, strategy, ctx)
            }
        }
    }

    /// Master-data anchors: for entities whose key is in the catalog, the
    /// catalog's values of shared attributes are known-true.
    fn master_anchors(
        &self,
        _claims: &ClaimSet,
        clusters: &[Vec<usize>],
        union: &[(usize, Vec<Value>)],
    ) -> Vec<(usize, usize, Value)> {
        let Some(master) = self.data_ctx.master("product") else {
            return Vec::new();
        };
        let Ok(key_idx) = self.target.index_of(&master.key_column) else {
            return Vec::new();
        };
        let mut anchors = Vec::new();
        for (e, cluster) in clusters.iter().enumerate() {
            // The entity's key: first non-null key claim found in the master.
            let key = cluster.iter().find_map(|&r| {
                let v = &union[r].1[key_idx];
                if !v.is_null() && master.contains_key(v) {
                    Some(v.clone())
                } else {
                    None
                }
            });
            let Some(key) = key else { continue };
            for (a, field) in self.target.fields().iter().enumerate() {
                if field.name == master.key_column {
                    continue;
                }
                if let Some(truth) = master.lookup(&key, &field.name) {
                    if !truth.is_null() {
                        anchors.push((e, a, truth));
                    }
                }
            }
        }
        anchors
    }

    /// Assemble the wrangled table and its quality report from the cache.
    fn assemble(&mut self, plan: &Plan) -> wrangler_table::Result<WrangleOutcome> {
        self.obs.begin("assemble");
        let cache = self.cache.as_ref().expect("assemble requires a cache"); // lint-allow: wrangle() populates the cache before assemble()
        // The delivered attributes are the plan's output projection (all
        // target columns when none was requested). Both execution modes
        // iterate the same projected set, so `_confidence` — the mean over
        // delivered projected values — is byte-identical across modes.
        let output_attrs: Vec<usize> = match self
            .last_program
            .as_ref()
            .and_then(|p| p.output_columns())
            .or_else(|| self.output_columns.clone())
        {
            Some(names) => names
                .iter()
                .map(|n| self.target.index_of(n))
                .collect::<wrangler_table::Result<_>>()?,
            None => (0..self.target.len()).collect(),
        };
        let mut fields: Vec<wrangler_table::Field> = output_attrs
            .iter()
            .map(|&a| self.target.fields()[a].clone())
            .collect();
        fields.push(wrangler_table::Field::new("_confidence", DataType::Float));
        let out_schema = Schema::new(fields)?;
        let mut table = Table::empty(out_schema);
        let mut conflict_free = 0usize;
        let mut slot_count = 0usize;
        let mut conf_sum = 0.0;
        let mut delivered = 0u64;
        let mut withheld = 0u64;
        for e in 0..cache.entities {
            let mut row = Vec::with_capacity(output_attrs.len() + 1);
            let mut row_conf = Vec::new();
            for &a in &output_attrs {
                match cache.fused.get(&(e, a)) {
                    Some(f) => {
                        let conf = f.confidence();
                        slot_count += 1;
                        conf_sum += conf;
                        if (conf - 1.0).abs() < 1e-12 {
                            conflict_free += 1;
                        }
                        // Confidence gating (Example 2's trade-off).
                        if conf >= plan.min_value_confidence {
                            row.push(f.value.clone());
                            row_conf.push(conf);
                            delivered += 1;
                        } else {
                            row.push(Value::Null);
                            withheld += 1;
                        }
                    }
                    None => row.push(Value::Null),
                }
            }
            let mean_conf = if row_conf.is_empty() {
                0.0
            } else {
                row_conf.iter().sum::<f64>() / row_conf.len() as f64
            };
            row.push(Value::Float(mean_conf));
            table.push_row(row)?;
        }
        table.reinfer_types();

        // Quality report.
        let profile = TableProfile::of(&table)?;
        let accuracy = if slot_count == 0 {
            0.0
        } else {
            conf_sum / slot_count as f64
        };
        let consistency = if slot_count == 0 {
            1.0
        } else {
            conflict_free as f64 / slot_count as f64
        };
        let mean_age = {
            let sel = &cache.selected;
            if sel.is_empty() {
                0
            } else {
                let mut total = 0u64;
                for id in sel {
                    total += self
                        .now
                        .saturating_sub(self.source(*id)?.meta.last_updated);
                }
                total / sel.len() as u64
            }
        };
        let relevance =
            wrangler_quality::profile::master_relevance(&table, &self.data_ctx, "product");
        let cost_spent = self.access_spent + self.feedback.total_cost();
        let cost_fraction = if self.user.budget.is_infinite() || self.user.budget <= 0.0 {
            0.0
        } else {
            (cost_spent / self.user.budget).min(1.0)
        };
        let mut quality = quality_vector(
            &profile,
            &self.user,
            &ExternalSignals {
                age: mean_age,
                violation_rate: 1.0 - consistency,
                accuracy: Some(accuracy),
                relevance,
                cost_fraction,
            },
        );
        // Completeness should be judged against the catalog: entities found /
        // entities wanted, blended with field completeness.
        if let Some(master) = self.data_ctx.master("product") {
            let entity_cov = (cache.entities as f64 / master.len().max(1) as f64).min(1.0);
            let field_com = quality.get(Criterion::Completeness);
            quality = quality.with(Criterion::Completeness, 0.5 * entity_cov + 0.5 * field_com);
        }
        let utility = self.user.utility(&quality);
        self.obs.count("out.rows", table.num_rows() as u64);
        self.obs.count("out.entities", cache.entities as u64);
        self.obs.count("out.values_delivered", delivered);
        self.obs.count("out.values_withheld", withheld);
        self.obs.gauge("out.accuracy", accuracy);
        self.obs.gauge("out.consistency", consistency);
        self.obs.gauge("out.utility", utility);
        self.obs.end();
        Ok(WrangleOutcome {
            table,
            quality,
            utility,
            selected_sources: cache.selected.clone(),
            entities: cache.entities,
            cost_spent,
            skipped_sources: self.last_acquisition.skipped.clone(),
            degraded_sources: self.last_acquisition.degraded.clone(),
            acquisition_attempts: self.last_acquisition.attempts,
            acquisition_ticks: self.last_acquisition.ticks,
            lint: self.lint_report(),
            metrics: MetricsReport::default(),
            containment: ContainmentReport::default(),
        })
    }

    /// Receive one feedback item: record it, route it, apply the signals.
    /// Returns the number of component signals applied.
    pub fn give_feedback(&mut self, item: FeedbackItem) -> usize {
        // Provenance for value/tuple feedback from the cache.
        let provenance = match (&item.target, &self.cache) {
            (FeedbackTarget::Value { entity, attr, .. }, Some(cache)) => {
                match cache.fused.get(&(*entity, *attr)) {
                    Some(f) => {
                        let slot = cache.claims.slot(*entity, *attr);
                        let dissenters: Vec<usize> = slot
                            .iter()
                            .map(|c| c.source)
                            .filter(|s| !f.supporters.contains(s))
                            .collect();
                        ValueProvenance {
                            supporters: f.supporters.clone(),
                            dissenters,
                        }
                    }
                    None => ValueProvenance::default(),
                }
            }
            (FeedbackTarget::Tuple { entity }, Some(cache)) => {
                let mut supporters: Vec<usize> = cache
                    .claims
                    .claims
                    .iter()
                    .filter(|c| c.entity == *entity)
                    .map(|c| c.source)
                    .collect();
                supporters.sort_unstable();
                supporters.dedup();
                ValueProvenance {
                    supporters,
                    dissenters: Vec::new(),
                }
            }
            _ => ValueProvenance::default(),
        };
        // Direct slot constraints from reliable value feedback (both routing
        // modes: this is the minimal effect even the siloed regime applies).
        if item.reliability >= 0.8 {
            if let FeedbackTarget::Value {
                entity,
                attr,
                value,
            } = &item.target
            {
                let judged = value.clone().or_else(|| {
                    self.cache
                        .as_ref()
                        .and_then(|c| c.fused.get(&(*entity, *attr)))
                        .map(|f| f.value.clone())
                });
                if let Some(v) = judged {
                    if item.verdict.is_positive() {
                        self.confirmations.insert((*entity, *attr), v);
                    } else {
                        self.confirmations.remove(&(*entity, *attr));
                        self.vetoes.entry((*entity, *attr)).or_default().push(v);
                    }
                }
            }
        }
        let signals = route(&item, &provenance, self.routing);
        self.feedback.add(item);
        let n = signals.len();
        for s in signals {
            self.apply_signal(s);
        }
        self.obs.inc("feedback.items");
        self.obs.count("feedback.signals", n as u64);
        n
    }

    fn apply_signal(&mut self, signal: RoutedSignal) {
        match signal {
            RoutedSignal::SourceTrust {
                source,
                positive,
                reliability,
            } => {
                if let Some(state) = self.states.get_mut(source) {
                    let kind = if reliability >= 1.0 {
                        EvidenceKind::UserFeedback
                    } else {
                        EvidenceKind::CrowdFeedback
                    };
                    state
                        .trust
                        .update(&Evidence::vote(kind, positive, 0.85).discounted(reliability));
                    // Trust moved: slots this source claims need re-fusion.
                    if let Some(cache) = &self.cache {
                        let slots: Vec<(usize, usize)> = cache
                            .claims
                            .claims
                            .iter()
                            .filter(|c| c.source == source)
                            .map(|c| (c.entity, c.attr))
                            .collect();
                        for (e, a) in slots {
                            self.working.invalidate(Artifact::FusedSlot(e, a));
                        }
                    }
                    self.working.invalidate(Artifact::Result);
                }
            }
            RoutedSignal::MappingBelief {
                source,
                positive,
                reliability,
            } => {
                if let Some(state) = self.states.get_mut(source) {
                    if let Some(m) = &mut state.mapping {
                        wrangler_mapping::refine::record_feedback(m, positive, reliability);
                        // A collapsed mapping must be regenerated next time.
                        if m.belief.probability() < 0.15 {
                            self.working.invalidate(Artifact::Mapping(source));
                        }
                    }
                }
            }
            RoutedSignal::RefuseSlot { entity, attr } => {
                self.working.invalidate(Artifact::FusedSlot(entity, attr));
                self.working.invalidate(Artifact::Result);
            }
            RoutedSignal::ErLabel { .. } => {
                // Labels accumulate in the feedback store (added by caller);
                // `refine_er` consumes them on demand.
            }
            RoutedSignal::RecheckWrapper { source } => {
                self.working.invalidate(Artifact::Mapping(source));
                self.working.invalidate(Artifact::MappedTable(source));
                self.working.invalidate(Artifact::Clusters);
            }
            RoutedSignal::TupleRelevance { .. } => {
                // Relevance feedback currently informs source trust via
                // routing; a per-entity relevance model is future work.
            }
        }
    }

    /// The current entity-resolution rule (learnable via [`Self::refine_er`]).
    pub fn er_config(&self) -> &ErConfig {
        &self.er_cfg
    }

    /// Explain a delivered slot: the winning value, its supporters and
    /// dissenters (with their names and current trust), confidence, and any
    /// feedback constraints in force. `None` before the first wrangle or for
    /// claim-less slots.
    pub fn explain(&self, entity: usize, attr: usize) -> Option<SlotExplanation> {
        let cache = self.cache.as_ref()?;
        let fused = cache.fused.get(&(entity, attr))?;
        let slot = cache.claims.slot(entity, attr);
        let describe = |s: usize| SourceClaim {
            source: SourceId(s as u32),
            name: self
                .registry
                .get(SourceId(s as u32))
                .map(|x| x.meta.name.clone())
                .unwrap_or_default(),
            trust: cache.source_ctx.trust.get(s).copied().unwrap_or(0.5),
            value: slot
                .iter()
                .find(|c| c.source == s)
                .map(|c| c.value.clone())
                .unwrap_or(Value::Null),
        };
        let supporters: Vec<SourceClaim> = fused.supporters.iter().map(|&s| describe(s)).collect();
        let dissenters: Vec<SourceClaim> = slot
            .iter()
            .map(|c| c.source)
            .filter(|s| !fused.supporters.contains(s))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(describe)
            .collect();
        Some(SlotExplanation {
            value: fused.value.clone(),
            confidence: fused.confidence(),
            freshness: fused.freshness,
            supporters,
            dissenters,
            confirmed: self.confirmations.contains_key(&(entity, attr)),
            vetoed_values: self
                .vetoes
                .get(&(entity, attr))
                .cloned()
                .unwrap_or_default(),
        })
    }

    /// Number of union rows in the last wrangle (duplicate-pair feedback is
    /// expressed in union-row indices).
    pub fn union_len(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.union.len())
    }

    /// Entity id a union row was clustered into, if a wrangle has run.
    pub fn entity_of_union_row(&self, row: usize) -> Option<usize> {
        self.cache
            .as_ref()
            .and_then(|c| c.row_entity.get(row).copied())
    }

    /// Refine the ER rule from accumulated duplicate-pair labels (Corleone
    /// loop). Returns the achieved F1 on the labels, or `None` without a
    /// cache or labels.
    pub fn refine_er(&mut self) -> Option<f64> {
        let cache = self.cache.as_ref()?;
        let labels: Vec<LabeledPair> = self
            .feedback
            .duplicate_labels()
            .into_iter()
            .map(|(a, b, m, _)| LabeledPair {
                i: a,
                j: b,
                is_match: m,
            })
            .collect();
        if labels.is_empty() {
            return None;
        }
        let mut union_table = Table::empty(self.target.clone());
        for (_, row) in &cache.union {
            union_table.push_row(row.clone()).ok()?;
        }
        let old_f1 = wrangler_resolve::learn::evaluate(&union_table, &labels, &self.er_cfg)
            .ok()?
            .f1;
        let (cfg, f1) = refine_rule(&union_table, &labels, &self.er_cfg, 3).ok()?;
        // Adopt only a strict improvement on the labels...
        if f1.f1 <= old_f1 + 1e-9 {
            return Some(old_f1);
        }
        // ...that also passes a system-level sanity check: a handful of noisy
        // labels must not collapse or shatter the entity space. Re-cluster
        // with the candidate rule and require the entity count to stay within
        // a factor of the current one.
        let candidates = self.er_candidates(&union_table).ok()?;
        let pairs = ErKernel::compile(&union_table, &cfg)
            .ok()?
            .match_pairs(&candidates)
            .ok()?;
        let new_entities =
            cluster_pairs(union_table.num_rows(), pairs.iter().map(|p| (p.i, p.j))).len();
        let old_entities = cache.entities.max(1);
        let ratio = new_entities as f64 / old_entities as f64;
        if !(0.6..=1.67).contains(&ratio) {
            return Some(old_f1);
        }
        self.er_cfg = cfg;
        self.working.invalidate(Artifact::Clusters);
        // The rule changed, so every cached pair score is stale: the cache
        // is invalidated alongside the clusters it fed. (This is the one
        // site where a *full* clear is right — data updates go through the
        // partition-scoped `evict_sources` in `update_source` instead.)
        self.working.pair_scores.clear();
        self.incr.clear();
        Some(f1.f1)
    }

    /// The union table of the last wrangle (the ER kernel's input), rebuilt
    /// from the cache. `None` before the first wrangle. Experiment harnesses
    /// use this to benchmark the measured hot path on the real workload.
    pub fn union_table(&self) -> Option<Table> {
        let cache = self.cache.as_ref()?;
        let mut t = Table::empty(self.target.clone());
        for (_, row) in &cache.union {
            t.push_row(row.clone()).ok()?;
        }
        Some(t)
    }
}

/// One source's stance on an explained slot.
#[derive(Debug, Clone)]
pub struct SourceClaim {
    /// Source id.
    pub source: SourceId,
    /// Source name.
    pub name: String,
    /// Current (blended) trust in the source.
    pub trust: f64,
    /// The value it claimed for the slot.
    pub value: Value,
}

/// Why a delivered value is what it is (see [`Wrangler::explain`]).
#[derive(Debug, Clone)]
pub struct SlotExplanation {
    /// The winning value.
    pub value: Value,
    /// Delivered confidence.
    pub confidence: f64,
    /// Freshness factor of the winning evidence.
    pub freshness: f64,
    /// Sources supporting the winner.
    pub supporters: Vec<SourceClaim>,
    /// Sources claiming something else.
    pub dissenters: Vec<SourceClaim>,
    /// True if the user confirmed this value.
    pub confirmed: bool,
    /// Values the user refuted for this slot.
    pub vetoed_values: Vec<Value>,
}

/// ER configuration derived from the target schema: exact match on key-ish
/// columns, text similarity on strings (names weighted up), numerics
/// excluded (prices legitimately differ across sources).
fn build_er_config(target: &Schema, threshold: f64) -> ErConfig {
    let mut fields = Vec::new();
    for (i, f) in target.fields().iter().enumerate() {
        let lname = f.name.to_lowercase();
        let key_like = i == 0
            || lname == "sku"
            || lname == "id"
            || lname.ends_with("_id")
            || lname == "url"
            || lname == "code";
        if key_like {
            fields.push(FieldSim {
                column: f.name.clone(),
                weight: 2.0,
                kind: SimKind::Exact,
            });
        } else if f.dtype == DataType::Str || f.dtype == DataType::Null {
            let weight = if lname.contains("name") || lname.contains("title") {
                3.0
            } else {
                1.0
            };
            fields.push(FieldSim {
                column: f.name.clone(),
                weight,
                kind: SimKind::Text,
            });
        }
        // Numeric columns intentionally excluded.
    }
    ErConfig { fields, threshold }
}

/// The column ER blocks on: a name-ish string column, else the first column.
fn blocking_column(target: &Schema) -> String {
    for f in target.fields() {
        let l = f.name.to_lowercase();
        if l.contains("name") || l.contains("title") {
            return f.name.clone();
        }
    }
    target.fields()[0].name.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_context::Ontology;
    use wrangler_feedback::Verdict;
    use wrangler_sources::{FleetConfig, SyntheticFleet};

    fn small_fleet() -> SyntheticFleet {
        wrangler_sources::synthetic::generate_fleet(
            &FleetConfig {
                num_products: 40,
                num_sources: 6,
                now: 10,
                coverage: (0.5, 0.9),
                error_rate: (0.02, 0.15),
                null_rate: (0.0, 0.05),
                staleness: (0, 4),
                ..FleetConfig::default()
            },
            42,
        )
    }

    fn session(fleet: &SyntheticFleet, user: UserContext) -> Wrangler {
        let mut ctx = DataContext::with_ontology(Ontology::ecommerce());
        ctx.add_master("product", fleet.truth.master_catalog(), "sku")
            .unwrap();
        // Target: catalog schema + price (what the company wants to learn).
        let mut sample = fleet.truth.master_catalog();
        sample = wrangler_table::ops::project_exprs(
            &sample,
            &[
                ("sku".into(), wrangler_table::Expr::col("sku")),
                ("name".into(), wrangler_table::Expr::col("name")),
                ("brand".into(), wrangler_table::Expr::col("brand")),
                ("category".into(), wrangler_table::Expr::col("category")),
                ("price".into(), wrangler_table::Expr::lit(Value::Null)),
            ],
        )
        .unwrap();
        // Give price a numeric type hint from a handful of plausible values.
        let mut w = Wrangler::new(user, ctx, retype_price(sample));
        w.set_now(fleet.truth.now);
        for s in fleet.registry.iter() {
            w.add_source(s.meta.clone(), s.table.clone());
        }
        w
    }

    /// The all-null price column types as Null; hint it as Float so mapping
    /// normalization and ER config treat it numerically.
    fn retype_price(sample: Table) -> Table {
        let mut fields = sample.schema().fields().to_vec();
        for f in &mut fields {
            if f.name == "price" {
                f.dtype = DataType::Float;
            }
        }
        let schema = Schema::new(fields).unwrap();
        let cols = (0..sample.num_columns())
            .map(|i| sample.column(i).unwrap().to_vec())
            .collect();
        Table::from_columns(schema, cols).unwrap()
    }

    #[test]
    fn end_to_end_wrangle_produces_entities_with_prices() {
        let fleet = small_fleet();
        let mut w = session(
            &fleet,
            UserContext::balanced("t").with_required_columns(&["sku", "price"]),
        );
        let out = w.wrangle().unwrap();
        assert!(out.entities >= 30, "entities {}", out.entities);
        assert!(
            out.entities <= 60,
            "over-merged or under-merged: {}",
            out.entities
        );
        assert!(!out.selected_sources.is_empty());
        // Most entities should carry a price.
        let priced = (0..out.table.num_rows())
            .filter(|&i| !out.table.get_named(i, "price").unwrap().is_null())
            .count();
        assert!(
            priced as f64 >= 0.6 * out.entities as f64,
            "{priced}/{}",
            out.entities
        );
        assert!(out.utility > 0.0);
    }

    #[test]
    fn accuracy_context_trades_completeness_for_accuracy() {
        let fleet = small_fleet();
        let mut acc = session(&fleet, UserContext::accuracy_first());
        let mut com = session(&fleet, UserContext::completeness_first());
        let out_acc = acc.wrangle().unwrap();
        let out_com = com.wrangle().unwrap();
        let nulls = |t: &Table| {
            let mut n = 0;
            for r in 0..t.num_rows() {
                for c in 0..t.num_columns() - 1 {
                    n += usize::from(t.get(r, c).unwrap().is_null());
                }
            }
            n as f64 / (t.num_rows() * (t.num_columns() - 1)) as f64
        };
        // The accuracy-first context withholds more uncertain values.
        assert!(
            nulls(&out_acc.table) >= nulls(&out_com.table),
            "acc nulls {} vs com nulls {}",
            nulls(&out_acc.table),
            nulls(&out_com.table)
        );
    }

    #[test]
    fn feedback_moves_source_trust_and_is_cheap_to_apply() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        let full_work = w.working.work;
        let trust_before: Vec<f64> = out
            .selected_sources
            .iter()
            .map(|id| w.source_trust(*id))
            .collect();
        // Tuple feedback: moves the supporting sources' trust, no structural
        // invalidation.
        let signals = w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::Tuple { entity: 0 },
            Verdict::Negative,
            1.0,
        ));
        assert!(signals >= 2, "shared routing reaches supporters");
        let moved = out
            .selected_sources
            .iter()
            .zip(&trust_before)
            .any(|(id, before)| w.source_trust(*id) < *before);
        assert!(moved, "some supporter's trust must drop");
        // Incremental rewrangle after the trust ripple: no remapping, no
        // re-ER (structural artifacts untouched).
        let before_work = w.working.work;
        let _ = w.rewrangle().unwrap();
        let delta = w.working.work - before_work;
        assert_eq!(delta.mappings_generated, 0);
        assert_eq!(delta.er_pairs, 0);
        assert!(delta.slots_fused <= full_work.slots_fused);

        // Siloed value feedback refuses exactly one slot: the strictly
        // bounded reprocessing Example 5 demands.
        let mut siloed = session(&fleet, UserContext::balanced("t"));
        siloed.routing = RoutingMode::Siloed;
        siloed.wrangle().unwrap();
        siloed.give_feedback(FeedbackItem::expert(
            FeedbackTarget::Value {
                entity: 0,
                attr: 4,
                value: None,
            },
            Verdict::Negative,
            1.0,
        ));
        let before_work = siloed.working.work;
        let _ = siloed.rewrangle().unwrap();
        let delta = siloed.working.work - before_work;
        assert_eq!(delta.mappings_generated, 0);
        assert_eq!(delta.er_pairs, 0);
        assert_eq!(delta.slots_fused, 1, "exactly the judged slot is refused");
    }

    #[test]
    fn negative_source_feedback_triggers_structural_rework_when_shared() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        let sid = out.selected_sources[0];
        w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::Extraction {
                source: sid.0 as usize,
            },
            Verdict::Negative,
            1.0,
        ));
        assert!(w.working.is_dirty(Artifact::Mapping(sid.0 as usize)));
        // Rewrangle falls back to the full path. Structural rework shows up
        // either as a regenerated mapping for the judged source, or — when
        // the trust hit is severe enough — as that source being dropped from
        // the selection entirely.
        let before = w.working.work;
        let out2 = w.rewrangle().unwrap();
        let delta = w.working.work - before;
        assert!(delta.mappings_generated >= 1 || !out2.selected_sources.contains(&sid));
    }

    #[test]
    fn siloed_routing_produces_fewer_signals() {
        let fleet = small_fleet();
        let mut shared = session(&fleet, UserContext::balanced("t"));
        let mut siloed = session(&fleet, UserContext::balanced("t"));
        siloed.routing = RoutingMode::Siloed;
        shared.wrangle().unwrap();
        siloed.wrangle().unwrap();
        let item = |_: &Wrangler| {
            FeedbackItem::expert(
                FeedbackTarget::Value {
                    entity: 1,
                    attr: 4,
                    value: None,
                },
                Verdict::Negative,
                1.0,
            )
        };
        let n_shared = shared.give_feedback(item(&shared));
        let n_siloed = siloed.give_feedback(item(&siloed));
        assert!(n_shared >= n_siloed);
    }

    #[test]
    fn value_feedback_vetoes_and_confirms() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        let price_attr = w.target().index_of("price").unwrap();
        // Find an entity with a delivered price.
        let entity = (0..out.table.num_rows())
            .find(|&r| !out.table.get_named(r, "price").unwrap().is_null())
            .expect("some delivered price");
        let old_value = out.table.get_named(entity, "price").unwrap().clone();
        // Refute it: the same value must never be delivered again.
        w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::Value {
                entity,
                attr: price_attr,
                value: Some(old_value.clone()),
            },
            Verdict::Negative,
            1.0,
        ));
        let out2 = w.rewrangle().unwrap();
        let new_value = out2.table.get_named(entity, "price").unwrap().clone();
        assert_ne!(new_value, old_value, "vetoed value re-delivered");
        // If every claim agreed with the vetoed value, the slot is now empty
        // (Null) and unexplainable; otherwise the explanation records the veto.
        if let Some(exp) = w.explain(entity, price_attr) {
            assert!(exp.vetoed_values.contains(&old_value));
        } else {
            assert!(new_value.is_null());
        }
        // Confirm the new value: pinned at full confidence.
        if !new_value.is_null() {
            w.give_feedback(FeedbackItem::expert(
                FeedbackTarget::Value {
                    entity,
                    attr: price_attr,
                    value: Some(new_value.clone()),
                },
                Verdict::Positive,
                1.0,
            ));
            let out3 = w.rewrangle().unwrap();
            assert_eq!(out3.table.get_named(entity, "price").unwrap(), &new_value);
            let exp = w.explain(entity, price_attr).unwrap();
            assert!(exp.confirmed);
            assert_eq!(exp.confidence, 1.0);
        }
    }

    #[test]
    fn explain_names_supporters_and_dissenters() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.wrangle().unwrap();
        let price_attr = w.target().index_of("price").unwrap();
        let exp = (0..30)
            .find_map(|e| w.explain(e, price_attr))
            .expect("explainable slot");
        assert!(!exp.supporters.is_empty());
        for s in exp.supporters.iter().chain(&exp.dissenters) {
            assert!(
                s.name.starts_with("shop"),
                "source name propagated: {}",
                s.name
            );
            assert!((0.0..=1.0).contains(&s.trust));
        }
        assert!(w.explain(9999, price_attr).is_none());
    }

    #[test]
    fn er_refinement_consumes_duplicate_labels() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.wrangle().unwrap();
        assert_eq!(w.refine_er(), None, "no labels yet");
        // Label two union rows as duplicates (indices are union rows).
        w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::DuplicatePair { row_a: 0, row_b: 1 },
            Verdict::Negative,
            0.5,
        ));
        let f1 = w.refine_er();
        assert!(f1.is_some());
    }

    #[test]
    fn wrangle_completes_on_surviving_subset() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        // Half the fleet hard-down: the resilient default must still deliver.
        for i in [0u32, 2, 4] {
            w.set_fault_profile(SourceId(i), FaultProfile::HardDown);
        }
        let out = w.wrangle().expect("graceful degradation, not an error");
        assert!(out.entities > 0);
        assert!(!out.skipped_sources.is_empty(), "the downed sources skipped");
        assert!(out
            .skipped_sources
            .iter()
            .all(|(id, _)| [0, 2, 4].contains(&id.0)));
        assert!(out
            .selected_sources
            .iter()
            .all(|id| ![0u32, 2, 4].contains(&id.0)));
        assert!(out.acquisition_attempts > out.selected_sources.len() as u64);
    }

    #[test]
    fn all_sources_down_is_a_clean_structured_error() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        for i in 0..w.num_sources() {
            w.set_fault_profile(SourceId(i as u32), FaultProfile::HardDown);
        }
        match w.wrangle() {
            Err(wrangler_table::TableError::Unavailable(msg)) => {
                assert!(msg.contains("no sources could be acquired"), "{msg}");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn degraded_payloads_are_integrated_and_reported() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let healthy = w.wrangle().unwrap();
        let victim = healthy.selected_sources[0];
        w.set_fault_profile(victim, FaultProfile::Truncated { keep_fraction: 0.5 });
        // Force re-selection + re-acquisition.
        w.working.invalidate(Artifact::Result);
        w.cache = None;
        let out = w.wrangle().unwrap();
        if out.selected_sources.contains(&victim) {
            assert!(out
                .degraded_sources
                .iter()
                .any(|(id, _)| *id == victim));
        }
        assert!(out.entities > 0);
    }

    #[test]
    fn abort_mode_turns_any_failure_into_an_error() {
        use crate::acquire::AcquisitionMode;
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.acquisition.mode = AcquisitionMode::AbortOnFailure;
        w.set_fault_profile(SourceId(1), FaultProfile::HardDown);
        // src1 has decent quality in this fleet, so it gets selected; the
        // naive mode then aborts the whole wrangle.
        match w.wrangle() {
            Err(wrangler_table::TableError::Unavailable(msg)) => {
                assert!(msg.contains("aborted"), "{msg}");
            }
            Ok(out) => {
                // Only acceptable if the downed source was never selected.
                assert!(!out.selected_sources.contains(&SourceId(1)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn breaker_quarantine_feeds_selection_availability() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.set_fault_profile(SourceId(0), FaultProfile::HardDown);
        let first = w.wrangle().unwrap();
        let src0_was_tried = first
            .skipped_sources
            .iter()
            .any(|(id, _)| *id == SourceId(0));
        if src0_was_tried {
            // Its breaker is now open: selection sees availability 0 and the
            // next wrangle doesn't waste attempts on it.
            let est = w.estimates();
            assert_eq!(est[0].availability, 0.0);
            w.working.invalidate(Artifact::Result);
            w.cache = None;
            let second = w.wrangle().unwrap();
            assert!(!second.selected_sources.contains(&SourceId(0)));
            assert!(second
                .skipped_sources
                .iter()
                .all(|(id, _)| *id != SourceId(0)));
        }
    }

    #[test]
    fn acquisition_failures_discount_source_trust() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let before = w.source_trust(SourceId(0));
        w.set_fault_profile(SourceId(0), FaultProfile::HardDown);
        let out = w.wrangle().unwrap();
        if out.skipped_sources.iter().any(|(id, _)| *id == SourceId(0)) {
            assert!(w.source_trust(SourceId(0)) < before);
        }
    }

    #[test]
    fn faultless_fleet_reports_clean_acquisition() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        assert!(out.skipped_sources.is_empty());
        assert!(out.degraded_sources.is_empty());
        assert_eq!(
            out.acquisition_attempts,
            out.selected_sources.len() as u64,
            "one attempt per source, no retries"
        );
    }

    #[test]
    fn clean_pipeline_passes_deny_gate() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        assert_eq!(w.lint_gate(), wrangler_lint::GateMode::Deny);
        let out = w.wrangle().unwrap();
        // Generated mappings may carry advisory warnings (lossy messy-number
        // normalization is real), but never error-grade findings: the gate
        // must not block the seed pipeline.
        assert!(out.lint.is_clean(), "{:?}", out.lint);
    }

    #[test]
    fn deny_gate_blocks_corrupted_mapping_before_execution() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        let victim = out.selected_sources[0];
        let mut bad = w.mapping_of(victim).expect("mapping generated").clone();
        *bad
            .bindings
            .iter_mut()
            .find(|b| b.is_some())
            .expect("some binding") = Some(999);
        assert!(w.override_mapping(victim, bad));
        let err = w.wrangle().unwrap_err();
        assert!(err.to_string().contains("pre-flight lint"), "{err}");
        // Findings survive the refusal, so callers can inspect why.
        assert!(!w.lint_report().is_clean());
        assert!(w
            .lint_findings()
            .iter()
            .any(|(origin, _)| origin == &format!("src{}", victim.0)));
    }

    #[test]
    fn warn_gate_records_findings_and_containment_quarantines_the_bad_source() {
        let fleet = small_fleet();
        let mut w =
            session(&fleet, UserContext::balanced("t")).with_lint_gate(wrangler_lint::GateMode::Warn);
        let out = w.wrangle().unwrap();
        let victim = out.selected_sources[0];
        let mut bad = w.mapping_of(victim).expect("mapping generated").clone();
        *bad
            .bindings
            .iter_mut()
            .find(|b| b.is_some())
            .expect("some binding") = Some(999);
        assert!(w.override_mapping(victim, bad));
        // Under the default Contain policy the defect no longer kills the
        // pass: the source erroring at map_apply is quarantined and the run
        // completes on survivors.
        let out = w.wrangle().unwrap();
        let q: Vec<_> = out
            .containment
            .quarantines
            .iter()
            .filter(|e| e.source == victim && e.stage == Stage::MapApply)
            .collect();
        assert_eq!(q.len(), 1, "victim quarantined exactly once: {out:?}");
        assert!(q[0].reason.contains("out of bounds"), "{}", q[0].reason);
        assert!(!out.selected_sources.contains(&victim));
        assert!(!w.lint_report().is_clean(), "findings still recorded");
    }

    #[test]
    fn warn_gate_abort_policy_restores_runtime_error() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_lint_gate(wrangler_lint::GateMode::Warn)
            .with_contain_policy(ContainPolicy::abort());
        let out = w.wrangle().unwrap();
        let victim = out.selected_sources[0];
        let mut bad = w.mapping_of(victim).expect("mapping generated").clone();
        *bad
            .bindings
            .iter_mut()
            .find(|b| b.is_some())
            .expect("some binding") = Some(999);
        assert!(w.override_mapping(victim, bad));
        // Abort mode reproduces the legacy behavior: the same defect
        // surfaces as a runtime table error mid-run, not a lint block.
        let err = w.wrangle().unwrap_err();
        assert!(!err.to_string().contains("pre-flight lint"), "{err}");
        assert!(!w.lint_report().is_clean(), "findings still recorded");
    }

    /// Regression for the opaque "schema-matching worker panicked" failure:
    /// a panic inside one source's mapping generation must identify and
    /// quarantine that source, and the pass must complete on survivors.
    #[test]
    fn map_generate_panic_quarantines_the_source_and_pass_completes() {
        use crate::contain::ChaosPolicy;
        let fleet = small_fleet();
        // seed=2 rate=0.3 deterministically hits sources 3 and 5 at
        // map_generate and no others.
        let chaos = ChaosPolicy::new(0.3, 2).at_stage(Stage::MapGenerate);
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::contain().with_chaos(chaos));
        let out = w.wrangle().unwrap();
        let quarantined = out.containment.quarantined_sources();
        assert_eq!(quarantined, vec![SourceId(3), SourceId(5)], "{out:?}");
        for e in &out.containment.quarantines {
            assert_eq!(e.stage, Stage::MapGenerate);
            assert!(e.reason.contains("panicked"), "{}", e.reason);
        }
        let t = out.containment.tallies(Stage::MapGenerate);
        assert_eq!(t.quarantined, 2);
        assert_eq!(t.panics_caught, 2);
        // Survivors complete the pass.
        assert!(!out.selected_sources.is_empty());
        assert!(!out.selected_sources.contains(&SourceId(3)));
        assert!(!out.selected_sources.contains(&SourceId(5)));
        assert!(out.entities > 0);
        // Identical session, identical report — containment is deterministic.
        let chaos2 = ChaosPolicy::new(0.3, 2).at_stage(Stage::MapGenerate);
        let mut w2 = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::contain().with_chaos(chaos2));
        let out2 = w2.wrangle().unwrap();
        assert_eq!(out.containment.render(), out2.containment.render());
    }

    #[test]
    fn map_generate_panic_in_abort_mode_names_the_source() {
        use crate::contain::ChaosPolicy;
        let fleet = small_fleet();
        let chaos = ChaosPolicy::new(0.3, 2).at_stage(Stage::MapGenerate);
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::abort().with_chaos(chaos));
        let err = w.wrangle().unwrap_err();
        let msg = err.to_string();
        // Not the old opaque message: the failing source is identified.
        assert!(msg.contains("src"), "{msg}");
        assert!(msg.contains("map_generate"), "{msg}");
    }

    /// A type-poisoned source is caught at the union firewall: its poison
    /// rows are dropped, and past the threshold the whole source is ejected.
    #[test]
    fn type_poisoned_source_is_quarantined_at_union() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.set_fault_profile(SourceId(0), FaultProfile::TypePoison { cell_rate: 0.6 });
        let out = w.wrangle().unwrap();
        let q: Vec<_> = out
            .containment
            .quarantines
            .iter()
            .filter(|e| e.source == SourceId(0))
            .collect();
        assert_eq!(q.len(), 1, "{out:?}");
        assert_eq!(q[0].stage, Stage::Union);
        assert!(q[0].reason.contains("poison rows"), "{}", q[0].reason);
        assert!(out.containment.tallies(Stage::Union).dropped_rows > 0);
        assert!(!out.selected_sources.contains(&SourceId(0)));
        assert!(out.entities > 0, "survivors still produce output");
    }

    /// Quarantine feeds the acquisition breaker: a source poisonous
    /// mid-pipeline is discounted at the next acquisition, and recovers
    /// through half-open once healed and past the cooldown.
    #[test]
    fn quarantine_trips_breaker_then_half_open_recovery_after_heal() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.set_fault_profile(SourceId(0), FaultProfile::NonFinite { cell_rate: 0.9 });
        let out = w.wrangle().unwrap();
        assert!(
            out.containment.quarantined_sources().contains(&SourceId(0)),
            "{out:?}"
        );
        // The pipeline failure tripped src0's breaker immediately.
        assert_eq!(w.estimates()[0].availability, 0.0);
        assert!(matches!(
            w.acquisition.breaker_state(0),
            Some(crate::acquire::BreakerState::Open { .. })
        ));
        // Heal the source and move well past the cooldown (the acquisition
        // clock advanced during the first pass, so leave a margin): the
        // breaker becomes half-open eligible.
        w.set_fault_profile(SourceId(0), FaultProfile::Healthy);
        let cooldown = w.acquisition.breaker_cfg.cooldown;
        w.set_now(fleet.truth.now + 2 * cooldown);
        assert_eq!(w.estimates()[0].availability, 0.5);
        // A fresh pass completes; if selection re-admits the healed source
        // (its trust was discounted by the quarantine, so it may not make
        // the marginal-gain cut), it comes back clean.
        w.working.invalidate(Artifact::Result);
        w.cache = None;
        let second = w.wrangle().unwrap();
        assert!(second.entities > 0);
        assert!(!second
            .containment
            .quarantined_sources()
            .contains(&SourceId(0)));
        if second.selected_sources.contains(&SourceId(0)) {
            // The probe succeeded: the breaker is half-open or closed, never
            // re-opened.
            assert!(w.estimates()[0].availability >= 0.5);
        }
    }

    #[test]
    fn off_gate_skips_analysis() {
        let fleet = small_fleet();
        let mut w =
            session(&fleet, UserContext::balanced("t")).with_lint_gate(wrangler_lint::GateMode::Off);
        let out = w.wrangle().unwrap();
        assert!(out.lint.is_empty());
        assert!(w.lint_findings().is_empty());
    }

    #[test]
    fn metrics_cover_every_stage_and_every_worker() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        let m = &out.metrics;
        // Every pipeline stage shows up as a direct child span of the root.
        for stage in [
            "select",
            "acquire",
            "map_generate",
            "preflight",
            "map_apply",
            "union",
            "er",
            "fuse",
            "assemble",
        ] {
            let path = format!("wrangle/{stage}");
            assert!(m.timings.contains_key(&path), "missing span {path}");
        }
        // Per-worker item counts from the strided fan-out sum to the total,
        // and with >= 2 inputs no recorded worker sat idle.
        let worker_items: Vec<u64> = m
            .counts
            .iter()
            .filter(|(k, _)| k.starts_with("map.worker") && k.ends_with(".items"))
            .map(|(_, v)| *v)
            .collect();
        assert!(!worker_items.is_empty());
        assert_eq!(
            worker_items.iter().sum::<u64>(),
            m.counts["map.generated"],
            "per-worker items must sum to map.generated"
        );
        assert!(
            worker_items.iter().all(|&n| n > 0),
            "no worker may be idle: {worker_items:?}"
        );
        // Output counters agree with the outcome.
        assert_eq!(m.counts["out.entities"], out.entities as u64);
        assert_eq!(m.counts["out.rows"], out.table.num_rows() as u64);
        assert_eq!(m.counts["pass.wrangle"], 1);
        // Stage spans attribute (nearly) all of the root's wall clock.
        let cov = m.stage_coverage("wrangle");
        assert!(cov > 0.9, "stage coverage {cov}");
        // An incremental rewrangle records its own pass + refuse stage.
        w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::Tuple { entity: 0 },
            Verdict::Negative,
            1.0,
        ));
        let out2 = w.rewrangle().unwrap();
        let m2 = &out2.metrics;
        assert_eq!(m2.counts["pass.rewrangle"], 1);
        assert_eq!(m2.counts["feedback.items"], 1);
        assert!(m2.counts["refuse.slots"] > 0);
        assert!(m2.timings.contains_key("rewrangle/refuse"));
        assert!(m2.timings.contains_key("rewrangle/assemble"));
    }

    /// Every ER candidate is answered exactly one way: remapped from the
    /// previous pass's memo, a pair-cache hit, a copy of an earlier
    /// candidate with the same content pair, or a kernel score. Counters are
    /// cumulative, so the identity holds after every pass.
    fn assert_er_ledger_balances(m: &MetricsReport) {
        let c = |k: &str| m.counts.get(k).copied().unwrap_or(0);
        assert_eq!(
            c("er.candidates"),
            c("incr.er.pairs_remapped")
                + c("er.cache.hits")
                + c("er.cache.deduped")
                + c("er.cache.misses"),
            "{m:?}"
        );
    }

    #[test]
    fn er_worker_counters_cover_candidates_and_cache_replays_unchanged_rows() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t")).with_er_workers(3);
        let out = w.wrangle().unwrap();
        let m = &out.metrics;
        assert_er_ledger_balances(m);
        // Per-worker ER items sum to the kernel's work: the distinct content
        // pairs the cache missed. With a fresh cache every candidate is
        // either such a miss or a copy of one.
        let worker_items: Vec<u64> = m
            .counts
            .iter()
            .filter(|(k, _)| k.starts_with("er.worker") && k.ends_with(".items"))
            .map(|(_, v)| *v)
            .collect();
        assert!(!worker_items.is_empty());
        assert_eq!(
            worker_items.iter().sum::<u64>(),
            m.counts["er.cache.misses"]
        );
        assert!(
            worker_items.iter().all(|&n| n > 0),
            "no worker may be idle: {worker_items:?}"
        );
        assert_eq!(
            m.counts["er.cache.misses"] + m.counts["er.cache.deduped"],
            m.counts["er.candidates"]
        );
        // Zero-valued counters are never recorded, so a cold cache leaves no
        // hits entry at all.
        assert!(!m.counts.contains_key("er.cache.hits"));
        // Force the structural path with unchanged rows: every pair score
        // must come from the content-keyed cache (once per content pair,
        // copied to the rest), and the output must be identical to the first
        // pass. Counters are cumulative across passes, so compare the second
        // pass as a delta over the first.
        w.working.invalidate(Artifact::Clusters);
        let out2 = w.rewrangle().unwrap();
        let m2 = &out2.metrics;
        assert_er_ledger_balances(m2);
        let per_pass = m.counts["er.candidates"];
        assert_eq!(m2.counts["er.candidates"], 2 * per_pass);
        assert_eq!(
            m2.counts["er.cache.misses"], m.counts["er.cache.misses"],
            "no new misses"
        );
        assert_eq!(
            m2.counts["er.cache.hits"] + m2.counts["er.cache.deduped"]
                - m.counts["er.cache.deduped"],
            per_pass
        );
        assert_eq!(out2.entities, out.entities);
        assert_eq!(out2.table, out.table);
    }

    #[test]
    fn er_output_is_identical_for_any_worker_count() {
        let fleet = small_fleet();
        let mut one = session(&fleet, UserContext::balanced("t")).with_er_workers(1);
        let mut five = session(&fleet, UserContext::balanced("t")).with_er_workers(5);
        let a = one.wrangle().unwrap();
        let b = five.wrangle().unwrap();
        assert_eq!(a.entities, b.entities);
        assert_eq!(a.table, b.table);
        assert_eq!(
            a.metrics.counts["er.match_pairs"],
            b.metrics.counts["er.match_pairs"]
        );
    }

    #[test]
    fn fuse_output_is_identical_for_any_worker_count() {
        let fleet = small_fleet();
        let mut one = session(&fleet, UserContext::balanced("t")).with_fuse_workers(1);
        let mut five = session(&fleet, UserContext::balanced("t")).with_fuse_workers(5);
        let a = one.wrangle().unwrap();
        let b = five.wrangle().unwrap();
        assert_eq!(a.entities, b.entities);
        assert_eq!(a.table, b.table);
        assert_eq!(a.metrics.counts["fuse.slots"], b.metrics.counts["fuse.slots"]);
        // Per-worker fuse counters sum to the slots the kernel fused (no
        // confirmations/vetoes here, so every live slot is a kernel slot).
        for m in [&a.metrics, &b.metrics] {
            let worker_items: Vec<u64> = m
                .counts
                .iter()
                .filter(|(k, _)| k.starts_with("fuse.worker") && k.ends_with(".items"))
                .map(|(_, v)| *v)
                .collect();
            assert!(!worker_items.is_empty());
            assert_eq!(worker_items.iter().sum::<u64>(), m.counts["fuse.slots"]);
            assert!(
                worker_items.iter().all(|&n| n > 0),
                "no worker may be idle: {worker_items:?}"
            );
        }
    }

    /// PR 5 semantics survive the parallel fuse kernel: a fuse-stage chaos
    /// panic quarantines the rolled source *by name* before its claims enter
    /// the claim set, and the pass completes on survivors — with the slot
    /// pool running multi-worker.
    #[test]
    fn fuse_chaos_panic_is_contained_and_names_the_source_with_parallel_kernel() {
        use crate::contain::ChaosPolicy;
        let fleet = small_fleet();
        let chaos = ChaosPolicy::new(0.3, 2).at_stage(Stage::Fuse);
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_fuse_workers(5)
            .with_contain_policy(ContainPolicy::contain().with_chaos(chaos));
        let out = w.wrangle().unwrap();
        let quarantined = out.containment.quarantined_sources();
        assert!(!quarantined.is_empty(), "chaos must hit at this seed/rate");
        for e in &out.containment.quarantines {
            assert_eq!(e.stage, Stage::Fuse);
            assert!(e.reason.contains("panicked"), "{}", e.reason);
        }
        assert!(out.containment.tallies(Stage::Fuse).panics_caught > 0);
        // Survivors complete the pass; the quarantined sources are named
        // and excluded.
        assert!(!out.selected_sources.is_empty());
        for id in &quarantined {
            assert!(!out.selected_sources.contains(id), "{id:?} still selected");
        }
        assert!(out.entities > 0);
        // A clean run with the same worker count delivers identical output
        // minus the quarantined sources' claims — and a chaos-free session
        // is byte-deterministic.
        let chaos2 = ChaosPolicy::new(0.3, 2).at_stage(Stage::Fuse);
        let mut w2 = session(&fleet, UserContext::balanced("t"))
            .with_fuse_workers(5)
            .with_contain_policy(ContainPolicy::contain().with_chaos(chaos2));
        let out2 = w2.wrangle().unwrap();
        assert_eq!(out.containment.render(), out2.containment.render());
        assert_eq!(out.table, out2.table);
    }

    #[test]
    fn obs_off_records_nothing_and_changes_no_output() {
        let fleet = small_fleet();
        let mut on = session(&fleet, UserContext::balanced("t"));
        let mut off =
            session(&fleet, UserContext::balanced("t")).with_obs_mode(wrangler_obs::ObsMode::Off);
        let a = on.wrangle().unwrap();
        let b = off.wrangle().unwrap();
        assert!(b.metrics.counts.is_empty());
        assert!(b.metrics.timings.is_empty());
        // Telemetry is observation only: the wrangled data is unchanged.
        assert_eq!(a.entities, b.entities);
        assert_eq!(a.table.num_rows(), b.table.num_rows());
        assert!((a.utility - b.utility).abs() < 1e-12);
    }

    /// Bit-exact table fingerprint: floats via `to_bits`, everything else
    /// via its debug rendering.
    fn table_fingerprint(t: &Table) -> String {
        let mut s = String::new();
        for r in 0..t.num_rows() {
            for c in 0..t.num_columns() {
                match t.get(r, c).unwrap() {
                    Value::Float(f) => s.push_str(&format!("f{:016x};", f.to_bits())),
                    v => s.push_str(&format!("{v:?};")),
                }
            }
            s.push('\n');
        }
        s
    }

    fn category_filter() -> Expr {
        Expr::col("category")
            .eq(Expr::lit("electronics"))
            .or(Expr::col("category").eq(Expr::lit("home")))
    }

    fn projection() -> Vec<String> {
        vec!["sku".into(), "name".into(), "price".into()]
    }

    #[test]
    fn optimized_and_naive_are_byte_identical_with_barrier_up() {
        // Default containment: the scan barrier is up, so the filter stays
        // fused in the union loop; CSE and dead-fusion still apply.
        let fleet = small_fleet();
        let mut opt = session(&fleet, UserContext::balanced("t"))
            .with_row_filter(category_filter())
            .with_output_columns(projection());
        let mut naive = session(&fleet, UserContext::balanced("t"))
            .with_row_filter(category_filter())
            .with_output_columns(projection())
            .with_opt_mode(OptMode::Naive);
        let a = opt.wrangle().unwrap();
        let b = naive.wrangle().unwrap();
        assert_eq!(table_fingerprint(&a.table), table_fingerprint(&b.table));
        assert_eq!(a.entities, b.entities);
        let program = opt.plan_program().expect("optimized program");
        let kinds: Vec<&str> = program.rewrites.iter().map(|r| r.kind.name()).collect();
        assert!(kinds.contains(&"fuse-filter-into-union"), "{kinds:?}");
        assert!(kinds.contains(&"skip-dead-fusion"), "{kinds:?}");
        assert!(naive.plan_program().unwrap().rewrites.is_empty());
    }

    #[test]
    fn optimized_and_naive_are_byte_identical_with_pushdown() {
        // Containment off drops the scan barrier: cell-exact sources get
        // the filter pushed all the way into acquisition, and the result
        // must still match the naive materialize-then-filter pass bit for
        // bit.
        let fleet = small_fleet();
        let mut opt = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::off())
            .with_row_filter(category_filter())
            .with_output_columns(projection());
        let mut naive = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::off())
            .with_row_filter(category_filter())
            .with_output_columns(projection())
            .with_opt_mode(OptMode::Naive);
        let a = opt.wrangle().unwrap();
        let b = naive.wrangle().unwrap();
        assert_eq!(table_fingerprint(&a.table), table_fingerprint(&b.table));
        let program = opt.plan_program().expect("optimized program");
        // At least one source's filter left the union loop.
        let early = (0..opt.num_sources())
            .any(|i| program.placement_for(i) != wrangler_plan::FilterPlacement::Union);
        assert!(early, "no early placement despite barrier down");
        // And the optimized pass scanned strictly fewer bytes.
        assert!(
            a.metrics.counts["scan.bytes"] < b.metrics.counts["scan.bytes"],
            "opt {} vs naive {}",
            a.metrics.counts["scan.bytes"],
            b.metrics.counts["scan.bytes"]
        );
    }

    #[test]
    fn projection_delivers_only_requested_columns() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_output_columns(projection());
        let out = w.wrangle().unwrap();
        assert_eq!(
            out.table.schema().names(),
            vec!["sku", "name", "price", "_confidence"]
        );
        // brand/category are dead at fuse and their slots were skipped.
        assert!(out.metrics.counts["fuse.slots_skipped"] > 0);
    }

    // -----------------------------------------------------------------
    // The incremental dataflow engine: partition-scoped reuse must be
    // byte-identical to cold recomputation, stale reuse must be
    // structurally impossible, and every reuse must surface in telemetry.
    // -----------------------------------------------------------------

    /// Deterministically perturb a source payload: bump the first numeric
    /// cell (or rewrite the first string) so the content hash moves while
    /// the schema stays put.
    fn perturbed(table: &Table) -> Table {
        let schema = table.schema().clone();
        let mut cols: Vec<Vec<Value>> = (0..table.num_columns())
            .map(|i| table.column(i).unwrap().to_vec())
            .collect();
        let mut done = false;
        'outer: for col in cols.iter_mut() {
            for v in col.iter_mut() {
                match v {
                    Value::Float(f) => {
                        *f += 1.0;
                        done = true;
                        break 'outer;
                    }
                    Value::Int(n) => {
                        *n += 1;
                        done = true;
                        break 'outer;
                    }
                    Value::Str(s) => {
                        s.push_str(" v2");
                        done = true;
                        break 'outer;
                    }
                    _ => {}
                }
            }
        }
        assert!(done, "no perturbable cell");
        Table::from_columns(schema, cols).unwrap()
    }

    /// Fingerprint of a full outcome: bit-exact table plus the shape facts
    /// a reader would notice.
    fn outcome_fingerprint(out: &WrangleOutcome) -> String {
        format!(
            "{}|e{}|sel{:?}|skip{:?}",
            table_fingerprint(&out.table),
            out.entities,
            out.selected_sources,
            out.skipped_sources
        )
    }

    /// Run the warm (incremental) session and a cold comparator cloned from
    /// the *same* state with the engine disabled; both must deliver
    /// byte-identical outcomes. Returns the warm outcome for further
    /// assertions.
    fn assert_incremental_matches_cold(w: &mut Wrangler) -> WrangleOutcome {
        let mut cold = w.clone();
        cold.set_incr_enabled(false);
        assert_eq!(cold.incr_memo_count(), 0, "cold comparator starts bare");
        let warm_out = w.wrangle().unwrap();
        let cold_out = cold.wrangle().unwrap();
        assert_eq!(
            outcome_fingerprint(&warm_out),
            outcome_fingerprint(&cold_out),
            "incremental reuse must be byte-identical to cold recompute"
        );
        warm_out
    }

    #[test]
    fn one_source_update_reuses_every_clean_partition_byte_identically() {
        let fleet = small_fleet();
        // Completeness-dominant context: AllRelevant selection, so the
        // freshness bump of the updated source cannot reshuffle the
        // selected set out from under the partition comparison. (With
        // marginal-gain selection a fresher source legitimately changes the
        // chosen subset — and then the plan, and then every partition.)
        let mut w = session(&fleet, UserContext::completeness_first());
        let first = w.wrangle().unwrap();
        let victim = first.selected_sources[0];
        let n_selected = first.selected_sources.len() as u64;
        assert!(n_selected >= 4, "fixture needs a fleet-wide selection");
        let new_payload = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, new_payload).unwrap());
        let out = assert_incremental_matches_cold(&mut w);
        let m = out.metrics;
        // Exactly the dirty partition recomputed (counters are cumulative:
        // the cold first pass computed every block once); every other
        // selected source's union block replayed.
        assert_eq!(m.counts["incr.union.recomputed"], n_selected + 1, "{m:?}");
        assert_eq!(
            m.counts["incr.union.reused"],
            n_selected - 1,
            "clean partitions must replay: {m:?}"
        );
        // The union changed, so ER ran — but through the index-remap fast
        // path for clean-clean pairs, not a cold rescore.
        assert!(
            m.counts["incr.er.pairs_remapped"] > 0,
            "clean-clean pairs must remap: {m:?}"
        );
        assert_er_ledger_balances(&m);
        // The pair cache was evicted partition-scoped, not wiped.
        assert!(m.counts["incr.pair_cache.evicted"] > 0);
        assert!(
            m.counts["incr.pair_cache.retained"] > m.counts["incr.pair_cache.evicted"],
            "a 1-source update must keep most pair scores: {m:?}"
        );
    }

    /// Share of `wrangle/er` wall time, between two snapshots, that the ER
    /// stage's named child spans account for (worker busy time runs in
    /// parallel under `er` and is not a child step).
    fn er_child_coverage(before: &MetricsReport, after: &MetricsReport) -> f64 {
        let delta = |path: &str| {
            let at = |m: &MetricsReport| m.timings.get(path).map_or(0, |t| t.nanos);
            at(after) - at(before)
        };
        let total = delta("wrangle/er");
        assert!(total > 0, "the pass must run the ER stage");
        let children: u128 = [
            "candidates",
            "compile",
            "replay",
            "score",
            "cluster",
            "memo",
        ]
        .iter()
        .map(|c| delta(&format!("wrangle/er/{c}")))
        .sum();
        children as f64 / total as f64
    }

    #[test]
    fn er_child_spans_cover_the_stage_cold_and_after_one_source_update() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::completeness_first());
        // A throwaway pass on a clone first: process-wide one-time costs
        // (code page faults, lazy statics) are not the stage's own time.
        w.clone().wrangle().unwrap();
        let before = w.metrics();
        let first = w.wrangle().unwrap();
        let cold = er_child_coverage(&before, &first.metrics);
        assert!(cold >= 0.95, "cold pass: children cover {cold:.3} of er");
        // Worker busy time stays at `er/workerN`, outside the child spans.
        assert!(first.metrics.timings.contains_key("wrangle/er/worker0"));
        assert!(!first
            .metrics
            .timings
            .keys()
            .any(|p| p.starts_with("wrangle/er/score/")));
        let victim = first.selected_sources[0];
        let new_payload = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, new_payload).unwrap());
        let warm = w.wrangle().unwrap();
        assert!(warm.metrics.counts["incr.er.pairs_remapped"] > 0);
        let k1 = er_child_coverage(&first.metrics, &warm.metrics);
        assert!(k1 >= 0.95, "k=1 pass: children cover {k1:.3} of er");
    }

    #[test]
    fn identical_update_is_a_no_op_that_keeps_every_memo() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        let memos = w.incr_memo_count();
        assert!(memos > 0);
        let victim = first.selected_sources[0];
        let same = fleet.registry.get(victim).unwrap().table.clone();
        assert!(!w.update_source(victim, same).unwrap());
        assert_eq!(w.incr_memo_count(), memos, "no-op update must not evict");
        // Unknown source and schema drift are structured errors.
        assert!(w.update_source(SourceId(999), first.table.clone()).is_err());
        // Dropping a column from the source's own schema is a schema drift.
        let src = &fleet.registry.get(victim).unwrap().table;
        let keep = src.schema().field(0).unwrap().name.clone();
        let dropped =
            wrangler_table::ops::project_exprs(src, &[(keep.clone(), Expr::col(&keep))]).unwrap();
        assert!(w.update_source(victim, dropped).is_err());
    }

    #[test]
    fn pure_replay_reuses_er_and_fuse_without_fake_spans() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        let er_passes = first.metrics.timings["wrangle/er"].calls;
        let fuse_passes = first.metrics.timings["wrangle/fuse"].calls;
        // Nothing changed: the second pass replays union blocks, ER and
        // fuse wholesale, byte-identically.
        w.working.invalidate(Artifact::Result);
        w.cache = None;
        let out = assert_incremental_matches_cold(&mut w);
        let m = out.metrics;
        // Counters are cumulative across passes: compare against the first
        // (cold) pass's snapshot to isolate what the replay pass did.
        let delta = |key: &str| {
            m.counts.get(key).copied().unwrap_or(0)
                - first.metrics.counts.get(key).copied().unwrap_or(0)
        };
        assert_eq!(delta("incr.er.reused"), 1, "{m:?}");
        assert_eq!(delta("incr.fuse.reused"), 1, "{m:?}");
        assert_eq!(delta("incr.union.recomputed"), 0, "{m:?}");
        assert!(delta("incr.union.reused") > 0);
        // Metrics attribution: a reused stage records NO span at all (a
        // zero-duration span would skew stage_shares); the replay cost is
        // attributed to its own explicitly-named span instead.
        assert_eq!(m.timings["wrangle/er"].calls, er_passes);
        assert_eq!(m.timings["wrangle/fuse"].calls, fuse_passes);
        assert!(m.timings.contains_key("wrangle/er_replay"));
        assert!(m.timings.contains_key("wrangle/fuse_replay"));
    }

    #[test]
    fn all_sources_dirty_is_equivalent_to_cold() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        for id in &first.selected_sources {
            let t = perturbed(&fleet.registry.get(*id).unwrap().table);
            assert!(w.update_source(*id, t).unwrap());
        }
        let out = assert_incremental_matches_cold(&mut w);
        assert_eq!(
            out.metrics.counts.get("incr.union.rows_reused").copied().unwrap_or(0),
            0,
            "nothing clean to reuse"
        );
    }

    #[test]
    fn dirty_source_quarantined_mid_pass_matches_cold() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        let victim = first.selected_sources[0];
        let t = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, t).unwrap());
        // The updated source now also delivers poison: it gets quarantined
        // mid-pass, and the warm session must agree with cold about both
        // the survivors' output and the containment record.
        w.set_fault_profile(victim, FaultProfile::TypePoison { cell_rate: 0.6 });
        let mut cold = w.clone();
        cold.set_incr_enabled(false);
        let warm_out = w.wrangle().unwrap();
        let cold_out = cold.wrangle().unwrap();
        assert_eq!(outcome_fingerprint(&warm_out), outcome_fingerprint(&cold_out));
        assert_eq!(
            warm_out.containment.render(),
            cold_out.containment.render()
        );
        // The freshness bump can legitimately drop the victim from the
        // marginal-gain selection; if it was selected, the poison must have
        // quarantined it.
        assert!(
            warm_out.containment.quarantined_sources().contains(&victim)
                || !warm_out.selected_sources.contains(&victim),
            "a selected poison source must be quarantined"
        );
    }

    #[test]
    fn dirty_update_heals_a_tripped_breaker_and_matches_cold() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.set_fault_profile(SourceId(0), FaultProfile::HardDown);
        let first = w.wrangle().unwrap();
        if !first.skipped_sources.iter().any(|(id, _)| *id == SourceId(0)) {
            return; // src0 never selected at this seed; nothing to heal
        }
        assert_eq!(w.estimates()[0].availability, 0.0, "breaker open");
        // The provider ships a fixed payload: heal the fault, deliver the
        // update, and move past the cooldown.
        w.set_fault_profile(SourceId(0), FaultProfile::Healthy);
        let t = perturbed(&fleet.registry.get(SourceId(0)).unwrap().table);
        assert!(w.update_source(SourceId(0), t).unwrap());
        let cooldown = w.acquisition.breaker_cfg.cooldown;
        w.set_now(fleet.truth.now + 2 * cooldown);
        let out = assert_incremental_matches_cold(&mut w);
        assert!(out.entities > 0);
        assert!(!out
            .containment
            .quarantined_sources()
            .contains(&SourceId(0)));
    }

    /// The fingerprint audit, input by input: every knob that changes a
    /// stage's output must flow into the content keys, so a warm session
    /// that mutates the knob mid-flight must land byte-identical to a cold
    /// session that never memoized anything. A stale reuse would diverge.
    #[test]
    fn no_stale_reuse_after_any_covered_input_changes() {
        let fleet = small_fleet();
        type Mutation = (
            &'static str,
            fn(&mut Wrangler, &SyntheticFleet, &WrangleOutcome),
        );
        let mutations: &[Mutation] = &[
            ("trust ripple via tuple feedback", |w, _, _| {
                w.give_feedback(FeedbackItem::expert(
                    FeedbackTarget::Tuple { entity: 0 },
                    Verdict::Negative,
                    1.0,
                ));
            }),
            ("value veto", |w, _, first| {
                let price_attr = w.target().index_of("price").unwrap();
                let entity = (0..first.table.num_rows())
                    .find(|&r| !first.table.get_named(r, "price").unwrap().is_null())
                    .unwrap();
                let old = first.table.get_named(entity, "price").unwrap().clone();
                w.give_feedback(FeedbackItem::expert(
                    FeedbackTarget::Value {
                        entity,
                        attr: price_attr,
                        value: Some(old),
                    },
                    Verdict::Negative,
                    1.0,
                ));
            }),
            ("source ages via clock advance", |w, fleet, _| {
                w.set_now(fleet.truth.now + 3);
                w.working.invalidate(Artifact::Result);
                w.cache = None;
            }),
            ("master data update", |w, fleet, _| {
                let catalog = perturbed(&fleet.truth.master_catalog());
                w.data_ctx.add_master("product", catalog, "sku").unwrap();
                w.working.invalidate(Artifact::Result);
                w.cache = None;
            }),
            ("fault profile degrades a payload", |w, _, _| {
                use wrangler_sources::FaultProfile;
                w.set_fault_profile(
                    SourceId(1),
                    FaultProfile::Truncated { keep_fraction: 0.5 },
                );
                w.working.invalidate(Artifact::Result);
                w.cache = None;
            }),
        ];
        for (name, mutate) in mutations {
            let mut w = session(&fleet, UserContext::balanced("t"));
            let first = w.wrangle().unwrap();
            assert!(w.incr_memo_count() > 0, "{name}: warm session memoized");
            mutate(&mut w, &fleet, &first);
            let mut cold = w.clone();
            cold.set_incr_enabled(false);
            let warm_out = w.rewrangle().unwrap();
            let cold_out = cold.rewrangle().unwrap();
            assert_eq!(
                outcome_fingerprint(&warm_out),
                outcome_fingerprint(&cold_out),
                "stale reuse after: {name}"
            );
        }
        // Plan-shape knobs clear the memos outright — the builder setters
        // call invalidate_plan_shape.
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.wrangle().unwrap();
        assert!(w.incr_memo_count() > 0);
        let mut w = w.with_row_filter(category_filter());
        assert_eq!(w.incr_memo_count(), 0, "plan shape change drops memos");
        w.wrangle().unwrap();
        assert!(w.incr_memo_count() > 0);
        let w = w.with_output_columns(projection());
        assert_eq!(w.incr_memo_count(), 0, "projection change drops memos");
        // ER refinement: when the refined rule is adopted, memos and pair
        // scores are dropped outright; when it is rejected the config is
        // unchanged. Either way the next warm pass must match cold (the ER
        // config is itself fingerprint-covered).
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.wrangle().unwrap();
        w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::DuplicatePair { row_a: 0, row_b: 1 },
            Verdict::Negative,
            0.5,
        ));
        let _ = w.refine_er();
        w.working.invalidate(Artifact::Result);
        w.cache = None;
        assert_incremental_matches_cold(&mut w);
    }

    #[test]
    fn chaos_mode_stands_the_engine_down() {
        use crate::contain::ChaosPolicy;
        let fleet = small_fleet();
        let chaos = ChaosPolicy::new(0.0, 7); // rate 0: rolls never fire,
                                              // but the RNG is still stateful
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::contain().with_chaos(chaos));
        let out = w.wrangle().unwrap();
        assert_eq!(w.incr_memo_count(), 0, "chaos passes must not memoize");
        assert!(!out
            .metrics
            .counts
            .keys()
            .any(|k| k.starts_with("incr.union")));
    }

    #[test]
    fn pair_cache_survives_one_source_update_and_replays_bit_identically() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        let entries_before = w.working.pair_scores.entries().count();
        assert!(entries_before > 0);
        let victim = first.selected_sources[0];
        let t = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, t).unwrap());
        let remaining = w.working.pair_scores.entries().count();
        // Partition-scoped eviction: only entries touching the victim go.
        assert!(remaining > 0, "eviction must not wipe the cache");
        assert!(
            w.working
                .pair_scores
                .entries()
                .all(|e| e.sources.0 != victim.0 && e.sources.1 != victim.0),
            "every surviving entry avoids the updated source"
        );
        // On a fleet this small a third of the pairs can touch the victim;
        // the E18 harness checks the >= 0.90 retention bound at 40 sources.
        let retention = remaining as f64 / entries_before as f64;
        assert!(retention >= 0.5, "retention {retention} collapsed");
        // The dictionary keeps only the content ids some survivor references.
        let live: std::collections::BTreeSet<u32> = w
            .working
            .pair_scores
            .entries()
            .flat_map(|e| [e.ids.0, e.ids.1])
            .collect();
        assert_eq!(live.len(), w.working.pair_scores.dictionary().len());
        // And the surviving scores replay bit-identically: the next pass's
        // clean-partition pairs hit cache/remap and the output matches cold.
        assert_incremental_matches_cold(&mut w);
    }

    #[test]
    fn old_layout_checkpoint_records_miss_and_recompute() {
        let fleet = small_fleet();
        let dir = wrangler_ckpt::scratch_dir("v1-records");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let mut first = session(&fleet, UserContext::balanced("t")).with_checkpoint_store(store);
        let out1 = first.wrangle().unwrap();
        // Rewrite every record, under its own key, into the version-1 layout.
        let store = CheckpointStore::open(&dir).unwrap();
        let keys: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let path = e.ok()?.path();
                (path.extension()? == "ckpt").then_some(())?;
                u64::from_str_radix(path.file_stem()?.to_str()?, 16).ok()
            })
            .collect();
        assert!(!keys.is_empty());
        for &key in &keys {
            let (state, out) = ckpt_io::decode_record(&store.get(key).unwrap()).unwrap();
            store
                .put(key, &ckpt_io::encode_record_v1(&state, &out))
                .unwrap();
        }
        // A fresh session finds every record, loads none, and recomputes
        // the same outcome.
        let mut second = session(&fleet, UserContext::balanced("t")).with_checkpoint_store(store);
        let out2 = second.resume().unwrap();
        let counts = &out2.metrics.counts;
        assert!(
            !counts
                .keys()
                .any(|k| k.starts_with("ckpt.") && k.ends_with(".hits")),
            "{counts:?}"
        );
        assert_eq!(counts["ckpt.select.misses"], 1);
        assert_eq!(second.checkpoint_store().unwrap().stats().torn_detected, 0);
        assert_eq!(outcome_fingerprint(&out2), outcome_fingerprint(&out1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_program_carries_verified_justifications() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_row_filter(category_filter())
            .with_output_columns(projection());
        let out = w.wrangle().unwrap();
        let program = w.plan_program().expect("program recorded");
        assert!(program.verification.is_clean());
        assert!(!program.rewrites.is_empty());
        for rw in &program.rewrites {
            assert!(!rw.justification.is_empty(), "{:?}", rw.kind);
        }
        // Every rewrite is attributed in telemetry and the plan counters ran.
        assert!(out.metrics.counts["plan.nodes"] > 0);
        assert!(out.metrics.counts["plan.facts"] > 0);
        assert_eq!(
            out.metrics.counts["opt.rewrites"],
            program.rewrites.len() as u64
        );
        let attributed: u64 = out
            .metrics
            .counts
            .iter()
            .filter(|(k, _)| k.starts_with("opt.rewrite."))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(attributed, program.rewrites.len() as u64);
    }
}
