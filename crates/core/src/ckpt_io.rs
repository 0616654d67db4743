//! Checkpoint serialization for the wrangling session.
//!
//! The checkpoint store ([`wrangler_ckpt`]) moves opaque byte payloads; this
//! module defines what those payloads *are* for a wrangle pass. Every seam
//! record has two parts:
//!
//! * a [`SessionState`] — the complete snapshot of everything the pass has
//!   mutated up to that seam: per-source trust beliefs and relevances, the
//!   acquisition engine (virtual clock, breaker fleet, retry totals), the
//!   ER pair-score cache, work counters, the containment report, and the
//!   acquisition summary. Restoring it puts a *fresh process* into exactly
//!   the state the crashed process had at the seam — quarantine discounts
//!   and breaker trips included, applied once, never re-derived;
//! * a stage output — the data the rest of the pipeline consumes (selected
//!   ids, degraded payloads, mappings, mapped tables, union rows, clusters,
//!   fused slots).
//!
//! All encodings ride on the canonical wire codec
//! ([`wrangler_table::wire`]): fixed-width little-endian integers,
//! length-prefixed UTF-8, and `f64::to_bits` for floats, so a round-trip is
//! bit-exact (including -0.0, subnormals and NaN payloads) and a resumed
//! pass can reproduce an uninterrupted run byte-for-byte. Decoders are
//! bounds-checked and return structured errors — a truncated or bit-flipped
//! payload that somehow passed the store's checksum still cannot panic the
//! session (the store treats a decode failure as a miss).
//!
//! Enum tags in this module are part of the durable format: append variants,
//! never renumber.

use std::borrow::Cow;

use wrangler_fusion::strategies::FusedValue;
use wrangler_mapping::Mapping;
use wrangler_sources::faults::{AcquireError, Degradation};
use wrangler_sources::SourceId;
use wrangler_table::wire::{self, Dec, Enc};
use wrangler_table::{Table, TableError, Value};
use wrangler_uncertainty::{Belief, EvidenceKind};

use crate::acquire::{
    AcquireOutcome, AcquisitionSummary, BreakerConfig, BreakerState, CircuitBreaker, Disposition,
};
use crate::contain::{ContainmentReport, Stage, StageTallies};
use crate::working::{PairEntry, PairScoreCache, WorkCounters};

type Result<T> = std::result::Result<T, TableError>;

fn bad(what: &str) -> TableError {
    TableError::Invalid(format!("checkpoint payload: {what}"))
}

// ---------------------------------------------------------------------------
// Primitive helpers
// ---------------------------------------------------------------------------

fn enc_belief(e: &mut Enc, b: &Belief) {
    let (lo, prior, ledger) = b.to_parts();
    e.f64(lo).f64(prior).usize(ledger.len());
    for (kind, n) in ledger {
        e.u8(kind.tag()).u32(*n);
    }
}

fn dec_belief(d: &mut Dec) -> Result<Belief> {
    let lo = d.f64()?;
    let prior = d.f64()?;
    let n = d.usize()?;
    let mut ledger = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let kind = EvidenceKind::from_tag(d.u8()?).ok_or_else(|| bad("unknown evidence kind"))?;
        ledger.push((kind, d.u32()?));
    }
    Ok(Belief::from_parts(lo, prior, ledger))
}

fn stage_tag(s: Stage) -> u8 {
    match s {
        Stage::MapGenerate => 0,
        Stage::Preflight => 1,
        Stage::MapApply => 2,
        Stage::Union => 3,
        Stage::Er => 4,
        Stage::Fuse => 5,
        Stage::Assemble => 6,
    }
}

fn stage_from_tag(tag: u8) -> Result<Stage> {
    Ok(match tag {
        0 => Stage::MapGenerate,
        1 => Stage::Preflight,
        2 => Stage::MapApply,
        3 => Stage::Union,
        4 => Stage::Er,
        5 => Stage::Fuse,
        6 => Stage::Assemble,
        _ => return Err(bad("unknown stage tag")),
    })
}

fn enc_breaker(e: &mut Enc, b: &CircuitBreaker) {
    let (cfg, state, fails, probes) = b.to_parts();
    e.u32(cfg.failure_threshold)
        .u64(cfg.cooldown)
        .u32(cfg.half_open_successes);
    match state {
        BreakerState::Closed => {
            e.u8(0);
        }
        BreakerState::Open { until } => {
            e.u8(1).u64(until);
        }
        BreakerState::HalfOpen => {
            e.u8(2);
        }
    }
    e.u32(fails).u32(probes);
}

fn dec_breaker(d: &mut Dec) -> Result<CircuitBreaker> {
    let cfg = BreakerConfig {
        failure_threshold: d.u32()?,
        cooldown: d.u64()?,
        half_open_successes: d.u32()?,
    };
    let state = match d.u8()? {
        0 => BreakerState::Closed,
        1 => BreakerState::Open { until: d.u64()? },
        2 => BreakerState::HalfOpen,
        _ => return Err(bad("unknown breaker state")),
    };
    Ok(CircuitBreaker::from_parts(cfg, state, d.u32()?, d.u32()?))
}

fn enc_degradation(e: &mut Enc, deg: &Degradation) {
    match *deg {
        Degradation::Truncated { kept, total } => {
            e.u8(0).usize(kept).usize(total);
        }
        Degradation::CorruptCells { cells } => {
            e.u8(1).usize(cells);
        }
        Degradation::SchemaDrifted { dropped } => {
            e.u8(2).usize(dropped);
        }
        Degradation::TypePoisoned { cells } => {
            e.u8(3).usize(cells);
        }
        Degradation::Pathological { cells } => {
            e.u8(4).usize(cells);
        }
        Degradation::NonFinite { cells } => {
            e.u8(5).usize(cells);
        }
        Degradation::Oversized { rows } => {
            e.u8(6).usize(rows);
        }
    }
}

fn dec_degradation(d: &mut Dec) -> Result<Degradation> {
    Ok(match d.u8()? {
        0 => Degradation::Truncated {
            kept: d.usize()?,
            total: d.usize()?,
        },
        1 => Degradation::CorruptCells { cells: d.usize()? },
        2 => Degradation::SchemaDrifted { dropped: d.usize()? },
        3 => Degradation::TypePoisoned { cells: d.usize()? },
        4 => Degradation::Pathological { cells: d.usize()? },
        5 => Degradation::NonFinite { cells: d.usize()? },
        6 => Degradation::Oversized { rows: d.usize()? },
        _ => return Err(bad("unknown degradation tag")),
    })
}

fn enc_acquire_error(e: &mut Enc, err: &AcquireError) {
    match *err {
        AcquireError::UnknownSource(id) => {
            e.u8(0).u32(id.0);
        }
        AcquireError::Unavailable { source } => {
            e.u8(1).u32(source.0);
        }
        AcquireError::DeadlineExceeded {
            source,
            latency,
            deadline,
        } => {
            e.u8(2).u32(source.0).u64(latency).u64(deadline);
        }
        AcquireError::RateLimited {
            source,
            retry_after,
        } => {
            e.u8(3).u32(source.0).u64(retry_after);
        }
    }
}

fn dec_acquire_error(d: &mut Dec) -> Result<AcquireError> {
    Ok(match d.u8()? {
        0 => AcquireError::UnknownSource(SourceId(d.u32()?)),
        1 => AcquireError::Unavailable {
            source: SourceId(d.u32()?),
        },
        2 => AcquireError::DeadlineExceeded {
            source: SourceId(d.u32()?),
            latency: d.u64()?,
            deadline: d.u64()?,
        },
        3 => AcquireError::RateLimited {
            source: SourceId(d.u32()?),
            retry_after: d.u64()?,
        },
        _ => return Err(bad("unknown acquire-error tag")),
    })
}

fn enc_summary(e: &mut Enc, s: &AcquisitionSummary) {
    e.usize(s.outcomes.len());
    for o in &s.outcomes {
        e.u32(o.id.0).u32(o.attempts).u64(o.ticks);
        match &o.disposition {
            Disposition::Fresh => {
                e.u8(0);
            }
            Disposition::Degraded(deg) => {
                e.u8(1);
                enc_degradation(e, deg);
            }
            Disposition::Skipped(err) => {
                e.u8(2);
                enc_acquire_error(e, err);
            }
            Disposition::Quarantined => {
                e.u8(3);
            }
        }
    }
    e.usize(s.skipped.len());
    for (id, why) in &s.skipped {
        e.u32(id.0).str(why);
    }
    e.usize(s.degraded.len());
    for (id, deg) in &s.degraded {
        e.u32(id.0);
        enc_degradation(e, deg);
    }
    e.u64(s.attempts).u64(s.ticks);
}

fn dec_summary(d: &mut Dec) -> Result<AcquisitionSummary> {
    let n = d.usize()?;
    let mut outcomes = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let id = SourceId(d.u32()?);
        let attempts = d.u32()?;
        let ticks = d.u64()?;
        let disposition = match d.u8()? {
            0 => Disposition::Fresh,
            1 => Disposition::Degraded(dec_degradation(d)?),
            2 => Disposition::Skipped(dec_acquire_error(d)?),
            3 => Disposition::Quarantined,
            _ => return Err(bad("unknown disposition tag")),
        };
        outcomes.push(AcquireOutcome {
            id,
            attempts,
            ticks,
            disposition,
        });
    }
    let n = d.usize()?;
    let mut skipped = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        skipped.push((SourceId(d.u32()?), d.str()?));
    }
    let n = d.usize()?;
    let mut degraded = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        degraded.push((SourceId(d.u32()?), dec_degradation(d)?));
    }
    Ok(AcquisitionSummary {
        outcomes,
        skipped,
        degraded,
        attempts: d.u64()?,
        ticks: d.u64()?,
    })
}

fn enc_creport(e: &mut Enc, r: &ContainmentReport) {
    e.usize(r.quarantines.len());
    for q in &r.quarantines {
        e.u32(q.source.0).u8(stage_tag(q.stage)).str(&q.reason);
    }
    for stage in Stage::all() {
        let t = r.tallies(stage);
        e.u64(t.quarantined)
            .u64(t.dropped_rows)
            .u64(t.deadline_hits)
            .u64(t.panics_caught);
    }
}

fn dec_creport(d: &mut Dec) -> Result<ContainmentReport> {
    let mut r = ContainmentReport::default();
    let n = d.usize()?;
    for _ in 0..n {
        let source = SourceId(d.u32()?);
        let stage = stage_from_tag(d.u8()?)?;
        let reason = d.str()?;
        r.quarantines.push(crate::contain::QuarantineEvent {
            source,
            stage,
            reason,
        });
    }
    for stage in Stage::all() {
        let t = StageTallies {
            quarantined: d.u64()?,
            dropped_rows: d.u64()?,
            deadline_hits: d.u64()?,
            panics_caught: d.u64()?,
        };
        r.set_tallies(stage, t);
    }
    Ok(r)
}

fn enc_mapping(e: &mut Enc, m: &Mapping) {
    wire::encode_schema(e, &m.target);
    e.usize(m.bindings.len());
    for b in &m.bindings {
        match b {
            None => {
                e.u8(0);
            }
            Some(i) => {
                e.u8(1).usize(*i);
            }
        }
    }
    e.usize(m.binding_beliefs.len());
    for b in &m.binding_beliefs {
        enc_belief(e, b);
    }
    enc_belief(e, &m.belief);
}

fn dec_mapping(d: &mut Dec) -> Result<Mapping> {
    let target = wire::decode_schema(d)?;
    let n = d.usize()?;
    let mut bindings = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        bindings.push(match d.u8()? {
            0 => None,
            1 => Some(d.usize()?),
            _ => return Err(bad("unknown binding tag")),
        });
    }
    let n = d.usize()?;
    let mut binding_beliefs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        binding_beliefs.push(dec_belief(d)?);
    }
    let belief = dec_belief(d)?;
    Ok(Mapping {
        target,
        bindings,
        binding_beliefs,
        belief,
    })
}

fn enc_fused(e: &mut Enc, f: &FusedValue) {
    wire::encode_value(e, &f.value);
    e.f64(f.weight).f64(f.total_weight).usize(f.supporters.len());
    for &s in &f.supporters {
        e.usize(s);
    }
    e.f64(f.freshness);
}

fn dec_fused(d: &mut Dec) -> Result<FusedValue> {
    let value = wire::decode_value(d)?;
    let weight = d.f64()?;
    let total_weight = d.f64()?;
    let n = d.usize()?;
    let mut supporters = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        supporters.push(d.usize()?);
    }
    Ok(FusedValue {
        value,
        weight,
        total_weight,
        supporters,
        freshness: d.f64()?,
    })
}

fn enc_ids(e: &mut Enc, ids: &[SourceId]) {
    e.usize(ids.len());
    for id in ids {
        e.u32(id.0);
    }
}

fn dec_ids(d: &mut Dec) -> Result<Vec<SourceId>> {
    let n = d.usize()?;
    let mut out = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        out.push(SourceId(d.u32()?));
    }
    Ok(out)
}

/// The pair-score cache section: the dictionary once, then fixed-width
/// entries `(id_left u32, id_right u32, score f64, src_left u32, src_right
/// u32)` in ascending id-pair order, written straight from the cache.
fn enc_pairs(e: &mut Enc, cache: &PairScoreCache) {
    let dictionary = cache.dictionary();
    e.usize(dictionary.len());
    for key in dictionary {
        e.str(key);
    }
    e.usize(cache.len());
    for p in cache.entries() {
        e.u32(p.ids.0)
            .u32(p.ids.1)
            .f64(p.score)
            .u32(p.sources.0)
            .u32(p.sources.1);
    }
}

fn dec_pairs(d: &mut Dec) -> Result<PairScoreCache> {
    let n = d.usize()?;
    let mut dictionary = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        dictionary.push(d.str()?);
    }
    let n = d.usize()?;
    let mut entries = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        entries.push(PairEntry {
            ids: (d.u32()?, d.u32()?),
            score: d.f64()?,
            sources: (d.u32()?, d.u32()?),
        });
    }
    PairScoreCache::restore(dictionary, entries).map_err(bad)
}

// ---------------------------------------------------------------------------
// Session state snapshot
// ---------------------------------------------------------------------------

/// Everything a wrangle pass has mutated up to a seam, in plain data form.
/// The session builds one of these at each seam (and applies one on a
/// checkpoint hit); the struct exists so serialization lives here while the
/// private `Wrangler` fields stay private.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState<'a> {
    /// Session tick at pass start.
    pub now: u64,
    /// Source-access budget spent.
    pub access_spent: f64,
    /// Per-source trust beliefs, in registry order.
    pub trust: Vec<Belief>,
    /// Per-source data-context relevance, in registry order.
    pub relevance: Vec<f64>,
    /// Acquisition engine: virtual clock.
    pub acq_clock: u64,
    /// Acquisition engine: total attempts across the session.
    pub acq_total_attempts: u64,
    /// Acquisition engine: total backoff ticks across the session.
    pub acq_total_backoff: u64,
    /// Acquisition engine: the per-source breaker fleet.
    pub breakers: Vec<CircuitBreaker>,
    /// The ER pair-score cache: borrowed from the session when saving (the
    /// encoder reads it in place), owned after decoding.
    pub pair_cache: Cow<'a, PairScoreCache>,
    /// Work counters.
    pub work: WorkCounters,
    /// The containment report of the pass so far.
    pub creport: ContainmentReport,
    /// The acquisition summary of the pass (empty before the acquire seam).
    pub last_acquisition: AcquisitionSummary,
}

impl SessionState<'_> {
    /// Serialize to the canonical checkpoint payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.now).f64(self.access_spent);
        e.usize(self.trust.len());
        for b in &self.trust {
            enc_belief(&mut e, b);
        }
        e.usize(self.relevance.len());
        for &r in &self.relevance {
            e.f64(r);
        }
        e.u64(self.acq_clock)
            .u64(self.acq_total_attempts)
            .u64(self.acq_total_backoff);
        e.usize(self.breakers.len());
        for b in &self.breakers {
            enc_breaker(&mut e, b);
        }
        enc_pairs(&mut e, &self.pair_cache);
        e.usize(self.work.extractions)
            .usize(self.work.mappings_generated)
            .usize(self.work.tables_mapped)
            .usize(self.work.er_pairs)
            .usize(self.work.slots_fused);
        enc_creport(&mut e, &self.creport);
        enc_summary(&mut e, &self.last_acquisition);
        e.into_bytes()
    }

    /// Decode a payload produced by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<SessionState<'static>> {
        let mut d = Dec::new(bytes);
        let now = d.u64()?;
        let access_spent = d.f64()?;
        let n = d.usize()?;
        let mut trust = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            trust.push(dec_belief(&mut d)?);
        }
        let n = d.usize()?;
        let mut relevance = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            relevance.push(d.f64()?);
        }
        let acq_clock = d.u64()?;
        let acq_total_attempts = d.u64()?;
        let acq_total_backoff = d.u64()?;
        let n = d.usize()?;
        let mut breakers = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            breakers.push(dec_breaker(&mut d)?);
        }
        let pair_cache = Cow::Owned(dec_pairs(&mut d)?);
        let work = WorkCounters {
            extractions: d.usize()?,
            mappings_generated: d.usize()?,
            tables_mapped: d.usize()?,
            er_pairs: d.usize()?,
            slots_fused: d.usize()?,
        };
        let creport = dec_creport(&mut d)?;
        let last_acquisition = dec_summary(&mut d)?;
        Ok(SessionState {
            now,
            access_spent,
            trust,
            relevance,
            acq_clock,
            acq_total_attempts,
            acq_total_backoff,
            breakers,
            pair_cache,
            work,
            creport,
            last_acquisition,
        })
    }

    /// Stable hash of the decision-relevant state, mixed into downstream
    /// content keys: any divergence in trust, clock or breaker state forces
    /// a recompute instead of replaying a checkpoint from a different
    /// history.
    pub fn content_hash(&self) -> u64 {
        wire::hash64(&self.encode())
    }
}

// ---------------------------------------------------------------------------
// Stage output records
// ---------------------------------------------------------------------------

/// Leading word of every seam record: a magic in the high half, the layout
/// version in the low half. Bump the version on any layout change. Version
/// 1 records had no such word — they open with the session payload's byte
/// length, whose high half is zero for any record under 4 GiB — so an old
/// record is always rejected, never mis-decoded.
const RECORD_TAG: u64 = (0x5753_5354 << 32) | 2;

/// A full seam record: the layout tag, then the session snapshot and the
/// stage's output bytes, each length-prefixed.
pub fn encode_record(state: &SessionState, output: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(RECORD_TAG).bytes(&state.encode()).bytes(output);
    e.into_bytes()
}

/// Split a seam record back into `(state, output bytes)`. A record of any
/// other layout version is an error (the session treats it as a miss).
pub fn decode_record(bytes: &[u8]) -> Result<(SessionState<'static>, Vec<u8>)> {
    let mut d = Dec::new(bytes);
    if d.u64()? != RECORD_TAG {
        return Err(bad("unknown record layout version"));
    }
    let state_bytes = d.bytes()?;
    let state = SessionState::decode(state_bytes)?;
    let output = d.bytes()?.to_vec();
    Ok((state, output))
}

/// Select-seam output: the chosen sources.
pub struct SelectOut {
    /// Selected source ids, in selection order.
    pub selected: Vec<SourceId>,
}

impl SelectOut {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.into_bytes()
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> Result<SelectOut> {
        let mut d = Dec::new(bytes);
        Ok(SelectOut {
            selected: dec_ids(&mut d)?,
        })
    }
}

/// Acquire-seam output: the surviving sources and any degraded payloads
/// (delivered tables that differ from the registry's).
pub struct AcquireOut {
    /// Survivors, in selection order.
    pub selected: Vec<SourceId>,
    /// `(source index, delivered table)` for degraded deliveries.
    pub degraded_tables: Vec<(usize, Table)>,
}

impl AcquireOut {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.usize(self.degraded_tables.len());
        for (i, t) in &self.degraded_tables {
            e.usize(*i);
            wire::encode_table(&mut e, t);
        }
        e.into_bytes()
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> Result<AcquireOut> {
        let mut d = Dec::new(bytes);
        let selected = dec_ids(&mut d)?;
        let n = d.usize()?;
        let mut degraded_tables = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            let i = d.usize()?;
            degraded_tables.push((i, wire::decode_table(&mut d)?));
        }
        Ok(AcquireOut {
            selected,
            degraded_tables,
        })
    }
}

/// Map-generate-seam output: every survivor's mapping (regenerated or
/// carried over) plus the surviving selection.
pub struct MapGenOut {
    /// Survivors after generation quarantines.
    pub selected: Vec<SourceId>,
    /// `(source index, mapping)` for every survivor.
    pub mappings: Vec<(usize, Mapping)>,
}

impl MapGenOut {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.usize(self.mappings.len());
        for (i, m) in &self.mappings {
            e.usize(*i);
            enc_mapping(&mut e, m);
        }
        e.into_bytes()
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> Result<MapGenOut> {
        let mut d = Dec::new(bytes);
        let selected = dec_ids(&mut d)?;
        let n = d.usize()?;
        let mut mappings = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            let i = d.usize()?;
            mappings.push((i, dec_mapping(&mut d)?));
        }
        Ok(MapGenOut { selected, mappings })
    }
}

/// Map-apply-seam output: every survivor's mapped table and filter tag.
pub struct MapApplyOut {
    /// Survivors after apply quarantines.
    pub selected: Vec<SourceId>,
    /// `(source index, mapped table, filter tag)` for every survivor.
    pub mapped: Vec<(usize, Table, Option<String>)>,
}

impl MapApplyOut {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.usize(self.mapped.len());
        for (i, t, tag) in &self.mapped {
            e.usize(*i);
            wire::encode_table(&mut e, t);
            match tag {
                None => {
                    e.u8(0);
                }
                Some(s) => {
                    e.u8(1).str(s);
                }
            }
        }
        e.into_bytes()
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> Result<MapApplyOut> {
        let mut d = Dec::new(bytes);
        let selected = dec_ids(&mut d)?;
        let n = d.usize()?;
        let mut mapped = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            let i = d.usize()?;
            let t = wire::decode_table(&mut d)?;
            let tag = match d.u8()? {
                0 => None,
                1 => Some(d.str()?),
                _ => return Err(bad("unknown filter-tag marker")),
            };
            mapped.push((i, t, tag));
        }
        Ok(MapApplyOut { selected, mapped })
    }
}

/// Union-seam output: the provenance-tagged union rows.
pub struct UnionOut {
    /// Survivors after union quarantines.
    pub selected: Vec<SourceId>,
    /// `(source index, row values)` in union order.
    pub union: Vec<(usize, Vec<Value>)>,
    /// Rows removed by the row filter (an obs counter the outcome reports).
    pub union_filtered: u64,
}

impl UnionOut {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.u64(self.union_filtered);
        e.usize(self.union.len());
        for (i, row) in &self.union {
            e.usize(*i).usize(row.len());
            for v in row {
                wire::encode_value(&mut e, v);
            }
        }
        e.into_bytes()
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> Result<UnionOut> {
        let mut d = Dec::new(bytes);
        let selected = dec_ids(&mut d)?;
        let union_filtered = d.u64()?;
        let n = d.usize()?;
        let mut union = Vec::with_capacity(n.min(1 << 22));
        for _ in 0..n {
            let i = d.usize()?;
            let cols = d.usize()?;
            let mut row = Vec::with_capacity(cols.min(4096));
            for _ in 0..cols {
                row.push(wire::decode_value(&mut d)?);
            }
            union.push((i, row));
        }
        Ok(UnionOut {
            selected,
            union,
            union_filtered,
        })
    }
}

/// ER-seam output: the clustering.
pub struct ErOut {
    /// Entity clusters (row indices into the union).
    pub clusters: Vec<Vec<usize>>,
    /// Entity id per union row.
    pub row_entity: Vec<usize>,
}

impl ErOut {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.usize(self.clusters.len());
        for c in &self.clusters {
            e.usize(c.len());
            for &r in c {
                e.usize(r);
            }
        }
        e.usize(self.row_entity.len());
        for &r in &self.row_entity {
            e.usize(r);
        }
        e.into_bytes()
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> Result<ErOut> {
        let mut d = Dec::new(bytes);
        let n = d.usize()?;
        let mut clusters = Vec::with_capacity(n.min(1 << 22));
        for _ in 0..n {
            let m = d.usize()?;
            let mut c = Vec::with_capacity(m.min(1 << 22));
            for _ in 0..m {
                c.push(d.usize()?);
            }
            clusters.push(c);
        }
        let n = d.usize()?;
        let mut row_entity = Vec::with_capacity(n.min(1 << 22));
        for _ in 0..n {
            row_entity.push(d.usize()?);
        }
        Ok(ErOut {
            clusters,
            row_entity,
        })
    }
}

/// Fuse-seam output: the fused slots and the fusion-time source context.
/// Claims are *not* serialized — a hit rebuilds the claim set from the
/// (already restored) union, row→entity map and the removed-source list,
/// which is cheap and keeps the heavy `ClaimSet` out of the wire format.
pub struct FuseOut {
    /// Survivors after fuse-stage quarantines.
    pub selected: Vec<SourceId>,
    /// Source indices quarantined at the fuse seam (their claims are
    /// excluded from the rebuilt claim set).
    pub fuse_removed: Vec<usize>,
    /// Fusion-time per-source trust (truthfinder blend).
    pub trust: Vec<f64>,
    /// Fusion-time per-source age.
    pub age: Vec<u64>,
    /// Fused slots: `(entity, attr, value)`.
    pub fused: Vec<(usize, usize, FusedValue)>,
}

impl FuseOut {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.usize(self.fuse_removed.len());
        for &i in &self.fuse_removed {
            e.usize(i);
        }
        e.usize(self.trust.len());
        for &t in &self.trust {
            e.f64(t);
        }
        e.usize(self.age.len());
        for &a in &self.age {
            e.u64(a);
        }
        e.usize(self.fused.len());
        for (ent, attr, f) in &self.fused {
            e.usize(*ent).usize(*attr);
            enc_fused(&mut e, f);
        }
        e.into_bytes()
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> Result<FuseOut> {
        let mut d = Dec::new(bytes);
        let selected = dec_ids(&mut d)?;
        let n = d.usize()?;
        let mut fuse_removed = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            fuse_removed.push(d.usize()?);
        }
        let n = d.usize()?;
        let mut trust = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            trust.push(d.f64()?);
        }
        let n = d.usize()?;
        let mut age = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            age.push(d.u64()?);
        }
        let n = d.usize()?;
        let mut fused = Vec::with_capacity(n.min(1 << 22));
        for _ in 0..n {
            let ent = d.usize()?;
            let attr = d.usize()?;
            fused.push((ent, attr, dec_fused(&mut d)?));
        }
        Ok(FuseOut {
            selected,
            fuse_removed,
            trust,
            age,
            fused,
        })
    }
}

/// The version-1 record layout (no leading tag; the pair cache as one
/// `len#left right` string per entry plus hit/miss counters), kept so tests
/// can show such records are rejected.
#[cfg(test)]
pub(crate) fn encode_record_v1(state: &SessionState, output: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(state.now).f64(state.access_spent);
    e.usize(state.trust.len());
    for b in &state.trust {
        enc_belief(&mut e, b);
    }
    e.usize(state.relevance.len());
    for &r in &state.relevance {
        e.f64(r);
    }
    e.u64(state.acq_clock)
        .u64(state.acq_total_attempts)
        .u64(state.acq_total_backoff);
    e.usize(state.breakers.len());
    for b in &state.breakers {
        enc_breaker(&mut e, b);
    }
    let dictionary = state.pair_cache.dictionary();
    e.usize(state.pair_cache.len());
    for p in state.pair_cache.entries() {
        let (a, b) = (&dictionary[p.ids.0 as usize], &dictionary[p.ids.1 as usize]);
        e.str(&format!("{}#{a}{b}", a.len()))
            .f64(p.score)
            .u64(u64::from(p.sources.0))
            .u64(u64::from(p.sources.1));
    }
    e.u64(0).u64(0);
    e.usize(state.work.extractions)
        .usize(state.work.mappings_generated)
        .usize(state.work.tables_mapped)
        .usize(state.work.er_pairs)
        .usize(state.work.slots_fused);
    enc_creport(&mut e, &state.creport);
    enc_summary(&mut e, &state.last_acquisition);
    let mut rec = Enc::new();
    rec.bytes(&e.into_bytes()).bytes(output);
    rec.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::{Schema, Value};
    use wrangler_uncertainty::Evidence;

    fn sample_state() -> SessionState<'static> {
        let mut trust = Belief::from_prior(0.6);
        trust.update(&Evidence::vote(EvidenceKind::Component, false, 0.8).discounted(0.9));
        let mut creport = ContainmentReport::default();
        creport.record_quarantine(SourceId(3), Stage::Union, "poison");
        creport.drop_rows(Stage::Union, 12);
        creport.caught_panic(Stage::MapGenerate);
        SessionState {
            now: 42,
            access_spent: 7.25,
            trust: vec![Belief::from_prior(0.6), trust],
            relevance: vec![1.0, 0.5],
            acq_clock: 99,
            acq_total_attempts: 17,
            acq_total_backoff: 31,
            breakers: vec![
                CircuitBreaker::new(BreakerConfig::default()),
                CircuitBreaker::from_parts(
                    BreakerConfig::default(),
                    BreakerState::Open { until: 123 },
                    3,
                    0,
                ),
                CircuitBreaker::from_parts(BreakerConfig::default(), BreakerState::HalfOpen, 0, 1),
            ],
            pair_cache: Cow::Owned(
                PairScoreCache::restore(
                    vec!["t4:acme;".into(), "t7:acme co;".into()],
                    [
                        PairEntry {
                            ids: (0, 1),
                            score: 0.875,
                            sources: (0, 2),
                        },
                        PairEntry {
                            ids: (1, 1),
                            score: -0.0,
                            sources: (1, 1),
                        },
                    ],
                )
                .unwrap(),
            ),
            work: WorkCounters {
                extractions: 1,
                mappings_generated: 2,
                tables_mapped: 3,
                er_pairs: 4,
                slots_fused: 5,
            },
            creport,
            last_acquisition: AcquisitionSummary {
                outcomes: vec![
                    AcquireOutcome {
                        id: SourceId(0),
                        attempts: 1,
                        ticks: 2,
                        disposition: Disposition::Fresh,
                    },
                    AcquireOutcome {
                        id: SourceId(1),
                        attempts: 3,
                        ticks: 9,
                        disposition: Disposition::Skipped(AcquireError::DeadlineExceeded {
                            source: SourceId(1),
                            latency: 30,
                            deadline: 8,
                        }),
                    },
                    AcquireOutcome {
                        id: SourceId(2),
                        attempts: 1,
                        ticks: 1,
                        disposition: Disposition::Degraded(Degradation::Truncated {
                            kept: 5,
                            total: 10,
                        }),
                    },
                    AcquireOutcome {
                        id: SourceId(3),
                        attempts: 0,
                        ticks: 0,
                        disposition: Disposition::Quarantined,
                    },
                ],
                skipped: vec![(SourceId(1), "deadline".into())],
                degraded: vec![(SourceId(2), Degradation::Truncated { kept: 5, total: 10 })],
                attempts: 5,
                ticks: 12,
            },
        }
    }

    #[test]
    fn session_state_roundtrips_bit_exact() {
        let s = sample_state();
        let bytes = s.encode();
        let back = SessionState::decode(&bytes).unwrap();
        assert_eq!(back, s);
        // Bit-exactness of the floats, not just PartialEq.
        assert_eq!(
            back.access_spent.to_bits(),
            s.access_spent.to_bits()
        );
        assert_eq!(back.encode(), bytes, "canonical: re-encode is identical");
    }

    #[test]
    fn record_framing_roundtrips() {
        let s = sample_state();
        let out = SelectOut {
            selected: vec![SourceId(0), SourceId(2)],
        }
        .encode();
        let rec = encode_record(&s, &out);
        let (s2, out2) = decode_record(&rec).unwrap();
        assert_eq!(s2, s);
        assert_eq!(out2, out);
        let sel = SelectOut::decode(&out2).unwrap();
        assert_eq!(sel.selected, vec![SourceId(0), SourceId(2)]);
    }

    #[test]
    fn truncated_state_errors_cleanly() {
        let bytes = sample_state().encode();
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SessionState::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must error"
            );
        }
    }

    #[test]
    fn stage_outputs_roundtrip() {
        let schema = Schema::of_strs(&["name", "price"]);
        let mut t = Table::empty(schema.clone());
        t.push_row(vec![Value::Str("a".into()), Value::Float(-0.0)])
            .unwrap();
        let acq = AcquireOut {
            selected: vec![SourceId(1)],
            degraded_tables: vec![(1, t.clone())],
        };
        let back = AcquireOut::decode(&acq.encode()).unwrap();
        assert_eq!(back.selected, acq.selected);
        assert_eq!(
            wire::table_hash(&back.degraded_tables[0].1),
            wire::table_hash(&t)
        );

        let union = UnionOut {
            selected: vec![SourceId(0)],
            union: vec![
                (0, vec![Value::Str("x".into()), Value::Float(f64::NAN)]),
                (1, vec![Value::Null, Value::Int(-3)]),
            ],
            union_filtered: 2,
        };
        let back = UnionOut::decode(&union.encode()).unwrap();
        assert_eq!(back.union_filtered, 2);
        assert_eq!(back.union.len(), 2);
        match (&back.union[0].1[1], &union.union[0].1[1]) {
            (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            other => panic!("expected floats, got {other:?}"),
        }

        let er = ErOut {
            clusters: vec![vec![0, 2], vec![1]],
            row_entity: vec![0, 1, 0],
        };
        let back = ErOut::decode(&er.encode()).unwrap();
        assert_eq!(back.clusters, er.clusters);
        assert_eq!(back.row_entity, er.row_entity);

        let fuse = FuseOut {
            selected: vec![SourceId(0), SourceId(1)],
            fuse_removed: vec![2],
            trust: vec![0.75, 0.5],
            age: vec![0, 9],
            fused: vec![(
                0,
                1,
                FusedValue {
                    value: Value::Float(1.5),
                    weight: 0.9,
                    total_weight: 1.2,
                    supporters: vec![0, 1],
                    freshness: 0.8,
                },
            )],
        };
        let back = FuseOut::decode(&fuse.encode()).unwrap();
        assert_eq!(back.fuse_removed, fuse.fuse_removed);
        assert_eq!(back.fused.len(), 1);
        assert_eq!(back.fused[0].2.supporters, vec![0, 1]);
    }

    #[test]
    fn mapping_roundtrips() {
        let target = Schema::of_strs(&["name", "price"]);
        let m = Mapping {
            target,
            bindings: vec![Some(1), None],
            binding_beliefs: vec![Belief::from_prior(0.8), Belief::uninformed()],
            belief: Belief::from_prior(0.7),
        };
        let gen = MapGenOut {
            selected: vec![SourceId(0)],
            mappings: vec![(0, m.clone())],
        };
        let back = MapGenOut::decode(&gen.encode()).unwrap();
        assert_eq!(back.mappings[0].1.bindings, m.bindings);
        assert_eq!(
            back.mappings[0].1.belief.log_odds().to_bits(),
            m.belief.log_odds().to_bits()
        );
    }

    #[test]
    fn corrupt_tags_error_not_panic() {
        let s = sample_state();
        let mut bytes = s.encode();
        // Flip every byte position one at a time; decode must never panic
        // (errors are fine, and a lucky flip may even decode to different
        // valid data — the store's checksum is what rejects those).
        for i in 0..bytes.len() {
            bytes[i] ^= 0xff;
            let _ = SessionState::decode(&bytes);
            bytes[i] ^= 0xff;
        }
    }
    fn pair_bytes(cache: &PairScoreCache) -> Vec<u8> {
        let mut e = Enc::new();
        enc_pairs(&mut e, cache);
        e.into_bytes()
    }

    /// A score drawn to hit the awkward bit patterns: NaN payloads, -0.0,
    /// any raw pattern (±∞, subnormals), or a plain value.
    fn awkward_score(kind: u8, bits: u64) -> f64 {
        match kind {
            0 => f64::from_bits(0x7ff8_0000_0000_0000 | (bits & 0x000f_ffff_ffff_ffff)),
            1 => -0.0,
            2 => f64::from_bits(bits),
            _ => 0.5,
        }
    }

    proptest::proptest! {
        #[test]
        fn pair_section_roundtrips_bit_exact(
            stems in proptest::prop::collection::vec("[ab]{0,3}", 0..6),
            raw in proptest::prop::collection::vec(
                ((0u32..8, 0u32..8), 0u8..4, proptest::prelude::any::<u64>(), (0u32..40, 0u32..40)),
                0..24,
            ),
            bad_id in 0u32..4,
        ) {
            // Keys over a two-letter alphabet share prefixes ("a", "ab",
            // "aba"); repeats are dropped, the dictionary stays distinct.
            let mut dictionary: Vec<String> = Vec::new();
            for stem in stems {
                let key = format!("t{}:{stem};", stem.len());
                if !dictionary.contains(&key) {
                    dictionary.push(key);
                }
            }
            let n = dictionary.len() as u32;
            let mut entries: std::collections::BTreeMap<(u32, u32), PairEntry> = Default::default();
            if n > 0 {
                for ((a, b), kind, bits, sources) in raw {
                    let ids = (a % n, b % n);
                    entries.insert(ids, PairEntry {
                        ids,
                        score: awkward_score(kind, bits),
                        sources,
                    });
                }
            }
            let cache = PairScoreCache::restore(dictionary.clone(), entries.values().copied()).unwrap();
            let bytes = pair_bytes(&cache);
            let mut d = Dec::new(&bytes);
            let back = dec_pairs(&mut d).unwrap();
            proptest::prop_assert_eq!(d.remaining(), 0);
            proptest::prop_assert_eq!(back.dictionary(), &dictionary[..]);
            type Bits = Vec<((u32, u32), u64, (u32, u32))>;
            let bits = |c: &PairScoreCache| -> Bits {
                c.entries().map(|e| (e.ids, e.score.to_bits(), e.sources)).collect()
            };
            proptest::prop_assert_eq!(bits(&back), bits(&cache));
            proptest::prop_assert_eq!(pair_bytes(&back), bytes, "canonical re-encode");

            // An entry naming an id at or past the dictionary's end is a
            // decode error, never a silent remap.
            let mut e = Enc::new();
            e.usize(dictionary.len());
            for key in &dictionary {
                e.str(key);
            }
            e.usize(1).u32(0).u32(n + bad_id).f64(0.5).u32(0).u32(0);
            let bad = e.into_bytes();
            proptest::prop_assert!(dec_pairs(&mut Dec::new(&bad)).is_err());
        }
    }

    #[test]
    fn empty_pair_cache_roundtrips() {
        let bytes = pair_bytes(&PairScoreCache::default());
        assert_eq!(bytes.len(), 16, "two zero counts");
        let back = dec_pairs(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back, PairScoreCache::default());
    }

    #[test]
    fn old_layout_records_are_rejected_not_misdecoded() {
        let s = sample_state();
        let out = SelectOut {
            selected: vec![SourceId(0)],
        }
        .encode();
        let v1 = encode_record_v1(&s, &out);
        assert!(decode_record(&v1).is_err());
        // An empty cache and an empty output too: there is no v1 record a
        // v2 decoder accepts.
        let mut empty = sample_state();
        empty.pair_cache = Cow::Owned(PairScoreCache::default());
        assert!(decode_record(&encode_record_v1(&empty, &[])).is_err());
        // The current layout still decodes.
        assert_eq!(decode_record(&encode_record(&s, &out)).unwrap().0, s);
    }
}
