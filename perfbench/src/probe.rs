//! Layer probes: after a traced op, re-run the ER and fusion layers on the
//! session's own state through their public functions and time each step.
//!
//! A probe must do the pipeline's work, not similar work, so it rebuilds
//! the stage inputs exactly as the stage does and then checks its counts
//! against the counters of the pass that last computed that state. A probe
//! whose counts disagree is an error; its timings are never reported.

use std::collections::BTreeMap;
use std::time::Instant;

use data_wrangler::core::Wrangler;
use data_wrangler::fusion::{truthfinder, FuseKernel, TruthFinderConfig};
use data_wrangler::resolve::{
    candidates_blocked, candidates_blocked_exact, cluster_pairs, ErKernel,
};
use data_wrangler::table::{par, Schema, Table, Value};

/// Per-op layer numbers, by metric name.
pub type Sample = BTreeMap<String, f64>;

/// The ER stage's blocking column: the first target field whose name says
/// it is a name or title, else the key column.
fn blocking_column(target: &Schema) -> String {
    target
        .fields()
        .iter()
        .find(|f| {
            let l = f.name.to_lowercase();
            l.contains("name") || l.contains("title")
        })
        .unwrap_or(&target.fields()[0])
        .name
        .clone()
}

/// Candidate pairs exactly as the ER stage builds them: block on the
/// blocking column, add the key column's exact-block pairs, sort, dedup.
fn er_candidates(
    union: &Table,
    target: &Schema,
) -> data_wrangler::table::Result<Vec<(usize, usize)>> {
    let block_col = blocking_column(target);
    let key_col = target.fields()[0].name.clone();
    let mut candidates = candidates_blocked(union, &block_col)?;
    if key_col != block_col {
        candidates.extend(candidates_blocked_exact(union, &key_col)?);
        candidates.sort_unstable();
        candidates.dedup();
    }
    Ok(candidates)
}

/// Master-data anchors as the fuse stage derives them: per entity, the
/// first key claim found in the product master pins every attribute the
/// master knows.
fn master_anchors(
    w: &Wrangler,
    union: &Table,
    clusters: &[Vec<usize>],
) -> Vec<(usize, usize, Value)> {
    let target = w.target();
    let Some(master) = w.data_ctx.master("product") else {
        return Vec::new();
    };
    let Ok(key_idx) = target.index_of(&master.key_column) else {
        return Vec::new();
    };
    let mut anchors = Vec::new();
    for (e, cluster) in clusters.iter().enumerate() {
        let key = cluster.iter().find_map(|&r| {
            let v = union.get(r, key_idx).ok()?;
            (!v.is_null() && master.contains_key(v)).then(|| v.clone())
        });
        let Some(key) = key else { continue };
        for (a, field) in target.fields().iter().enumerate() {
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

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn expect_eq(what: &str, probe: usize, reference: &BTreeMap<String, u64>) -> Result<(), String> {
    let pass = reference.get(what).copied().unwrap_or(0) as usize;
    if probe == pass {
        Ok(())
    } else {
        Err(format!("probe {what} = {probe}, pipeline counted {pass}"))
    }
}

/// Run the ER and fusion probes on `w`'s last delivered state. `reference`
/// holds the counters of the pass that computed that state.
pub fn run(
    w: &Wrangler,
    reference: &BTreeMap<String, u64>,
    sample: &mut Sample,
) -> Result<(), String> {
    let err = |e: data_wrangler::table::TableError| e.to_string();
    let union = w.union_table().ok_or("probe: session has no union table")?;
    let workers = par::available_parallelism();
    let mut timed = Sample::new();

    let t = Instant::now();
    let candidates = er_candidates(&union, w.target()).map_err(err)?;
    timed.insert("resolve.candidates_ms".into(), ms_since(t));
    expect_eq("er.candidates", candidates.len(), reference)?;

    let t = Instant::now();
    let kernel = ErKernel::compile(&union, w.er_config()).map_err(err)?;
    timed.insert("resolve.compile_ms".into(), ms_since(t));

    let t = Instant::now();
    let (pairs, _) = kernel
        .match_pairs_parallel(&candidates, workers)
        .map_err(err)?;
    timed.insert("resolve.score_ms".into(), ms_since(t));
    expect_eq("er.match_pairs", pairs.len(), reference)?;

    let t = Instant::now();
    let clusters = cluster_pairs(union.num_rows(), pairs.iter().map(|p| (p.i, p.j)));
    timed.insert("resolve.cluster_ms".into(), ms_since(t));

    let (claims, ctx, strategy) = w
        .fusion_inputs()
        .ok_or("probe: session has no fusion inputs")?;
    expect_eq("fuse.claims", claims.claims.len(), reference)?;
    let anchors = master_anchors(w, &union, &clusters);
    expect_eq("fuse.anchors", anchors.len(), reference)?;

    let t = Instant::now();
    std::hint::black_box(truthfinder(claims, &TruthFinderConfig::default(), &anchors));
    timed.insert("fusion.truthfinder_ms".into(), ms_since(t));

    // Dead columns are skipped by the fuse stage; the rest is its slot set.
    let live = w.plan_program().and_then(|p| p.live_mask());
    let slots: Vec<(usize, usize)> = claims
        .slots()
        .into_iter()
        .filter(|&(_, a)| live.is_none_or(|m| m[a]))
        .collect();
    expect_eq("fuse.slots", slots.len(), reference)?;

    let t = Instant::now();
    let kernel = FuseKernel::compile(claims, strategy, ctx);
    std::hint::black_box(kernel.fuse_slots_parallel(&slots, workers).map_err(err)?);
    timed.insert("fusion.kernel_ms".into(), ms_since(t));

    sample.extend(timed);
    Ok(())
}
