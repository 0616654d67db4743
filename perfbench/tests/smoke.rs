//! Reduced-size smoke runs of every workload, and the agreement between
//! the metric tables and `BENCHMARK.json`.

use perfbench::{run, Budget, Report, RunConfig, Scale, Workload, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, trace: bool) -> Report {
    let cfg = RunConfig {
        workload,
        seed: 7,
        budget: Budget::Ops(6),
        trace,
        scale: Scale::smoke(workload),
    };
    run(&cfg).expect("smoke run sets up")
}

#[test]
fn every_workload_runs_clean_and_its_counts_repeat() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let a = smoke(w, trace);
            assert_eq!(a.failed, 0, "{} trace={trace}: {:?}", w.name(), a.failures);
            assert!(a.attempted > 0);
            let b = smoke(w, trace);
            assert_eq!(
                a.counts,
                b.counts,
                "{} trace={trace}: counts differ between runs",
                w.name()
            );
        }
    }
}

#[test]
fn traced_probes_do_the_pipelines_work() {
    for w in Workload::ALL {
        let r = smoke(w, true);
        let value = |name: &str| r.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        assert!(
            value("resolve.score_ms").is_some_and(|v| v > 0.0),
            "{}: ER probe never ran",
            w.name()
        );
        assert!(
            value("fusion.kernel_ms").is_some_and(|v| v > 0.0),
            "{}: fuse probe never ran",
            w.name()
        );
    }
    let r = smoke(Workload::CrashRecovery, true);
    let value = |name: &str| r.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
    assert!(
        value("refuse.slots").is_some_and(|v| v > 0.0),
        "the feedback probe re-fused no slot"
    );
}

#[test]
fn result_line_is_the_last_line_and_names_every_metric() {
    for trace in [false, true] {
        let r = smoke(Workload::SourceChurn, trace);
        let text = r.render();
        let last = text.lines().last().expect("output has lines");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        let names: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        for name in names {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing"
            );
        }
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            compact.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"")),
            "{name} ({unit}) is not declared"
        );
    }
    for w in Workload::ALL {
        assert!(compact.contains(&format!("{{\"name\":\"{}\",\"why\"", w.name())));
    }
    let declared = compact.matches("{\"name\":").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}
