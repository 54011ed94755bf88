//! Checks on the benchmark itself. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use es_perfbench::{run, Config, Report, END_TO_END, PER_LAYER, WORKLOADS};

fn traced(workload: &str, seed: u64) -> Report {
    run(&Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.2,
        trace: true,
    })
    .expect("known workload")
}

fn value(r: &Report, name: &str) -> f64 {
    r.metrics
        .get(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// Every traced op also runs on an untraced twin; the run fails unless
/// both printed the same bytes and left equal kernel fingerprints, and
/// every output matched its oracle.
#[test]
fn traced_runs_are_faithful_and_correct() {
    for w in WORKLOADS {
        for seed in [1, 2] {
            let r = traced(w, seed);
            assert!(r.correct, "{w} seed {seed}: {:?}", r.problems);
            assert_eq!(r.failed, 0, "{w} seed {seed}");
            assert!(r.attempted > 0, "{w} seed {seed}");
        }
    }
}

/// The counts a later change may rest a claim on repeat exactly.
#[test]
fn deterministic_counts_repeat_exactly() {
    const COUNTS: [&str; 6] = [
        "es-core.steps",
        "es-core.export_bytes",
        "es-os.execs",
        "es-os.syscalls",
        "es-gc.allocated",
        "es-gc.collections",
    ];
    for w in WORKLOADS {
        let (a, b) = (traced(w, 3), traced(w, 3));
        for c in COUNTS {
            assert_eq!(value(&a, c), value(&b, c), "{w}: {c} differs between runs");
        }
    }
}

/// Attributed layer times never exceed the op, and `interp` really is
/// builtin-only.
#[test]
fn ledger_closes() {
    for w in WORKLOADS {
        let r = traced(w, 4);
        assert!(
            value(&r, "es-core.eval_self_us") >= 0.0,
            "{w}: {:?}",
            r.problems
        );
        assert!(value(&r, "es-core.op_us") > 0.0, "{w}");
    }
    let r = traced("interp", 4);
    assert_eq!(value(&r, "es-os.execs"), 0.0);
    assert_eq!(value(&r, "es-core.export_us"), 0.0);
    assert!(value(&r, "es-gc.collections") >= 1.0, "interp must collect");
    let r = traced("fig1", 4);
    assert_eq!(value(&r, "es-os.execs"), 6.0);
}

/// The untraced run reports exactly the end-to-end metrics, the traced
/// run exactly the per-layer ones, and `BENCHMARK.json` lists both.
#[test]
fn metric_names_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |r: &Report| -> Vec<String> {
        r.metrics.values.iter().map(|(n, _, _)| n.clone()).collect()
    };
    let e2e = run(&Config {
        workload: "boot".to_string(),
        seed: 1,
        seconds: 0.2,
        trace: false,
    })
    .expect("known workload");
    let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&e2e), want);
    let layers = traced("boot", 1);
    let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&layers), want);
    for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "BENCHMARK.json lacks {w}"
        );
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the benchmark does not report"
    );
}

/// An untraced run of every workload is correct and reports no
/// end-to-end metric as 0 or as a non-finite number.
#[test]
fn end_to_end_metrics_are_positive() {
    for w in WORKLOADS {
        let r = run(&Config {
            workload: w.to_string(),
            seed: 2,
            seconds: 0.3,
            trace: false,
        })
        .expect("known workload");
        assert!(r.correct, "{w}: {:?}", r.problems);
        for (n, _) in END_TO_END {
            let v = value(&r, n);
            assert!(v.is_finite() && v > 0.0, "{w}: {n} = {v}");
        }
    }
}

/// The same seed gives the same inputs; another seed, other inputs.
#[test]
fn inputs_follow_the_seed() {
    use es_perfbench::gen;
    assert_eq!(gen::fig1(5).corpus, gen::fig1(5).corpus);
    assert_ne!(gen::fig1(5).corpus, gen::fig1(6).corpus);
    assert_eq!(gen::interp(5).script, gen::interp(5).script);
    assert_ne!(gen::interp(5).script, gen::interp(6).script);
    assert_eq!(gen::boot(5).parent, gen::boot(5).parent);
    assert_ne!(gen::boot(5).parent, gen::boot(6).parent);
    let first = |seed| gen::Sessions::new(seed).next_session();
    assert_eq!(first(5), first(5));
    assert_ne!(first(5), first(6));
}
