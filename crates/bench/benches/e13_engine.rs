//! E13 — evaluator regression bench (EXPERIMENTS.md §E13).
//!
//! Measures ns/op of the tree-walking evaluator on three workloads:
//!
//! * the Figure 1 six-stage pipeline (hook dispatch dominated by
//!   `%pipe`, plus real simulated-coreutils work),
//! * a hook-heavy loop (a pipe and a redirection per iteration — pure
//!   dispatch pressure), and
//! * a closure-call loop (user function calls and parameter binding).
//!
//! It also isolates the *unspoofed hook overhead*: the gap between
//! `{true; true; true}` (a `%seq` hook dispatch over trivial thunks)
//! and the equivalent direct `$&seq` primitive call. `%seq` is used
//! rather than `%pipe` because a pipeline's process machinery (~90µs)
//! would drown the ~100ns dispatch difference in scheduling noise.
//!
//! The keys keep their `_tree_` infix so BENCH_eval.json stays
//! comparable with its earlier records.
//! The criterion shim reports only to stderr, so this bench is a plain
//! `harness = false` main that hand-writes `BENCH_eval.json` at the
//! repo root.

use es_bench::{machine, machine_with_paper, run, FIG1_PIPELINE};
use es_core::Machine;
use es_os::SimOs;
use std::path::PathBuf;
use std::time::Instant;

/// Times `iters` runs of `src` after `warmup` unmeasured runs,
/// repeated over several samples; returns the minimum ns/op seen (the
/// run least disturbed by the host scheduler).
fn time_ns(m: &mut Machine<SimOs>, src: &str, warmup: u32, iters: u32) -> u64 {
    const SAMPLES: u32 = 5;
    for _ in 0..warmup {
        run(m, src);
    }
    let mut best = u64::MAX;
    for _ in 0..SAMPLES {
        let started = Instant::now();
        for _ in 0..iters {
            run(m, src);
        }
        best = best.min(started.elapsed().as_nanos() as u64 / u64::from(iters));
    }
    best
}

const HOOK_LOOP: &str = "for (i = `{seq 20}) { echo $i > /tmp/e13; cat /tmp/e13 | wc -l }";
const CLOSURE_LOOP: &str = "for (i = `{seq 50}) { add1 $i }";
const SEQ_HOOK: &str = "{true; true; true}";
const SEQ_DIRECT: &str = "$&seq {true} {true} {true}";

fn main() {
    let mut fields: Vec<(&str, u64)> = Vec::new();

    // Figure 1 pipeline over a ~2000-word corpus.
    let mut m = machine_with_paper(2000);
    fields.push((
        "fig1_pipeline_tree_ns_op",
        time_ns(&mut m, FIG1_PIPELINE, 3, 20),
    ));

    // Hook-heavy loop: 20 iterations, each a redirection (%create)
    // plus a two-stage pipeline (%pipe), under %seq blocks.
    let mut m = machine();
    fields.push(("hook_loop_tree_ns_op", time_ns(&mut m, HOOK_LOOP, 3, 30)));

    // Closure-call loop: 50 calls of a user function per run.
    let mut m = machine();
    run(&mut m, "fn add1 x { result 1 $x }");
    fields.push((
        "closure_loop_tree_ns_op",
        time_ns(&mut m, CLOSURE_LOOP, 5, 100),
    ));

    // Unspoofed hook overhead: %seq hook dispatch minus the direct
    // primitive call for the same three thunks.
    let mut m = machine();
    let hook_ns = time_ns(&mut m, SEQ_HOOK, 100, 5000);
    let direct_ns = time_ns(&mut m, SEQ_DIRECT, 100, 5000);
    fields.push(("seq_hook_tree_ns_op", hook_ns));
    fields.push(("seq_direct_tree_ns_op", direct_ns));
    fields.push((
        "hook_overhead_tree_ns_op",
        hook_ns.saturating_sub(direct_ns),
    ));

    let mut json = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 == fields.len() { "" } else { "," };
        json.push_str(&format!("  \"{key}\": {value}{comma}\n"));
        eprintln!("{key:40} {value:>12} ns/op");
    }
    json.push_str("}\n");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_eval.json");
    std::fs::write(&path, json).expect("BENCH_eval.json writes");
    eprintln!("wrote {}", path.display());
}
