//! The single-machine workloads: `fig1`, `interp` and `boot`.
//!
//! An untraced run times ops on a `Machine<SimOs>`. A traced run keeps
//! two machines built the same way — an untraced twin and one on
//! [`TracedOs`] — runs every op on both in alternating order, and
//! checks that they print the same bytes and leave the same kernel
//! fingerprint; the traced side feeds the ledger, and the two sides'
//! medians give the tracing overhead.

use crate::gen;
use crate::ledger::{measure, time_parse, Ledger, OpSample};
use crate::traced::{Kernel, Rec, TracedOs};
use crate::{median, ns_since, peak_rss_mib, Config, Report, Timed, Window};
use es_core::Machine;
use es_os::SimOs;
use std::time::Instant;

/// The separator es-core's environment encoding puts between list
/// elements.
const ENV_SEP: char = '\u{1}';

/// Which single-machine workload, with its generated inputs.
pub enum Shell {
    /// Figure 1: the spoofed pipeline over a seeded corpus.
    Fig1(gen::Fig1),
    /// A builtin-only script.
    Interp(gen::Interp),
    /// A child booting from a parent's exported environment.
    Boot(gen::Boot),
}

/// One machine's state for a workload.
pub struct Side<O: Kernel> {
    /// fig1/interp: the machine every op runs on. boot: the parent
    /// until the first op, then the last child booted.
    pub m: Machine<O>,
    /// boot: the kernel each child boots on, and the environment the
    /// parent exported for it.
    child: Option<(O, Vec<(String, String)>)>,
    /// What the ledger times parsing for, per op.
    parse_sources: Vec<String>,
}

/// What one op printed, and its error if it failed.
pub struct OpOut {
    /// `Err` when the shell raised an error.
    pub result: Result<(), String>,
    /// Standard output.
    pub stdout: String,
    /// Standard error.
    pub stderr: String,
}

impl Shell {
    /// The `fig1` workload for `seed`.
    pub fn fig1(seed: u64) -> Shell {
        Shell::Fig1(gen::fig1(seed))
    }

    /// The `interp` workload for `seed`.
    pub fn interp(seed: u64) -> Shell {
        Shell::Interp(gen::interp(seed))
    }

    /// The `boot` workload for `seed`.
    pub fn boot(seed: u64) -> Shell {
        Shell::Boot(gen::boot(seed))
    }

    /// Ops discarded before anything is timed or counted (about a
    /// quarter second each; boot's is a whole number of function cycles).
    fn warm_ops(&self) -> u64 {
        match self {
            Shell::Fig1(_) => 100,
            Shell::Interp(_) => 40,
            Shell::Boot(_) => 4 * gen::BOOT_FUNCTIONS as u64,
        }
    }

    /// Ops in the count window (boot: one call of every function).
    pub fn count_ops(&self) -> u64 {
        match self {
            Shell::Fig1(_) => 16,
            Shell::Interp(_) => 16,
            Shell::Boot(_) => gen::BOOT_FUNCTIONS as u64,
        }
    }

    /// Builds the state ops start from, on kernels made by `wrap`.
    pub fn setup<O: Kernel>(&self, wrap: &dyn Fn(SimOs) -> O) -> Result<Side<O>, String> {
        let boot = |os: SimOs| Machine::new(wrap(os)).map_err(|e| format!("boot failed: {e:?}"));
        match self {
            Shell::Fig1(f) => {
                let mut os = SimOs::new();
                os.vfs_mut()
                    .put_file("/home/user/paper9", f.corpus.as_bytes())
                    .map_err(|e| e.to_string())?;
                let mut m = boot(os)?;
                m.run_quiet(gen::FIG1_SPOOF)?;
                Ok(Side {
                    m,
                    child: None,
                    parse_sources: vec![gen::FIG1_PIPELINE.to_string()],
                })
            }
            Shell::Interp(i) => Ok(Side {
                m: boot(SimOs::new())?,
                child: None,
                parse_sources: vec![i.script.clone()],
            }),
            Shell::Boot(b) => {
                let mut parent = boot(SimOs::new())?;
                parent.run_quiet(&b.parent)?;
                let env = parent.export_environment();
                // A child boot parses initial.es, then every imported
                // value that looks like code (the test `import` uses).
                let mut parse_sources = vec![es_core::INITIAL_ES.to_string()];
                for (_, v) in &env {
                    for piece in v.split(ENV_SEP) {
                        if piece.starts_with("%closure(")
                            || piece.starts_with("@ ")
                            || (piece.starts_with('{') && piece.ends_with('}'))
                        {
                            parse_sources.push(piece.to_string());
                        }
                    }
                }
                Ok(Side {
                    m: parent,
                    child: Some((wrap(SimOs::new()), env)),
                    parse_sources,
                })
            }
        }
    }

    /// Runs op `i`.
    pub fn op<O: Kernel>(&self, side: &mut Side<O>, i: u64) -> OpOut {
        let result = match self {
            Shell::Fig1(_) => side.m.run_quiet(gen::FIG1_PIPELINE),
            Shell::Interp(w) => side.m.run_quiet(&w.script),
            Shell::Boot(b) => {
                let (kernel, env) = side.child.as_ref().expect("boot side has a child kernel");
                let mut os = kernel.clone();
                os.sim_mut().set_initial_env(env.clone());
                match Machine::new(os) {
                    Ok(m) => {
                        side.m = m;
                        side.m.run_quiet(&b.call(i))
                    }
                    Err(e) => Err(format!("child boot failed: {e:?}")),
                }
            }
        };
        let (stdout, stderr) = side.m.os_mut().take_console();
        OpOut {
            result,
            stdout,
            stderr,
        }
    }

    /// Checks op `i`'s output against the workload's oracle.
    pub fn check(&self, i: u64, out: &OpOut) -> Result<(), String> {
        if let Err(e) = &out.result {
            return Err(format!("op {i} raised: {e}"));
        }
        let (want, stderr_ok) = match self {
            // The spoof's `time` prints one line per pipeline stage.
            Shell::Fig1(f) => (f.expected.clone(), out.stderr.lines().count() == 6),
            Shell::Interp(w) => (w.expected.clone(), out.stderr.is_empty()),
            Shell::Boot(b) => (b.expected(i), out.stderr.is_empty()),
        };
        if out.stdout != want {
            return Err(format!("op {i}: stdout {:?}, want {want:?}", out.stdout));
        }
        if !stderr_ok {
            return Err(format!("op {i}: unexpected stderr {:?}", out.stderr));
        }
        Ok(())
    }

    /// The kernel a cold boot of this workload starts from, without
    /// and with the environment it imports.
    fn boot_kernels(&self, side: &Side<SimOs>) -> (SimOs, SimOs) {
        match &side.child {
            Some((kernel, env)) => {
                let mut with = kernel.clone();
                with.set_initial_env(env.clone());
                let mut without = kernel.clone();
                without.set_initial_env(Vec::new());
                (without, with)
            }
            None => {
                let mut without = SimOs::new();
                without.set_initial_env(Vec::new());
                (without, side.m.os().clone())
            }
        }
    }
}

/// Runs `w` as `cfg` asks.
pub fn run(w: &Shell, cfg: &Config) -> Report {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let result = if cfg.trace {
        traced(w, cfg, &mut report)
    } else {
        untraced(w, cfg, &mut report)
    };
    if let Err(e) = result {
        report.problem(e);
    }
    report
}

fn untraced(w: &Shell, cfg: &Config, report: &mut Report) -> Result<(), String> {
    let mut side = w.setup(&|os| os)?;
    // Peak RSS is read after set-up and a fixed number of ops, so it
    // measures the same work on every run (the rest of the warm-up is
    // timed, and a faster build would run more of it).
    let warm = Instant::now();
    let mut i = 0;
    while i < w.warm_ops() {
        w.check(i, &w.op(&mut side, i))?;
        i += 1;
    }
    let rss_mib = peak_rss_mib();
    while warm.elapsed() < cfg.warm_up() {
        w.check(i, &w.op(&mut side, i))?;
        i += 1;
    }

    let mut window = Window::new(cfg.seconds);
    let mut lat_ns = Vec::new();
    let mut done_ns = Vec::new();
    while (lat_ns.len() as u64) < w.count_ops() || !window.over() {
        window.between_ops(|| w.setup(&|os| os))?;
        let t = Instant::now();
        let out = w.op(&mut side, i);
        lat_ns.push(ns_since(t));
        done_ns.push(window.now_ns());
        report.attempted += 1;
        if let Err(e) = w.check(i, &out) {
            report.failed += 1;
            report.problem(e);
        }
        i += 1;
    }
    let end_ns = window.finish(|| w.setup(&|os| os))?;
    // Each op is a one-command session.
    Timed {
        window,
        end_ns,
        lat_ns,
        session_done_ns: done_ns.clone(),
        done_ns,
        rss_mib,
    }
    .put(report);
    Ok(())
}

fn traced(w: &Shell, cfg: &Config, report: &mut Report) -> Result<(), String> {
    let rec = Rec::default();
    let mut twin = w.setup(&|os| os)?;
    let mut tr = {
        let rec = rec.clone();
        w.setup(&move |os| TracedOs::new(os, rec.clone()))?
    };

    // A fixed number of warm-up ops (the host was warmed by a discarded
    // pass), so the count window starts from the same state every run.
    let mut i = 0;
    while i < w.warm_ops() {
        let (untraced, traced) = (w.op(&mut twin, i), w.op(&mut tr, i));
        w.check(i, &untraced)?;
        same_effects(&twin, &untraced, &tr, &traced)?;
        i += 1;
    }
    // From here on GC stats cover the timed window alone (pause_max
    // is a lifetime maximum otherwise).
    twin.m.heap.reset_stats();
    tr.m.heap.reset_stats();

    let mut ledger = Ledger::new(w.count_ops());
    let mut untraced_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let start = Instant::now();
    while ledger.ops() < w.count_ops() || start.elapsed().as_secs_f64() < cfg.seconds {
        let n = ledger.ops();
        // Alternate which side goes first, so neither is always the
        // one measured cold.
        let twin_first = n.is_multiple_of(2);
        let mut untraced = None;
        if twin_first {
            untraced = Some(untraced_op(w, i, &mut twin));
        }
        let (sample, out) = traced_op(w, i, n as u32, &mut tr, &rec);
        if !twin_first {
            untraced = Some(untraced_op(w, i, &mut twin));
        }
        let (twin_ns, twin_out) = untraced.expect("the twin ran");
        untraced_ns.push(twin_ns);
        traced_ns.push(sample.op_ns);
        ledger.add(n, sample);
        report.attempted += 1;
        let verdict = w
            .check(i, &out)
            .and_then(|()| same_effects(&twin, &twin_out, &tr, &out));
        if let Err(e) = verdict {
            report.failed += 1;
            report.problem(e);
        }
        i += 1;
    }

    ledger.finish(&rec.borrow(), &mut report.metrics);
    let m = &mut report.metrics;
    m.put("es-core.hook_overhead_ns", hook_overhead_ns(&twin.m), "ns");
    let (without, with) = w.boot_kernels(&twin);
    let (boot_us, import_us) = boot_import_us(&without, &with);
    m.put("es-core.boot_us", boot_us, "us");
    m.put("es-core.import_us", import_us, "us");
    let (recycle_us, fingerprint_us) = recycle_fingerprint_us(&twin.m);
    m.put("es-core.recycle_us", recycle_us, "us");
    m.put("es-os.fingerprint_us", fingerprint_us, "us");
    crate::put_trace_overhead(report, &untraced_ns, &traced_ns);
    if let Shell::Interp(_) = w {
        let m = &report.metrics;
        if m.get("es-os.execs") != Some(0.0) || m.get("es-core.export_us") != Some(0.0) {
            report.problem("interp ran an external command".to_string());
        }
    }
    crate::finish_traced(report, &rec.borrow());
    Ok(())
}

/// One untraced op, timed.
fn untraced_op(w: &Shell, i: u64, side: &mut Side<SimOs>) -> (u64, OpOut) {
    let t = Instant::now();
    let out = w.op(side, i);
    (ns_since(t), out)
}

/// One traced op, with everything the ledger measures around it.
fn traced_op(
    w: &Shell,
    i: u64,
    n: u32,
    side: &mut Side<TracedOs<SimOs>>,
    rec: &Rec,
) -> (OpSample, OpOut) {
    let parse = time_parse(&side.parse_sources);
    // A boot op's machine is born inside the op: all of its counters
    // belong to the op.
    let fresh = matches!(w, Shell::Boot(_));
    measure(rec, n, parse, fresh, side, |s| &s.m, |s| w.op(s, i))
}

/// Tracing must not change what the shell does: the same bytes out
/// and the same kernel state after.
fn same_effects(
    twin: &Side<SimOs>,
    untraced: &OpOut,
    tr: &Side<TracedOs<SimOs>>,
    traced: &OpOut,
) -> Result<(), String> {
    if untraced.stdout != traced.stdout
        || untraced.stderr != traced.stderr
        || untraced.result != traced.result
    {
        return Err("traced and untraced runs printed different output".to_string());
    }
    if twin.m.os().fingerprint() != tr.m.os().sim().fingerprint() {
        return Err("traced and untraced kernels differ after the op".to_string());
    }
    Ok(())
}

/// Per-dispatch cost of the `%seq` hook on this machine's state:
/// `{true; true; true}` (through `fn-%seq`) minus
/// `$&seq {true} {true} {true}` (the primitive directly), timed
/// interleaved on a clone.
pub fn hook_overhead_ns<O: Kernel>(m: &Machine<O>) -> f64 {
    const ITERS: usize = 100;
    let mut c = m.clone();
    let items: Vec<String> = (1..=ITERS).map(|k| k.to_string()).collect();
    let defs = format!(
        "__perfbench-n = {}
fn __perfbench-hook {{ for (i = $__perfbench-n) {{ true; true; true }} }}
fn __perfbench-prim {{ for (i = $__perfbench-n) {{ $&seq {{true}} {{true}} {{true}} }} }}",
        items.join(" ")
    );
    if c.run_quiet(&defs).is_err() {
        return f64::NAN;
    }
    let (mut hook, mut prim) = (Vec::new(), Vec::new());
    for k in 0..31 {
        for first in [k % 2 == 0, k % 2 != 0] {
            let t = Instant::now();
            let _ = c.run_quiet(if first {
                "__perfbench-hook"
            } else {
                "__perfbench-prim"
            });
            let ns = ns_since(t);
            if first { &mut hook } else { &mut prim }.push(ns);
        }
    }
    c.os_mut().take_console();
    (median(&hook) - median(&prim)) / ITERS as f64
}

/// Median cold boot without an environment, and the extra a boot pays
/// to import `with`'s environment, in µs (interleaved boots).
pub fn boot_import_us(without: &SimOs, with: &SimOs) -> (f64, f64) {
    let (mut bare, mut full) = (Vec::new(), Vec::new());
    for k in 0..15 {
        for plain in [k % 2 == 0, k % 2 != 0] {
            let os = if plain { without.clone() } else { with.clone() };
            let t = Instant::now();
            let booted = Machine::new(os);
            let ns = ns_since(t);
            std::hint::black_box(booted.is_ok());
            if plain { &mut bare } else { &mut full }.push(ns);
        }
    }
    let b = median(&bare);
    (b / 1000.0, (median(&full) - b) / 1000.0)
}

/// Median `Machine::recycle()` of this (dirtied) machine and median
/// `SimOs::fingerprint()` of its kernel, in µs.
pub fn recycle_fingerprint_us<O: Kernel>(m: &Machine<O>) -> (f64, f64) {
    let (mut recycle, mut fingerprint) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        let mut c = m.clone();
        let t = Instant::now();
        std::hint::black_box(c.recycle());
        recycle.push(ns_since(t));
        let t = Instant::now();
        std::hint::black_box(m.os().sim().fingerprint());
        fingerprint.push(ns_since(t));
    }
    (median(&recycle) / 1000.0, median(&fingerprint) / 1000.0)
}
