//! The per-layer ledger: what each layer of one op cost, measured
//! from outside by timing calls into each crate's public functions and
//! by the syscall spans [`crate::traced::TracedOs`] records.
//!
//! Times are means per op over the whole timed window, so they add up
//! (medians do not). Counts are means over the first `count_ops` ops
//! of the window, a fixed number that follows a fixed warm-up, so a
//! count repeats exactly from run to run with the same seed.

use crate::traced::{Call, Kernel, Rec, Recorder, TracedOs, PROGRAMS};
use crate::Metrics;
use es_core::Machine;
use es_os::SimOs;
use std::time::Instant;

/// Machine counters read before and after an op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Eval steps (`governor().steps()`).
    pub steps: u64,
    /// The hook-generation counter.
    pub hook_gen: u64,
    /// Heap collections.
    pub collections: u64,
    /// Heap objects allocated.
    pub allocated: u64,
    /// Heap objects copied by collections.
    pub copied: u64,
    /// Time spent in collections.
    pub pause_ns: u64,
    /// Longest single collection.
    pub pause_max_ns: u64,
}

impl Counters {
    /// The machine's counters now.
    pub fn of<O: Kernel>(m: &Machine<O>) -> Counters {
        let gc = m.heap.stats();
        Counters {
            steps: m.governor().steps(),
            hook_gen: m.hook_gen(),
            collections: gc.collections,
            allocated: gc.allocated,
            copied: gc.copied,
            pause_ns: gc.pause_total.as_nanos() as u64,
            pause_max_ns: gc.pause_max.as_nanos() as u64,
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            steps: self.steps - before.steps,
            hook_gen: self.hook_gen - before.hook_gen,
            collections: self.collections - before.collections,
            allocated: self.allocated - before.allocated,
            copied: self.copied - before.copied,
            pause_ns: self.pause_ns - before.pause_ns,
            pause_max_ns: self.pause_max_ns,
        }
    }
}

/// Timings of a layer taken beside the op: the fastest of this many, so
/// an interrupt during one cannot attribute more to the layer than the
/// op itself spent there.
const TIMINGS: usize = 3;

/// The fastest of [`TIMINGS`] runs of `f`, in ns.
fn fastest(mut f: impl FnMut()) -> u64 {
    (0..TIMINGS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

/// Parses and lowers each source, as the shell does before it
/// evaluates; returns the time taken and the bytes parsed.
pub fn time_parse<S: AsRef<str>>(sources: &[S]) -> (u64, u64) {
    let ns = fastest(|| {
        for s in sources {
            if let Ok(node) = es_syntax::parse_program(s.as_ref()) {
                std::hint::black_box(es_syntax::lower(node));
            }
        }
    });
    let bytes = sources.iter().map(|s| s.as_ref().len() as u64).sum();
    (ns, bytes)
}

/// Times one `export_environment()` — the same encoding every external
/// command's `run_external` builds.
fn time_export<O: Kernel>(m: &Machine<O>) -> u64 {
    fastest(|| {
        std::hint::black_box(m.export_environment());
    })
}

/// What the harness measured around one traced op.
pub struct OpSample {
    /// Wall time of the op on the traced machine.
    pub op_ns: u64,
    /// Time to parse the op's sources (timed separately).
    pub parse_ns: u64,
    /// Bytes of source the op parses.
    pub src_bytes: u64,
    /// One environment export times the programs the op ran.
    pub export_ns: u64,
    /// Counter deltas over the op.
    pub delta: Counters,
}

/// Runs `op` on `side` as traced op `n` and measures around it what
/// the ledger needs: the op's span, the machine's counter deltas (all
/// of its counters when the op boots a `fresh` machine), and one
/// environment export per program the op ran. `parse` is the op's
/// [`time_parse`] result, taken beforehand.
pub fn measure<S, T>(
    rec: &Rec,
    n: u32,
    parse: (u64, u64),
    fresh: bool,
    side: &mut S,
    machine: impl Fn(&S) -> &Machine<TracedOs<SimOs>>,
    op: impl FnOnce(&mut S) -> T,
) -> (OpSample, T) {
    let before = if fresh {
        Counters::default()
    } else {
        Counters::of(machine(side))
    };
    rec.borrow_mut().begin_op(n);
    let start = rec.borrow().now_ns();
    let out = op(side);
    let end = rec.borrow().now_ns();
    let execs = rec.borrow_mut().end_op(n, start, end);
    let m = machine(side);
    let delta = Counters::of(m).since(before);
    let export_ns = if execs > 0 { time_export(m) * execs } else { 0 };
    let sample = OpSample {
        op_ns: end - start,
        parse_ns: parse.0,
        src_bytes: parse.1,
        export_ns,
        delta,
    };
    (sample, out)
}

/// Accumulates op samples and, at the end, reads the span list.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Ops in the count window.
    pub count_ops: u64,
    ops: u64,
    op_ns: u64,
    parse_ns: u64,
    export_ns: u64,
    pause_ns: u64,
    pause_max_ns: u64,
    steps: u64,
    c_steps: u64,
    c_hook: u64,
    c_collections: u64,
    c_allocated: u64,
    c_copied: u64,
    c_src_bytes: u64,
}

impl Ledger {
    /// A ledger whose count window is the first `count_ops` ops.
    pub fn new(count_ops: u64) -> Ledger {
        Ledger {
            count_ops,
            ..Ledger::default()
        }
    }

    /// Adds op number `n` of the timed window.
    pub fn add(&mut self, n: u64, s: OpSample) {
        self.ops += 1;
        self.op_ns += s.op_ns;
        self.parse_ns += s.parse_ns;
        self.export_ns += s.export_ns;
        self.pause_ns += s.delta.pause_ns;
        self.pause_max_ns = self.pause_max_ns.max(s.delta.pause_max_ns);
        self.steps += s.delta.steps;
        if n < self.count_ops {
            self.c_steps += s.delta.steps;
            self.c_hook += s.delta.hook_gen;
            self.c_collections += s.delta.collections;
            self.c_allocated += s.delta.allocated;
            self.c_copied += s.delta.copied;
            self.c_src_bytes += s.src_bytes;
        }
    }

    /// Ops added so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Writes the layer metrics, with a warning when the ledger does not
    /// close (attributed layers exceed the op).
    pub fn finish(&self, rec: &Recorder, out: &mut Metrics) {
        let ops = self.ops.max(1) as f64;
        let c = self.count_ops.max(1) as f64;
        let us = |ns: u64| ns as f64 / ops / 1000.0;

        let mut run_ns = [0u64; PROGRAMS.len()];
        let (mut sys_ns, mut c_execs, mut c_sys, mut c_io, mut c_env) = (0, 0, 0, 0, 0);
        for s in &rec.spans {
            let counted = u64::from(s.op) < self.count_ops;
            match s.call {
                Call::Op => {}
                Call::Run => {
                    run_ns[s.prog as usize] += s.dur_ns();
                    if counted {
                        c_execs += 1;
                        c_env += s.bytes;
                    }
                }
                _ => {
                    sys_ns += s.dur_ns();
                    if counted {
                        c_sys += 1;
                        c_io += s.bytes;
                    }
                }
            }
        }
        let run_total: u64 = run_ns.iter().sum();

        let op_us = us(self.op_ns);
        let eval_self = op_us
            - us(self.parse_ns)
            - us(self.export_ns)
            - us(run_total)
            - us(sys_ns)
            - us(self.pause_ns);
        let steps_per_op = self.steps as f64 / ops;

        out.put("es-core.op_us", op_us, "us");
        out.put("es-syntax.parse_us", us(self.parse_ns), "us");
        out.put("es-syntax.src_bytes", self.c_src_bytes as f64 / c, "bytes");
        out.put("es-core.export_us", us(self.export_ns), "us");
        out.put(
            "es-core.export_bytes",
            ratio(c_env as f64, c_execs as f64),
            "bytes",
        );
        out.put("es-core.steps", self.c_steps as f64 / c, "count");
        out.put("es-core.eval_self_us", eval_self, "us");
        out.put(
            "es-core.ns_per_step",
            ratio(eval_self * 1000.0, steps_per_op),
            "ns/step",
        );
        out.put("es-core.hook_gen_delta", self.c_hook as f64 / c, "count");
        out.put("es-gc.collections", self.c_collections as f64 / c, "count");
        out.put("es-gc.allocated", self.c_allocated as f64 / c, "count");
        out.put("es-gc.copied", self.c_copied as f64 / c, "count");
        out.put(
            "es-gc.survival",
            ratio(self.c_copied as f64, self.c_allocated as f64),
            "ratio",
        );
        out.put("es-gc.pause_us", us(self.pause_ns), "us");
        out.put(
            "es-gc.pause_max_us",
            self.pause_max_ns as f64 / 1000.0,
            "us",
        );
        out.put("es-os.execs", c_execs as f64 / c, "count");
        out.put("es-os.run_us", us(run_total), "us");
        for (p, ns) in PROGRAMS.iter().zip(run_ns) {
            out.put(&format!("es-os.run_us.{p}"), us(ns), "us");
        }
        out.put("es-os.syscalls", c_sys as f64 / c, "count");
        out.put("es-os.syscall_us", us(sys_ns), "us");
        out.put("es-os.bytes_io", c_io as f64 / c, "bytes");

        out.note(format!(
            "ledger over {} ops (counts over the first {}): op {op_us:.2} us = parse {:.2} + export {:.2} + programs {:.2} + syscalls {:.2} + gc {:.2} + eval self {eval_self:.2}",
            self.ops,
            self.count_ops,
            us(self.parse_ns),
            us(self.export_ns),
            us(run_total),
            us(sys_ns),
            us(self.pause_ns),
        ));
        out.note(format!(
            "es-core.ns_per_step = eval self {eval_self:.2} us / {steps_per_op:.1} steps per op; es-gc.survival = copied {} / allocated {} over {} ops; es-core.export_bytes = {c_env} env bytes / {c_execs} execs",
            self.c_copied, self.c_allocated, self.count_ops
        ));
        // A timing check, so it warns rather than failing the run; the
        // benchmark's own tests assert that the ledger closes.
        if eval_self < 0.0 {
            out.note(format!(
                "warning: ledger does not close: attributed layers exceed the op by {:.2} us",
                -eval_self
            ));
        }
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio whose base is absent).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
