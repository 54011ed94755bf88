//! The repository benchmark.
//!
//! Four seeded workloads run in one process on the simulated kernel
//! with `Options::default()`:
//!
//! | workload | one op | layers it stresses |
//! |----------|--------|--------------------|
//! | `fig1`   | the Figure 1 pipeline under the `%pipe` timing spoof | exec, env export, program bodies, pipe/fd syscalls |
//! | `interp` | a builtin-only script (closures, settor, catch, cons lists) | evaluation, pristine hook dispatch, GC |
//! | `serve`  | one served command, Line to Done, 2 sessions in flight | scheduling, framing, recycle + audit |
//! | `boot`   | a child shell booting from an inherited environment | parsing, environment import |
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics, its
//! timings scaled by a host probe run beside the ops (see `Timed::put`);
//! a separate traced run (`--trace 1`) reports the per-layer ledger,
//! unscaled and measured from outside the program (see `ledger.rs` and
//! `traced.rs`).

pub mod gen;
mod ledger;
mod serve;
mod shell;
mod traced;

use std::time::{Duration, Instant};

/// The workloads, by the names `BENCHMARK.json` uses.
pub const WORKLOADS: [&str; 4] = ["fig1", "interp", "serve", "boot"];

/// A seed for checking a claim, kept out of tuning: a change is
/// developed against other seeds and must also hold on this one.
pub const HELD_OUT_SEED: u64 = 20_260_101;

/// Set-ups per run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 31;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

impl Config {
    /// The discarded warm-up: at least this long (on top of a fixed
    /// number of ops), because the first-measured code runs slow.
    pub(crate) fn warm_up(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.1).min(1.0))
    }
}

/// Named metrics in the order they were put, plus free-text notes.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `(name, value, unit)`.
    pub values: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Metrics {
    /// Sets metric `name`.
    pub(crate) fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.retain(|(n, _, _)| n != name);
        self.values.push((name.to_string(), value, unit));
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Adds a note line.
    pub(crate) fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output matched its oracle and every check held.
    pub correct: bool,
    /// Ops attempted in the timed window.
    pub attempted: u64,
    /// Ops that failed (wrong output, error, fault, shed, audit).
    pub failed: u64,
    /// The metrics and notes.
    pub metrics: Metrics,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
    /// The traced run's spans, as a tab-separated table.
    pub spans_tsv: Option<Vec<u8>>,
}

impl Report {
    /// Records a failed check.
    pub(crate) fn problem(&mut self, p: String) {
        if self.problems.len() < 20 {
            self.problems.push(p);
        }
        self.correct = false;
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .values
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them: an
/// untraced run reports exactly these.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("sessions_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
];

/// The per-layer metrics, as `BENCHMARK.json` lists them: a traced run
/// reports exactly these, with 0 for a layer the workload never enters.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("es-core.op_us", "us"),
    ("es-syntax.parse_us", "us"),
    ("es-syntax.src_bytes", "bytes"),
    ("es-core.export_us", "us"),
    ("es-core.export_bytes", "bytes"),
    ("es-core.import_us", "us"),
    ("es-core.boot_us", "us"),
    ("es-core.steps", "count"),
    ("es-core.eval_self_us", "us"),
    ("es-core.ns_per_step", "ns/step"),
    ("es-core.hook_gen_delta", "count"),
    ("es-core.hook_overhead_ns", "ns"),
    ("es-core.recycle_us", "us"),
    ("es-gc.collections", "count"),
    ("es-gc.allocated", "count"),
    ("es-gc.copied", "count"),
    ("es-gc.survival", "ratio"),
    ("es-gc.pause_us", "us"),
    ("es-gc.pause_max_us", "us"),
    ("es-os.execs", "count"),
    ("es-os.run_us", "us"),
    ("es-os.run_us.cat", "us"),
    ("es-os.run_us.tr", "us"),
    ("es-os.run_us.sort", "us"),
    ("es-os.run_us.uniq", "us"),
    ("es-os.run_us.sed", "us"),
    ("es-os.run_us.wc", "us"),
    ("es-os.run_us.other", "us"),
    ("es-os.syscalls", "count"),
    ("es-os.syscall_us", "us"),
    ("es-os.bytes_io", "bytes"),
    ("es-os.fingerprint_us", "us"),
    ("es-serve.open_us", "us"),
    ("es-serve.close_us", "us"),
    ("es-serve.pump_us", "us"),
    ("es-serve.pump_calls", "count"),
    ("es-serve.direct_us", "us"),
    ("es-serve.overhead_us", "us"),
    ("es-serve.log_bytes", "bytes"),
    ("es-serve.shed", "count"),
    ("es-serve.scrubs", "count"),
    ("es-serve.oracle_violations", "count"),
    ("trace.untraced_op_us", "us"),
    ("trace.traced_op_us", "us"),
    ("trace.overhead_us", "us"),
    ("fail_ratio", "ratio"),
];

/// Runs one workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    if cfg.trace {
        // Warm the host on a discarded untraced pass; the traced run then
        // warms up for a fixed number of ops only, which keeps its counts
        // exact from run to run.
        let warm = Config {
            trace: false,
            seconds: cfg.warm_up().as_secs_f64(),
            ..cfg.clone()
        };
        run_once(&warm)?;
    }
    let mut report = run_once(cfg)?;
    // A run that failed part-way still names every metric it owes.
    order_metrics(
        &mut report,
        if cfg.trace { &PER_LAYER } else { &END_TO_END },
    );
    Ok(report)
}

fn run_once(cfg: &Config) -> Result<Report, String> {
    match cfg.workload.as_str() {
        "fig1" => Ok(shell::run(&shell::Shell::fig1(cfg.seed), cfg)),
        "interp" => Ok(shell::run(&shell::Shell::interp(cfg.seed), cfg)),
        "boot" => Ok(shell::run(&shell::Shell::boot(cfg.seed), cfg)),
        "serve" => Ok(serve::run(cfg)),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The `q` quantile (0..=1) of sorted samples, interpolating linearly
/// between neighbours.
pub(crate) fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Median of samples (any order).
pub(crate) fn median(samples: &[u64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    quantile(&s, 0.5)
}

/// The timed window of an untraced run. Between ops it runs the
/// [`SETUPS`] timed set-ups, spread evenly over the window, and the host
/// probe every [`PROBE_EVERY_NS`]; both are kept out of the ops'
/// latencies and out of the window's length.
#[derive(Debug)]
pub(crate) struct Window {
    start: Instant,
    /// Time spent on set-ups (and dropping what they built) and probes.
    paused: Duration,
    /// Length of the window, set-ups and probes excluded.
    seconds: f64,
    /// Each set-up: when it ran (time into the window) and its duration.
    setups: Vec<(u64, u64)>,
    /// Each probe, likewise.
    probes: Vec<(u64, u64)>,
}

impl Window {
    /// A window of `seconds` starting now.
    pub fn new(seconds: f64) -> Window {
        Window {
            start: Instant::now(),
            paused: Duration::ZERO,
            seconds,
            setups: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Time into the window, set-ups and probes excluded.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().saturating_sub(self.paused).as_nanos() as u64
    }

    /// Whether the window has run its length.
    pub fn over(&self) -> bool {
        self.now_ns() as f64 >= self.seconds * 1e9
    }

    /// Runs the set-up and the probe that are due; returns the time
    /// they took, built state dropped included.
    pub fn between_ops<T>(
        &mut self,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<Duration, String> {
        let at = self.now_ns();
        let t = Instant::now();
        let k = self.setups.len();
        if k < SETUPS && at as f64 >= self.seconds * 1e9 * k as f64 / SETUPS as f64 {
            self.set_up(at, setup)?;
        }
        if at >= self.probes.len() as u64 * PROBE_EVERY_NS {
            self.probes.push((at, probe(self.probes.len() as u64)));
        }
        let spent = t.elapsed();
        self.paused += spent;
        Ok(spent)
    }

    fn set_up<T>(
        &mut self,
        at: u64,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<(), String> {
        let t = Instant::now();
        let built = setup()?;
        self.setups.push((at, ns_since(t)));
        drop(built);
        Ok(())
    }

    /// Ends the window, running the set-ups a short one left undone,
    /// and returns its length in ns.
    pub fn finish<T>(
        &mut self,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<u64, String> {
        let end = self.now_ns();
        while self.setups.len() < SETUPS {
            self.set_up(end, &mut setup)?;
        }
        Ok(end)
    }
}

/// How often, in window time, an untraced run probes the host.
const PROBE_EVERY_NS: u64 = 25_000_000;

/// The host probe: a fixed piece of work that does not touch the
/// program — building and searching a map of 1500 short strings — and
/// its duration in ns. Other tenants of a shared host slow stretches of
/// a run, from a fraction of a second to minutes, by 1.3 to 2x, and what
/// they slow is work like this: allocation and small scattered data
/// structures, as in a shell. This probe's time tracks the ops' through
/// those stretches (their logs correlate at 0.92 to 0.97 over half-second
/// slices, on every workload), while an arithmetic loop (0.5 to 0.7) or a
/// pointer chase over a 16 MiB array (-0.03 to 0.7) tracks them far
/// less. It runs between ops, in the program's process and allocator.
fn probe(salt: u64) -> u64 {
    let t = Instant::now();
    let mut map: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
    let mut x = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 4000
    };
    for i in 0..1500 {
        map.entry(format!("k{}", step())).or_default().push(i);
    }
    let mut found = 0;
    for _ in 0..1500 {
        found += map.get(&format!("k{}", step())).map_or(0, Vec::len);
    }
    std::hint::black_box((found, map));
    ns_since(t)
}

/// Nanoseconds since `t`.
pub(crate) fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What an untraced run measured, turned into end-to-end metrics.
pub(crate) struct Timed {
    /// The window, with its set-ups and probes.
    pub window: Window,
    /// Length of the window in ns, from [`Window::finish`].
    pub end_ns: u64,
    /// Per-op latencies.
    pub lat_ns: Vec<u64>,
    /// When each op completed, as time into the window, in the order
    /// of `lat_ns`.
    pub done_ns: Vec<u64>,
    /// When each session completed, likewise.
    pub session_done_ns: Vec<u64>,
    /// `VmHWM` after set-up and a fixed number of warm-up ops.
    pub rss_mib: f64,
}

/// The probe time the end-to-end timings are scaled to.
const PROBE_REF_NS: f64 = 1e6;

/// Length of a slice of the window that shares one speed factor.
const SLICE_NS: u64 = 125_000_000;

impl Timed {
    /// Per slice of the window, the factor that scales its timings to
    /// a host on which the probe takes [`PROBE_REF_NS`]: the reference
    /// over the median of the slice's probes (of all probes, for a slice
    /// without one).
    fn factors(&self) -> Vec<f64> {
        let probes = &self.window.probes;
        let all: Vec<u64> = probes.iter().map(|p| p.1).collect();
        let overall = median(&all);
        (0..=self.end_ns / SLICE_NS)
            .map(|k| {
                let here: Vec<u64> = probes
                    .iter()
                    .filter(|p| p.0 / SLICE_NS == k)
                    .map(|p| p.1)
                    .collect();
                PROBE_REF_NS
                    / if here.is_empty() {
                        overall
                    } else {
                        median(&here)
                    }
            })
            .collect()
    }

    /// Puts the end-to-end metrics. Every timing is scaled by its
    /// slice's factor (see [`probe`]): a change to the program moves
    /// the ops and not the probe, while a host that slows both is
    /// divided out. The notes give the unscaled figures too.
    pub fn put(&self, report: &mut Report) {
        let f = self.factors();
        let at = |t: u64| f[(t / SLICE_NS).min(f.len() as u64 - 1) as usize];
        let mut lat: Vec<u64> = self
            .lat_ns
            .iter()
            .zip(&self.done_ns)
            .map(|(&l, &t)| (l as f64 * at(t)) as u64)
            .collect();
        lat.sort_unstable();
        // The window's length in reference time.
        let secs: f64 = f
            .iter()
            .enumerate()
            .map(|(k, fk)| {
                let from = k as u64 * SLICE_NS;
                (self.end_ns.min(from + SLICE_NS) - from) as f64 * fk / 1e9
            })
            .sum();
        let setups: Vec<u64> = self
            .window
            .setups
            .iter()
            .map(|&(t, ns)| (ns as f64 * at(t)) as u64)
            .collect();
        let sessions = self.session_done_ns.len();
        let m = &mut report.metrics;
        m.put("ops_per_s", lat.len() as f64 / secs, "1/s");
        m.put("op_p50_us", quantile(&lat, 0.50) / 1000.0, "us");
        m.put("op_p99_us", quantile(&lat, 0.99) / 1000.0, "us");
        m.put("sessions_per_s", sessions as f64 / secs, "1/s");
        m.put("setup_s", median(&setups) / 1e9, "s");
        m.put("peak_rss_mib", self.rss_mib, "MiB");
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        m.put("ok_ratio", ok, "ratio");

        let mut raw = self.lat_ns.clone();
        raw.sort_unstable();
        let raw_setups: Vec<u64> = self.window.setups.iter().map(|s| s.1).collect();
        let mut probes: Vec<u64> = self.window.probes.iter().map(|p| p.1).collect();
        probes.sort_unstable();
        let whole = self.end_ns as f64 / 1e9;
        m.note(format!(
            "{} ops and {sessions} sessions in {whole:.3} s, {secs:.3} s at the reference speed; p50 over all {} samples, p99 with {} beyond it; setup median of {} set-ups",
            raw.len(),
            raw.len(),
            raw.len() / 100,
            setups.len()
        ));
        m.note(format!(
            "host probe: {} probes, p10/p50/p90 {:.0}/{:.0}/{:.0} us against the {:.0} us reference; unscaled: {:.1} ops/s, p50 {:.2} us, p99 {:.2} us, setup {:.6} s",
            probes.len(),
            quantile(&probes, 0.1) / 1000.0,
            quantile(&probes, 0.5) / 1000.0,
            quantile(&probes, 0.9) / 1000.0,
            PROBE_REF_NS / 1000.0,
            raw.len() as f64 / whole,
            quantile(&raw, 0.50) / 1000.0,
            quantile(&raw, 0.99) / 1000.0,
            median(&raw_setups) / 1e9
        ));
    }
}

/// Puts the tracing overhead: traced minus untraced median op time,
/// with both bases.
pub(crate) fn put_trace_overhead(report: &mut Report, untraced_ns: &[u64], traced_ns: &[u64]) {
    let (u, t) = (median(untraced_ns) / 1000.0, median(traced_ns) / 1000.0);
    let m = &mut report.metrics;
    m.put("trace.untraced_op_us", u, "us");
    m.put("trace.traced_op_us", t, "us");
    m.put("trace.overhead_us", t - u, "us");
    m.note(format!(
        "trace.overhead_us = traced median {t:.2} us - untraced median {u:.2} us over {} interleaved op pairs",
        traced_ns.len()
    ));
}

/// Completes a traced report with its failure ratio and its spans.
pub(crate) fn finish_traced(report: &mut Report, rec: &traced::Recorder) {
    let fail = report.failed as f64 / report.attempted.max(1) as f64;
    report.metrics.put("fail_ratio", fail, "ratio");
    let mut tsv = Vec::new();
    if rec.write_tsv(&mut tsv).is_ok() {
        report.spans_tsv = Some(tsv);
    }
}

/// Puts the metrics in `names` order, filling absent ones with 0 (a
/// layer the workload never entered) and dropping any not listed.
fn order_metrics(report: &mut Report, names: &[(&str, &'static str)]) {
    let values = names
        .iter()
        .map(|(n, u)| (n.to_string(), report.metrics.get(n).unwrap_or(0.0), *u))
        .collect();
    report.metrics.values = values;
}
