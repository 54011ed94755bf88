//! `es-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object with exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
//! the per-layer ledger with `--trace 1`. Lines before it record the
//! host, the run's notes, and any failed check. A traced run also
//! writes its spans to `perfbench/out/<workload>.spans.tsv`.

use es_perfbench::{run, Config, HELD_OUT_SEED};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: es-perfbench --workload fig1|interp|serve|boot --seed N --seconds S --trace 0|1\n\
         (claims are checked on the held-out seed {HELD_OUT_SEED})"
    )
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(cfg)
}

/// The facts a result depends on beyond the code: cores, compiler,
/// and the commit when the checkout is a git repository.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".to_string(), |c| c.trim().to_string());
    format!("host: nproc={nproc} rustc=\"{rustc}\" commit={commit}")
}

/// Pins the process, and so every thread it starts, to the first CPU
/// it may run on. es-serve passes one baton between its threads, so one
/// CPU runs any workload. On a virtual machine the vCPUs differ in how
/// much the host's other tenants slow them, and waking a thread on
/// another vCPU costs an interrupt those tenants delay; a fixed CPU
/// keeps both out of the spread between runs. Returns the CPU, or
/// `None` if pinning failed.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: libc calls whose only precondition is a valid mask pointer
    // of `size` bytes; `mask` is live and exactly that size for both
    // calls, and pid 0 names this thread.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let cpu = (0..1024).find(|c| mask[c / 64] & (1 << (c % 64)) != 0)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        (sched_setaffinity(0, size, one.as_ptr()) == 0).then_some(cpu)
    }
}

fn main() -> ExitCode {
    // Host facts first: `nproc` counts the CPUs before pinning.
    let host = host_line();
    let pinned = pin_to_one_cpu();
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("es-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cpu = pinned.map_or_else(|| "none".to_string(), |c| c.to_string());
    println!("{host} pinned_cpu={cpu}");
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("es-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for note in &report.metrics.notes {
        println!("note: {note}");
    }
    for p in &report.problems {
        println!("problem: {p}");
    }
    if let Some(tsv) = &report.spans_tsv {
        let path = format!("perfbench/out/{}.spans.tsv", cfg.workload);
        let written =
            std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, tsv));
        match written {
            Ok(()) => println!("spans: {path}"),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
