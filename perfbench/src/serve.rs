//! The `serve` workload: a closed loop through `es_serve::Server`.
//!
//! Two clients, driven from the benchmark's one thread through
//! `feed` and `pump`, each hold a session open on a pool with
//! `capacity` = `high_water` = 2 (the host's core count). A client
//! sends one command, waits for its `done`, checks the bytes, and only
//! then sends the next — the way an `es serve` client behaves. After
//! 4 to 6 commands it closes the session (recycle + reset audit) and
//! opens another. One op is one served command, Line to Done.
//!
//! The pool's machines run on its worker threads, out of reach of a
//! kernel wrapper, so a traced run mirrors every session on two bare
//! machines: an untraced twin (`es-serve.direct_us`, recycle and
//! fingerprint costs) and a [`TracedOs`] twin that feeds the ledger.

use crate::gen::{Cmd, Sessions};
use crate::ledger::{measure, time_parse, Ledger};
use crate::shell::{boot_import_us, hook_overhead_ns};
use crate::traced::{Kernel, Rec, TracedOs};
use crate::{ns_since, peak_rss_mib, Config, Report, Timed, Window};
use es_core::Machine;
use es_os::{Os, SimOs};
use es_serve::{Frame, ServeConfig, Server};
use std::time::Instant;

/// Sessions in flight (one per client).
const CLIENTS: usize = 2;
/// Commands discarded before anything is timed or counted; peak RSS is
/// read after them, so it measures the same work on every run.
const WARM_CMDS: u64 = 400;
/// Commands in the count window.
pub const COUNT_CMDS: u64 = 60;
/// The step budget the server re-arms before every command; the twins
/// arm the same, so they pay the same governor checks.
const STEP_BUDGET: u64 = 200_000;

fn config() -> ServeConfig {
    ServeConfig {
        capacity: CLIENTS,
        high_water: CLIENTS,
        session_limits: vec![("steps".to_string(), STEP_BUDGET)],
        ..ServeConfig::default()
    }
}

/// A traced run's mirror of one session.
struct Twins {
    direct: Machine<SimOs>,
    traced: Machine<TracedOs<SimOs>>,
}

struct Client {
    sid: u64,
    cmds: Vec<Cmd>,
    next: usize,
    sent: Instant,
    out: Vec<u8>,
    err: Vec<u8>,
    twins: Option<Twins>,
}

/// Everything one run measures besides latencies.
#[derive(Default)]
struct Tally {
    sessions: u64,
    open_ns: Vec<u64>,
    close_ns: Vec<u64>,
    pump_ns: u64,
    pump_calls: u64,
    count_pump_calls: u64,
    direct_ns: u64,
    recycle_ns: Vec<u64>,
    fingerprint_ns: Vec<u64>,
    untraced_ns: Vec<u64>,
    traced_ns: Vec<u64>,
}

fn open(server: &mut Server, sessions: &mut Sessions) -> Result<Client, String> {
    match server
        .feed(Frame::Open {
            limits: Vec::new(),
            fault_seed: None,
        })
        .as_slice()
    {
        [Frame::Opened { sid }] => Ok(Client {
            sid: *sid,
            cmds: sessions.next_session(),
            next: 0,
            sent: Instant::now(),
            out: Vec::new(),
            err: Vec::new(),
            twins: None,
        }),
        other => Err(format!("open refused: {other:?}")),
    }
}

fn send(server: &mut Server, c: &mut Client) -> Result<(), String> {
    c.sent = Instant::now();
    let sid = c.sid;
    let cmd = c.cmds[c.next].line.clone();
    match server.feed(Frame::Line { sid, cmd }).as_slice() {
        [] => Ok(()),
        other => Err(format!("line refused: {other:?}")),
    }
}

fn close(server: &mut Server, sid: u64) -> Result<(), String> {
    match server.feed(Frame::Close { sid }).as_slice() {
        [Frame::Closed { sid: s }] if *s == sid => Ok(()),
        other => Err(format!("close of {sid} answered {other:?}")),
    }
}

/// Builds the server and opens the first sessions; a session opens
/// only once its slot's worker has booted, so this covers the pool.
fn setup(sessions: &mut Sessions) -> Result<(Server, Vec<Client>), String> {
    let mut server = Server::new(config());
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(open(&mut server, sessions)?);
    }
    Ok((server, clients))
}

fn boot_twins(rec: &Rec) -> Result<Twins, String> {
    let direct = Machine::new(SimOs::new()).map_err(|e| format!("twin boot: {e:?}"))?;
    let traced = Machine::new(TracedOs::new(SimOs::new(), rec.clone()))
        .map_err(|e| format!("twin boot: {e:?}"))?;
    Ok(Twins { direct, traced })
}

/// Runs the serve workload as `cfg` asks.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    if let Err(e) = drive(cfg, &mut report) {
        report.problem(e);
    }
    report
}

fn drive(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let mut sessions = Sessions::new(cfg.seed);
    let (mut server, mut clients) = setup(&mut sessions)?;
    let mut window = Window::new(cfg.seconds);
    let rec = Rec::default();
    if cfg.trace {
        for c in &mut clients {
            c.twins = Some(boot_twins(&rec)?);
        }
    }

    let mut tally = Tally::default();
    let mut ledger = Ledger::new(COUNT_CMDS);
    let mut lat_ns = Vec::new();
    let mut done_ns = Vec::new();
    let mut session_done_ns = Vec::new();
    let mut rss_mib = 0.0;
    let mut log_at = [0usize; 2];
    for c in &mut clients {
        send(&mut server, c)?;
    }

    let mut done_cmds = 0u64;
    let warm = Instant::now();
    let mut timed = false;
    loop {
        // A traced run warms up for a fixed number of commands (the host
        // was warmed by a discarded pass), so its count window sees the
        // same commands from the same state every run.
        if !timed && done_cmds >= WARM_CMDS && (cfg.trace || warm.elapsed() >= cfg.warm_up()) {
            timed = true;
            window = Window::new(cfg.seconds);
            tally = Tally::default();
            log_at[0] = server.event_log().len();
            for c in &mut clients {
                if let Some(t) = &mut c.twins {
                    t.direct.heap.reset_stats();
                    t.traced.heap.reset_stats();
                }
            }
        }
        let n = lat_ns.len() as u64;
        if timed && n >= COUNT_CMDS && window.over() {
            break;
        }
        if timed && !cfg.trace {
            // Dropping an extra server joins its workers; the whole stall,
            // and the probe's, is kept out of the in-flight commands'
            // latencies.
            let spent = window.between_ops(|| setup(&mut Sessions::new(cfg.seed)))?;
            for c in &mut clients {
                c.sent += spent;
            }
        }

        let t = Instant::now();
        let frames = server.pump(1);
        tally.pump_ns += ns_since(t);
        tally.pump_calls += 1;
        let mut done = Vec::new();
        for f in frames {
            match f {
                Frame::Out { sid, bytes } => client(&mut clients, sid)?.out.extend(bytes),
                Frame::Err { sid, bytes } => client(&mut clients, sid)?.err.extend(bytes),
                Frame::Done { sid, ok, value } => done.push((sid, ok, value)),
                other => return Err(format!("unexpected frame {other:?}")),
            }
        }
        for (sid, ok, value) in done {
            let c = client(&mut clients, sid)?;
            let lat = ns_since(c.sent);
            let cmd = c.cmds[c.next].clone();
            let mut verdict = if !ok {
                Err(format!("`{}` failed: {value}", cmd.line))
            } else if c.out != cmd.expected.as_bytes() || !c.err.is_empty() {
                Err(format!(
                    "`{}`: stdout {:?} stderr {:?}, want {:?}",
                    cmd.line,
                    String::from_utf8_lossy(&c.out),
                    String::from_utf8_lossy(&c.err),
                    cmd.expected
                ))
            } else {
                Ok(())
            };
            if let Some(tw) = &mut c.twins {
                let n = lat_ns.len() as u64;
                let r = mirror(tw, &cmd, &c.out, n, &rec, &mut tally, &mut ledger, timed);
                verdict = verdict.and(r);
            }
            done_cmds += 1;
            if done_cmds == WARM_CMDS {
                rss_mib = peak_rss_mib();
            }
            if timed {
                lat_ns.push(lat);
                done_ns.push(window.now_ns());
                report.attempted += 1;
                if let Err(e) = verdict {
                    report.failed += 1;
                    report.problem(e);
                }
                if lat_ns.len() as u64 == COUNT_CMDS {
                    tally.count_pump_calls = tally.pump_calls;
                    log_at[1] = server.event_log().len();
                }
            } else {
                verdict?;
            }
            c.next += 1;
            c.out.clear();
            c.err.clear();
            if c.next == c.cmds.len() {
                let t = Instant::now();
                close(&mut server, sid)?;
                let close_ns = ns_since(t);
                if let Some(tw) = &mut c.twins {
                    end_session(tw, &mut tally)?;
                }
                let twins = c.twins.take();
                let t = Instant::now();
                let mut fresh = open(&mut server, &mut sessions)?;
                let open_ns = ns_since(t);
                fresh.twins = twins;
                *c = fresh;
                if timed {
                    tally.sessions += 1;
                    session_done_ns.push(window.now_ns());
                    tally.close_ns.push(close_ns);
                    tally.open_ns.push(open_ns);
                }
            }
            send(&mut server, c)?;
        }
    }
    let end_ns = if cfg.trace {
        0
    } else {
        window.finish(|| setup(&mut Sessions::new(cfg.seed)))?
    };
    for c in &clients {
        // An in-flight command is cancelled by the close; that is the
        // end of the run, not a failure.
        let _ = server.feed(Frame::Close { sid: c.sid });
    }
    let stats = server.stats();
    if stats.oracle_violations != 0 || stats.shed != 0 || stats.panics != 0 {
        report.failed += stats.oracle_violations + stats.shed + stats.panics;
        report.problem(format!(
            "server stats: {} oracle violations, {} shed, {} panics",
            stats.oracle_violations, stats.shed, stats.panics
        ));
    }

    if !cfg.trace {
        Timed {
            window,
            end_ns,
            lat_ns,
            done_ns,
            session_done_ns,
            rss_mib,
        }
        .put(report);
        return Ok(());
    }

    ledger.finish(&rec.borrow(), &mut report.metrics);
    let m = &mut report.metrics;
    let cmds = ledger.ops().max(1) as f64;
    let mean_us = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1000.0;
    let pump_us = tally.pump_ns as f64 / cmds / 1000.0;
    let direct_us = tally.direct_ns as f64 / cmds / 1000.0;
    m.put("es-serve.open_us", mean_us(&tally.open_ns), "us");
    m.put("es-serve.close_us", mean_us(&tally.close_ns), "us");
    m.put("es-serve.pump_us", pump_us, "us");
    m.put(
        "es-serve.pump_calls",
        tally.count_pump_calls as f64 / COUNT_CMDS as f64,
        "count",
    );
    m.put("es-serve.direct_us", direct_us, "us");
    m.put("es-serve.overhead_us", pump_us - direct_us, "us");
    m.put(
        "es-serve.log_bytes",
        (log_at[1] - log_at[0]) as f64 / COUNT_CMDS as f64,
        "bytes",
    );
    m.put("es-serve.shed", stats.shed as f64, "count");
    m.put("es-serve.scrubs", stats.scrubs as f64, "count");
    m.put(
        "es-serve.oracle_violations",
        stats.oracle_violations as f64,
        "count",
    );
    m.put("es-core.recycle_us", mean_us(&tally.recycle_ns), "us");
    m.put("es-os.fingerprint_us", mean_us(&tally.fingerprint_ns), "us");
    let twin = &clients[0]
        .twins
        .as_ref()
        .expect("traced run has twins")
        .direct;
    m.put("es-core.hook_overhead_ns", hook_overhead_ns(twin), "ns");
    let mut bare = SimOs::new();
    bare.set_initial_env(Vec::new());
    let (boot_us, import_us) = boot_import_us(&bare, &SimOs::new());
    m.put("es-core.boot_us", boot_us, "us");
    m.put("es-core.import_us", import_us, "us");
    m.note(format!(
        "es-serve.overhead_us = pump {pump_us:.2} us - direct {direct_us:.2} us per command, over {} commands; {} sessions; es-serve.log_bytes over the first {COUNT_CMDS} commands",
        ledger.ops(),
        tally.sessions
    ));
    crate::put_trace_overhead(report, &tally.untraced_ns, &tally.traced_ns);
    crate::finish_traced(report, &rec.borrow());
    Ok(())
}

fn client(clients: &mut [Client], sid: u64) -> Result<&mut Client, String> {
    clients
        .iter_mut()
        .find(|c| c.sid == sid)
        .ok_or_else(|| format!("frame for unknown session {sid}"))
}

/// Runs a served command on both twins (untraced first, then traced),
/// checks all three agree, and feeds the ledger.
#[allow(clippy::too_many_arguments)]
fn mirror(
    tw: &mut Twins,
    cmd: &Cmd,
    served: &[u8],
    n: u64,
    rec: &Rec,
    tally: &mut Tally,
    ledger: &mut Ledger,
    timed: bool,
) -> Result<(), String> {
    type Ran = (Result<Vec<String>, String>, (String, String));
    let run_direct = |m: &mut Machine<SimOs>| -> Result<(u64, Ran), String> {
        arm(m)?;
        let t = Instant::now();
        let r = m.run(&cmd.line);
        let ns = ns_since(t);
        Ok((ns, (r, m.os_mut().take_console())))
    };
    // Alternate which twin goes first, so neither is always measured cold.
    let direct_first = n.is_multiple_of(2);
    let mut direct = None;
    if direct_first {
        direct = Some(run_direct(&mut tw.direct)?);
    }
    arm(&mut tw.traced)?;
    let traced = if timed {
        let parse = time_parse(&[&cmd.line]);
        let (sample, traced) = measure(
            rec,
            n as u32,
            parse,
            false,
            &mut tw.traced,
            |m| m,
            |m| m.run(&cmd.line),
        );
        tally.traced_ns.push(sample.op_ns);
        ledger.add(n, sample);
        traced
    } else {
        tw.traced.run(&cmd.line)
    };
    let traced_out = tw.traced.os_mut().take_console();
    if !direct_first {
        direct = Some(run_direct(&mut tw.direct)?);
    }
    let (direct_ns, (direct, direct_out)) = direct.expect("the direct twin ran");
    if timed {
        tally.direct_ns += direct_ns;
        tally.untraced_ns.push(direct_ns);
    }

    if direct != traced || direct_out != traced_out {
        return Err(format!(
            "`{}`: traced twin printed different output",
            cmd.line
        ));
    }
    if direct_out.0.as_bytes() != served {
        return Err(format!("`{}`: served and direct output differ", cmd.line));
    }
    Ok(())
}

/// Arms the step budget the server arms before every command.
fn arm<O: Kernel>(m: &mut Machine<O>) -> Result<(), String> {
    m.arm_limit("steps", STEP_BUDGET)
}

/// Session end on the twins: the same recycle the pool does, timing
/// the fingerprint of the dirtied kernel and the recycle itself.
fn end_session(tw: &mut Twins, tally: &mut Tally) -> Result<(), String> {
    let t = Instant::now();
    let fp = tw.direct.os().fingerprint();
    tally.fingerprint_ns.push(ns_since(t));
    if fp != tw.traced.os().sim().fingerprint() {
        return Err("traced and untraced twin kernels differ at session end".to_string());
    }
    let t = Instant::now();
    tw.direct.recycle();
    tally.recycle_ns.push(ns_since(t));
    tw.traced.recycle();
    Ok(())
}
