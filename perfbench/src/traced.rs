//! `TracedOs`: an [`Os`] that delegates every call to an inner kernel
//! and records a span around each syscall, from outside the program.
//!
//! The shell cannot tell it apart from the kernel it wraps: every
//! trait method — including the defaulted `advance_ns`,
//! `take_console` and `absorb_fork` — forwards, so a traced run
//! prints the same bytes and leaves the same kernel fingerprint as an
//! untraced one (the benchmark checks this on every traced op). The
//! recorder sits behind an `Rc`, so the clones `fork` makes record
//! into the same span list as their parent.

use es_os::{Desc, OpenMode, Os, OsResult, Rusage, Signal, SimOs};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The kernel calls a span can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// One whole benchmark op (the parent of every syscall span in it).
    Op,
    /// An external program run to completion (`Os::run`).
    Run,
    Open,
    Pipe,
    Dup,
    Close,
    Read,
    Write,
    Chdir,
}

impl Call {
    /// The span's name in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Call::Op => "op",
            Call::Run => "run",
            Call::Open => "open",
            Call::Pipe => "pipe",
            Call::Dup => "dup",
            Call::Close => "close",
            Call::Read => "read",
            Call::Write => "write",
            Call::Chdir => "chdir",
        }
    }
}

/// Programs whose run time the ledger reports on its own line
/// (`es-os.run_us.<prog>`); anything else counts as `other`.
pub const PROGRAMS: [&str; 7] = ["cat", "tr", "sort", "uniq", "sed", "wc", "other"];

fn program_index(argv: &[String]) -> u8 {
    let name = argv
        .first()
        .map(|a| a.rsplit('/').next().unwrap_or(a))
        .unwrap_or("");
    let last = PROGRAMS.len() - 1;
    PROGRAMS[..last]
        .iter()
        .position(|p| *p == name)
        .unwrap_or(last) as u8
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub call: Call,
    /// The op it belongs to; its parent is that op's [`Call::Op`] span.
    pub op: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Bytes moved: read/write results, or for `Run` the environment
    /// bytes handed to the program (`NAME=value` per pair).
    pub bytes: u64,
    /// For `Run`, the index into [`PROGRAMS`].
    pub prog: u8,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span list, written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Spans are kept only while on (the warm-up is not recorded).
    on: bool,
    op: u32,
    /// `Run` spans in the current op (drives the export attribution).
    op_execs: u64,
    /// Every span recorded, in end order.
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            on: false,
            op: 0,
            op_execs: 0,
            spans: Vec::new(),
        }
    }
}

/// Shared handle to a recorder.
pub type Rec = Rc<RefCell<Recorder>>;

impl Recorder {
    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts recording op `op`'s syscall spans.
    pub fn begin_op(&mut self, op: u32) {
        self.on = true;
        self.op = op;
        self.op_execs = 0;
    }

    /// Closes op `op` with its own span; returns the programs it ran.
    pub fn end_op(&mut self, op: u32, start_ns: u64, end_ns: u64) -> u64 {
        self.spans.push(Span {
            call: Call::Op,
            op,
            start_ns,
            end_ns,
            bytes: 0,
            prog: 0,
        });
        self.on = false;
        self.op_execs
    }

    fn push(&mut self, call: Call, start_ns: u64, bytes: u64, prog: u8) {
        if !self.on {
            return;
        }
        if call == Call::Run {
            self.op_execs += 1;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            call,
            op: self.op,
            start_ns,
            end_ns,
            bytes,
            prog,
        });
    }

    /// Writes every span as one tab-separated line: op, name, start,
    /// end, bytes, program. Each syscall span's parent is the `op` span
    /// with the same op number.
    pub fn write_tsv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "op\tspan\tstart_ns\tend_ns\tbytes\tprog")?;
        for s in &self.spans {
            let prog = if s.call == Call::Run {
                PROGRAMS[s.prog as usize]
            } else {
                "-"
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{prog}",
                s.op,
                s.call.name(),
                s.start_ns,
                s.end_ns,
                s.bytes
            )?;
        }
        Ok(())
    }
}

/// A kernel wrapper that records a span per syscall.
#[derive(Debug, Clone)]
pub struct TracedOs<O> {
    inner: O,
    rec: Rec,
}

impl<O> TracedOs<O> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: O, rec: Rec) -> TracedOs<O> {
        TracedOs { inner, rec }
    }

    fn span<T>(&mut self, call: Call, f: impl FnOnce(&mut O) -> OsResult<T>) -> OsResult<T> {
        let start = self.rec.borrow().now_ns();
        let r = f(&mut self.inner);
        self.rec.borrow_mut().push(call, start, 0, 0);
        r
    }
}

impl<O: Os> Os for TracedOs<O> {
    fn open(&mut self, path: &str, mode: OpenMode) -> OsResult<Desc> {
        self.span(Call::Open, |os| os.open(path, mode))
    }
    fn pipe(&mut self) -> OsResult<(Desc, Desc)> {
        self.span(Call::Pipe, |os| os.pipe())
    }
    fn dup(&mut self, d: Desc) -> OsResult<Desc> {
        self.span(Call::Dup, |os| os.dup(d))
    }
    fn close(&mut self, d: Desc) -> OsResult<()> {
        self.span(Call::Close, |os| os.close(d))
    }
    fn read(&mut self, d: Desc, buf: &mut [u8]) -> OsResult<usize> {
        let start = self.rec.borrow().now_ns();
        let r = self.inner.read(d, buf);
        let n = *r.as_ref().unwrap_or(&0) as u64;
        self.rec.borrow_mut().push(Call::Read, start, n, 0);
        r
    }
    fn write(&mut self, d: Desc, data: &[u8]) -> OsResult<usize> {
        let start = self.rec.borrow().now_ns();
        let r = self.inner.write(d, data);
        let n = *r.as_ref().unwrap_or(&0) as u64;
        self.rec.borrow_mut().push(Call::Write, start, n, 0);
        r
    }
    fn run(
        &mut self,
        argv: &[String],
        env: &[(String, String)],
        fds: &[(u32, Desc)],
    ) -> OsResult<i32> {
        let env_bytes = env
            .iter()
            .map(|(k, v)| k.len() + 1 + v.len())
            .sum::<usize>() as u64;
        let start = self.rec.borrow().now_ns();
        let r = self.inner.run(argv, env, fds);
        self.rec
            .borrow_mut()
            .push(Call::Run, start, env_bytes, program_index(argv));
        r
    }
    fn chdir(&mut self, path: &str) -> OsResult<()> {
        self.span(Call::Chdir, |os| os.chdir(path))
    }
    fn cwd(&self) -> String {
        self.inner.cwd()
    }
    fn read_dir(&self, path: &str) -> OsResult<Vec<String>> {
        self.inner.read_dir(path)
    }
    fn is_file(&self, path: &str) -> bool {
        self.inner.is_file(path)
    }
    fn is_dir(&self, path: &str) -> bool {
        self.inner.is_dir(path)
    }
    fn is_executable(&self, path: &str) -> bool {
        self.inner.is_executable(path)
    }
    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }
    fn advance_ns(&mut self, ns: u64) {
        self.inner.advance_ns(ns)
    }
    fn open_desc_count(&self) -> usize {
        self.inner.open_desc_count()
    }
    fn children_rusage(&self) -> Rusage {
        self.inner.children_rusage()
    }
    fn take_signal(&mut self) -> Option<Signal> {
        self.inner.take_signal()
    }
    fn initial_env(&self) -> Vec<(String, String)> {
        self.inner.initial_env()
    }
    fn take_console(&mut self) -> (String, String) {
        self.inner.take_console()
    }
    fn absorb_fork(&mut self, child: Self) {
        self.inner.absorb_fork(child.inner)
    }
}

/// A kernel the benchmark can run a machine on: the simulated kernel
/// itself, or the simulated kernel under [`TracedOs`].
pub trait Kernel: Os + Clone {
    /// The simulated kernel underneath.
    fn sim(&self) -> &SimOs;
    /// The simulated kernel underneath (mutable).
    fn sim_mut(&mut self) -> &mut SimOs;
}

impl Kernel for SimOs {
    fn sim(&self) -> &SimOs {
        self
    }
    fn sim_mut(&mut self) -> &mut SimOs {
        self
    }
}

impl Kernel for TracedOs<SimOs> {
    fn sim(&self) -> &SimOs {
        &self.inner
    }
    fn sim_mut(&mut self) -> &mut SimOs {
        &mut self.inner
    }
}
