//! Black-box tests of the `es` binary itself (simulated kernel mode):
//! the REPL over a pty-less stdin, `-c`, script files, and flags.

use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Path of the compiled `es` binary (cargo builds bin deps for
/// integration tests of the same workspace... it does not, so build it
/// on demand the first time).
fn es_binary() -> &'static str {
    use std::sync::Once;
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let status = Command::new(env!("CARGO"))
            .args(["build", "-p", "es-shell"])
            .status()
            .expect("cargo runs");
        assert!(status.success(), "es-shell builds");
    });
    concat!(env!("CARGO_MANIFEST_DIR"), "/target/debug/es")
}

fn run_es(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(es_binary())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("es starts");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("stdin written");
    let out = child.wait_with_output().expect("es exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// Runs `es ARGS` on empty stdin for input that once made the shell
/// spin. The child runs under a 1 GiB address-space cap and is killed
/// after 30 s, so a regression fails the test instead of eating the
/// host's memory. Returns stderr and the exit status.
fn run_es_guarded(args: &[&str]) -> (String, i32) {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 1048576 && exec \"$0\" \"$@\"")
        .arg(es_binary())
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("es starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("es waits") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("es {args:?} did not exit within 30 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut err)
        .expect("stderr reads");
    (err, status.code().unwrap_or(-1))
}

#[test]
fn repl_echo_session() {
    let (out, err, status) = run_es(&[], "echo hello, world\nexit 0\n");
    assert!(out.contains("hello, world"), "stdout: {out} stderr: {err}");
    assert_eq!(status, 0);
}

#[test]
fn dash_c_runs_one_command() {
    let (out, _, status) = run_es(&["-c", "echo from dash c"], "");
    assert_eq!(out, "from dash c\n");
    assert_eq!(status, 0);
}

#[test]
fn dash_c_reports_errors() {
    let (_, err, status) = run_es(&["-c", "no-such-program"], "");
    assert!(err.contains("command not found"), "{err}");
    assert_eq!(status, 1);
}

#[test]
fn exit_status_propagates() {
    let (_, _, status) = run_es(&[], "exit 42\n");
    assert_eq!(status, 42);
}

#[test]
fn pipeline_and_spoof_through_binary() {
    let session = "let (create = $fn-%create) fn %create fd file cmd { throw error writes disabled }\n\
                   echo try > /tmp/blocked\n\
                   echo one two three | wc -w\n\
                   exit 0\n";
    let (out, err, status) = run_es(&[], session);
    assert!(err.contains("writes disabled"), "spoof fired: {err}");
    assert!(out.contains('3'), "pipeline ran: {out}");
    assert_eq!(status, 0);
}

#[test]
fn naive_calls_flag_limits_recursion() {
    let (_, err, _) = run_es(
        &["--naive-calls", "-c", "fn loop n { loop $n }; loop x"],
        "",
    );
    assert!(
        err.contains("limit depth"),
        "depth guard fires in naive mode: {err}"
    );
}

#[test]
fn limit_flag_arms_budget_and_breach_is_reported() {
    let (_, err, status) = run_es(&["--limit", "steps=1000", "-c", "forever {true}"], "");
    assert!(err.contains("limit steps"), "step budget fired: {err}");
    assert_eq!(status, 1);
    // Bad specs are rejected up front with a usage-style error.
    let (_, err, status) = run_es(&["--limit", "bogus=1", "-c", "true"], "");
    assert!(err.contains("unknown limit kind"), "{err}");
    assert_eq!(status, 2);
    let (_, err, status) = run_es(&["--limit", "steps", "-c", "true"], "");
    assert!(err.contains("KIND=N"), "{err}");
    assert_eq!(status, 2);
}

#[test]
fn dump_env_lists_functions() {
    let (out, _, status) = run_es(&["--dump-env"], "");
    assert_eq!(status, 0);
    assert!(out.contains("fn-%pipe=$&pipe"), "{out}");
    assert!(out.contains("fn-%interactive-loop="), "{out}");
}

#[test]
fn repl_survives_errors_and_keeps_going() {
    let (out, err, status) = run_es(&[], "bogus\necho survived\nexit 0\n");
    assert!(err.contains("command not found"), "{err}");
    assert!(out.contains("survived"), "{out}");
    assert_eq!(status, 0);
}

#[test]
fn stress_gc_mode_runs_clean() {
    let (out, _, status) = run_es(
        &["--stress-gc", "-c", "for (i = 1 2 3) { x = $x <>{result $i} }; echo $x"],
        "",
    );
    assert_eq!(out, "1 2 3\n");
    assert_eq!(status, 0);
}

#[test]
fn stray_backslash_is_a_parse_error_not_a_hang() {
    for src in ["echo \\x", "\\", "echo a\\"] {
        let (err, status) = run_es_guarded(&["-c", src]);
        assert!(err.contains("parse error"), "{src:?}: {err}");
        assert_eq!(status, 1, "{src:?}: {err}");
    }
}

#[test]
fn serve_rejects_high_water_above_capacity() {
    // The default high-water mark (8) exceeds a capacity of 4.
    let (_, err, status) = run_es(&["serve", "--capacity", "4"], "");
    assert!(err.contains("--high-water 8 exceeds --capacity 4"), "{err}");
    assert_eq!(status, 2);
    let (_, err, status) = run_es(&["serve", "--capacity", "4", "--high-water", "5"], "");
    assert!(err.contains("exceeds"), "{err}");
    assert_eq!(status, 2);
    // A consistent pair starts; EOF on stdin drains and exits cleanly.
    let (out, err, status) = run_es(&["serve", "--capacity", "4", "--high-water", "4"], "");
    assert!(out.contains("drained"), "{out} {err}");
    assert_eq!(status, 0, "{err}");
}
