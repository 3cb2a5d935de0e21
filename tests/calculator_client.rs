//! End-to-end differential smoke of the calculator's `--connect`
//! client mode: the same scripted stdin session, once over the text
//! codec and once over the binary wire codec with batching, against
//! identically-configured shard-pool servers. Stdout must be
//! byte-identical across codecs (modulo `queue_depth_peak`, which is
//! scheduling-dependent: the text client pipelines lines one by one
//! while the binary client admits whole batch frames atomically).
//! It also checks that the calculator rejects an invalid
//! `PRESBURGER_FAULT`.

use presburger::counting::Budgets;
use presburger::serve::{PoolTcpServer, ServeConfig, ShardPoolConfig};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The calculator example binary, built by `cargo test` alongside the
/// test executables (`target/<profile>/examples/calculator`).
fn calculator_bin() -> PathBuf {
    let mut dir = std::env::current_exe().expect("current_exe");
    dir.pop(); // the test binary's name
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir.join("examples")
        .join(format!("calculator{}", std::env::consts::EXE_SUFFIX))
}

fn pool_cfg() -> ShardPoolConfig {
    ShardPoolConfig {
        shards: 2,
        shard_cfg: ServeConfig {
            workers: 1,
            queue_depth: 64,
            default_deadline_ms: None,
            default_budgets: Budgets {
                max_splinters: Some(512),
                max_dnf_clauses: Some(256),
                max_depth: Some(64),
                max_pieces: Some(20_000),
                max_coeff_bits: Some(512),
                ..Budgets::unlimited()
            },
            breaker_failures: 0,
            ..ServeConfig::default()
        },
        probe_interval_ms: 2,
        restart_backoff_ms: 10,
        rescue_after_ms: 60_000,
        ..ShardPoolConfig::default()
    }
}

/// Runs the client against a fresh server and returns its stdout.
fn run_client(script: &str, extra_args: &[&str]) -> String {
    let server = PoolTcpServer::bind("127.0.0.1:0", pool_cfg()).expect("bind loopback");
    let addr = server.addr().to_string();
    let mut cmd = Command::new(calculator_bin());
    cmd.arg("--connect").arg(&addr).args(extra_args);
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn calculator client");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("client exits");
    server.shutdown();
    assert!(
        out.status.success(),
        "client failed ({:?}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 replies")
}

/// Masks the one scheduling-dependent stats counter.
fn mask_peak(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for line in s.lines() {
        if let Some(idx) = line.find("queue_depth_peak=") {
            let tail = &line[idx..];
            let end = tail.find(' ').unwrap_or(tail.len());
            out.push_str(&line[..idx]);
            out.push_str("queue_depth_peak=_");
            out.push_str(&tail[end..]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn calculator_client_text_and_binary_agree() {
    let script = "\
ping hello
count c1 {x : 1 <= x <= 9}
count c2 {i,j : 1 <= i <= j <= 4}
sum c3 x {x : 1 <= x <= 4}
count c4 {x : 1 <= x <= n}
count c5 {x : 1 <= x <= 9}
count c6 {x : x >= 0}
drain
";
    let text = run_client(script, &[]);
    let binary = run_client(script, &["--binary", "--batch", "4"]);
    assert!(
        text.contains("OK c1 exact 9") && text.contains("BYE"),
        "unexpected text transcript:\n{text}"
    );
    assert_eq!(
        mask_peak(&text),
        mask_peak(&binary),
        "binary client output drifted from text"
    );

    // EOF (no explicit drain) closes out the connection identically
    // under either codec: all replies delivered, no parting frame.
    let script = "count e1 {x : 1 <= x <= 3}\ncount e2 {x : 1 <= x <= 4}\n";
    let text = run_client(script, &[]);
    let binary = run_client(script, &["--binary", "--batch", "8"]);
    assert!(
        text.contains("OK e1 exact 3") && text.contains("OK e2 exact 4"),
        "unexpected EOF transcript:\n{text}"
    );
    assert_eq!(
        mask_peak(&text),
        mask_peak(&binary),
        "binary client EOF drain drifted from text"
    );
}

/// A typo in `PRESBURGER_FAULT` fails loudly instead of running the
/// query with no fault armed.
#[test]
fn invalid_fault_spec_exits_nonzero_naming_the_variable() {
    let out = Command::new(calculator_bin())
        .args(["--timeout", "5000", "count {x : 1 <= x <= 3}"])
        .env("PRESBURGER_FAULT", "bogus:1")
        .output()
        .expect("run calculator");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exited {:?}", out.status);
    assert!(stderr.contains("PRESBURGER_FAULT"), "stderr was: {stderr}");
}

/// An armed fault alone makes a query governed: without any governor
/// flag, `sum_depth:1` still degrades the count to §4.6 bounds.
#[test]
fn an_armed_fault_alone_governs_the_query() {
    let out = Command::new(calculator_bin())
        .arg("count {i,j : 1 <= i && j <= n && 2i <= 3j}")
        .env("PRESBURGER_FAULT", "sum_depth:1")
        .output()
        .expect("run calculator");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exited {:?}", out.status);
    assert!(
        stdout.contains("degraded to §4.6 bounds (budget exceeded: sum_depth"),
        "stdout was: {stdout}"
    );
    assert!(stdout.contains("100→[7525,7575]"), "stdout was: {stdout}");
}
