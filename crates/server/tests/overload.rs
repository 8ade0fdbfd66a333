//! Overload-control integration tests over the real TCP surface: a
//! saturated `dpcq serve` process must degrade to a read-only replay
//! tier (cached answers keep flowing at zero ε, fresh work is shed with
//! a retryable frame — invariants O1/O3), and the accept loop must
//! bound concurrent connections by answering overflow with one
//! `Overloaded` frame instead of spawning a thread.

#![cfg(unix)]

use dpcq_wire::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const TRIANGLE: &str =
    "Q(*) :- Edge(x1,x2), Edge(x2,x3), Edge(x1,x3), x1 != x2, x2 != x3, x1 != x3";

fn temp_base(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dpcq-overload-test-{}-{tag}", std::process::id()))
}

struct Served {
    child: Child,
    addr: String,
}

/// Kills the server even when a test panics: an orphaned server would
/// keep the test harness's output pipe open.
impl Drop for Served {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// Spawns `dpcq serve` on an ephemeral port with `extra` flags appended
/// (e.g. `--max-inflight 0`), returning the bound address.
fn spawn_server(table: &Path, data_dir: &Path, extra: &[&str]) -> Served {
    let mut args = vec![
        "serve".to_string(),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--table".into(),
        format!("Edge={}", table.display()),
        "--budget".into(),
        "2.0".into(),
        "--data-dir".into(),
        data_dir.display().to_string(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_dpcq"))
        .args(&args)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dpcq serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before binding")
            .expect("read server stderr");
        if let Some(rest) = line.strip_prefix("dpcq serving on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("bound addr")
                .to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Served { child, addr }
}

/// One request frame in, one response frame out, parsed.
fn request(addr: &str, frame: &str) -> Json {
    try_request(addr, frame).expect("request round trip")
}

/// [`request`], with transport errors returned: a connection the server
/// sheds is closed at once, which can fail the write or the read.
fn try_request(addr: &str, frame: &str) -> std::io::Result<Json> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    writeln!(stream.try_clone()?, "{frame}")?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Ok(Json::parse(&line).unwrap_or_else(|e| panic!("bad response `{line}`: {e}")))
}

fn release_frame(query: &str, epsilon: f64) -> String {
    format!(r#"{{"op":"release","query":"{query}","principal":"alice","epsilon":{epsilon}}}"#)
}

fn f64_field(obj: &Json, key: &str) -> f64 {
    obj.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric `{key}` in {obj:?}"))
}

fn write_table(base: &Path) -> PathBuf {
    let table = base.join("edges.csv");
    let rows: String = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)]
        .iter()
        .map(|(u, v)| format!("{u},{v}\n"))
        .collect();
    std::fs::write(&table, rows).expect("write table");
    table
}

/// Warm a cached release in one server life, then restart the same data
/// directory with `--max-inflight 0`: every fresh release is shed with a
/// retryable frame **before any ε moves** (O1), while the cached answer
/// keeps replaying bit-identically at zero ε (O3) — the degraded server
/// is exactly a read-only replay tier. The shed work shows up in the
/// stats overload counters.
#[test]
fn saturated_server_sheds_fresh_work_but_keeps_replaying_cached_answers() {
    let base = temp_base("replay-tier");
    std::fs::create_dir_all(&base).expect("mk temp base");
    let table = write_table(&base);
    let data_dir = base.join("state");

    // --- First life: warm the cache, then SIGKILL (commits are durable).
    let mut served = spawn_server(&table, &data_dir, &[]);
    let warm = request(&served.addr, &release_frame(TRIANGLE, 0.5));
    assert_eq!(
        warm.get("ok").and_then(Json::as_bool),
        Some(true),
        "{warm:?}"
    );
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(false));
    let warm_bits = f64_field(&warm, "value").to_bits();
    served.child.kill().expect("kill");
    served.child.wait().expect("wait");

    // --- Second life: zero release slots — a pure replay tier.
    let mut served = spawn_server(&table, &data_dir, &["--max-inflight", "0"]);

    let shed = request(&served.addr, &release_frame(TRIANGLE, 1.0));
    assert_eq!(
        shed.get("ok").and_then(Json::as_bool),
        Some(false),
        "{shed:?}"
    );
    assert_eq!(
        shed.get("overloaded").and_then(Json::as_bool),
        Some(true),
        "fresh work on a saturated server must shed retryably: {shed:?}"
    );
    assert!(
        shed.get("retry_after_ms").and_then(Json::as_f64).is_some(),
        "shed frame must carry a backoff hint: {shed:?}"
    );

    let replay = request(&served.addr, &release_frame(TRIANGLE, 0.5));
    assert_eq!(
        replay.get("cached").and_then(Json::as_bool),
        Some(true),
        "cache replays are admitted even at zero slots: {replay:?}"
    );
    assert_eq!(
        f64_field(&replay, "value").to_bits(),
        warm_bits,
        "replay must be bit-identical to the pre-restart answer"
    );

    // Shedding moved no ε: the ledger still shows only the warm release.
    let budget = request(&served.addr, r#"{"op":"budget","principal":"alice"}"#);
    assert_eq!(f64_field(&budget, "spent").to_bits(), 0.5f64.to_bits());

    let stats = request(&served.addr, r#"{"op":"stats"}"#);
    let overload = stats.get("overload").expect("overload section");
    assert!(
        f64_field(overload, "shed_requests") >= 1.0,
        "shed counter must record the rejected release: {stats:?}"
    );
    assert_eq!(f64_field(overload, "deadline_timeouts"), 0.0);

    served.child.kill().ok();
    served.child.wait().ok();
    std::fs::remove_dir_all(&base).ok();
}

/// The accept loop's connection bound: with `--max-connections 1` and one
/// connection parked, an overflow connection receives exactly one
/// retryable `Overloaded` frame and is closed — no thread is spawned for
/// it. Once the parked connection goes away, service resumes.
#[test]
fn connection_cap_answers_overflow_with_one_retryable_frame() {
    let base = temp_base("conn-cap");
    std::fs::create_dir_all(&base).expect("mk temp base");
    let table = write_table(&base);
    let data_dir = base.join("state");
    let mut served = spawn_server(&table, &data_dir, &["--max-connections", "1"]);

    // Park one connection (sends nothing; the poll-timeout read loop
    // keeps it alive server-side).
    let parked = TcpStream::connect(&served.addr).expect("park connection");

    // The overflow connection gets one Overloaded frame, then EOF.
    let overflow = TcpStream::connect(&served.addr).expect("overflow connection");
    overflow
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(overflow);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read shed frame");
    let shed = Json::parse(&line).unwrap_or_else(|e| panic!("bad shed frame `{line}`: {e}"));
    assert_eq!(
        shed.get("ok").and_then(Json::as_bool),
        Some(false),
        "{shed:?}"
    );
    assert_eq!(shed.get("overloaded").and_then(Json::as_bool), Some(true));
    assert!(shed.get("retry_after_ms").and_then(Json::as_f64).is_some());
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("overflow connection must be closed after the shed frame");
    assert!(
        rest.is_empty(),
        "nothing follows the shed frame: {:?}",
        String::from_utf8_lossy(&rest)
    );

    // Free the slot; the server notices the EOF within its poll interval.
    drop(parked);
    let mut answered = None;
    for _ in 0..50 {
        // Until then a new connection is shed like the overflow one.
        let budget = try_request(&served.addr, r#"{"op":"budget","principal":"alice"}"#);
        if let Ok(budget) = budget {
            if budget.get("ok").and_then(Json::as_bool) == Some(true) {
                answered = Some(budget);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let budget = answered.expect("service must resume after the parked connection closes");
    assert_eq!(f64_field(&budget, "spent"), 0.0);

    served.child.kill().ok();
    served.child.wait().ok();
    std::fs::remove_dir_all(&base).ok();
}
