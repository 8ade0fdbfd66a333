//! The delta-maintenance counters read the same on every surface: the
//! `stats` frame's `delta` section and the `metrics` frame's
//! `events_total.delta_{applied,fallback}` each count a dirty shape
//! patched in place, or a dirty shape dropped. A `dpcq serve` child
//! process gives the test a telemetry registry of its own.

#![cfg(unix)]

use dpcq_wire::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// Kills the server even when the test panics: an orphaned server would
/// keep the test harness's output pipe open.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn int(obj: &Json, key: &str) -> i128 {
    obj.get(key)
        .and_then(Json::as_i128)
        .unwrap_or_else(|| panic!("missing integer `{key}` in {obj:?}"))
}

#[test]
fn stats_and_metrics_count_the_same_delta_fallbacks() {
    let table =
        std::env::temp_dir().join(format!("dpcq-delta-counters-{}.csv", std::process::id()));
    std::fs::write(&table, "1,2\n2,1\n2,3\n3,2\n1,3\n3,1\n").expect("write table");
    let child = Command::new(env!("CARGO_BIN_EXE_dpcq"))
        .args(["serve", "--addr", "127.0.0.1:0", "--table"])
        .arg(format!("Edge={}", table.display()))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dpcq serve");
    let mut served = Served(child);
    let mut stderr = BufReader::new(served.0.stderr.take().expect("piped stderr")).lines();
    let addr = loop {
        let line = stderr
            .next()
            .expect("server exited before binding")
            .expect("read stderr");
        if let Some(rest) = line.strip_prefix("dpcq serving on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("bound addr")
                .to_string();
        }
    };
    std::thread::spawn(move || for _ in stderr {});

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut request = |frame: &str| {
        writeln!(writer, "{frame}").expect("send frame");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read frame");
        let json = Json::parse(&line).unwrap_or_else(|e| panic!("bad frame `{line}`: {e}"));
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        json
    };

    // Two dirty shapes over `Edge`: the comparison shape is materialized
    // and cannot be patched (dropped: one fallback), the plain path is
    // patched in place (one applied).
    for query in [
        "Q(*) :- Edge(x,y), Edge(y,z), x < z",
        "Q(*) :- Edge(x,y), Edge(y,z)",
    ] {
        request(&format!(
            r#"{{"op":"release","query":"{query}","epsilon":1.0}}"#
        ));
    }
    request(r#"{"op":"insert","relation":"Edge","tuple":[3,4]}"#);

    let stats = request(r#"{"op":"stats"}"#);
    let delta = stats.get("delta").expect("delta section");
    let counted = (int(delta, "applied"), int(delta, "fallback"));
    assert_eq!(counted, (1, 1), "{stats:?}");
    let metrics = request(r#"{"op":"metrics"}"#);
    let events = metrics
        .get("metrics")
        .and_then(|m| m.get("events_total"))
        .expect("events_total section");
    let evented = (int(events, "delta_applied"), int(events, "delta_fallback"));
    assert_eq!(evented, counted, "{events:?}");

    request(r#"{"op":"shutdown"}"#);
    served.0.wait().expect("server exits after shutdown");
    std::fs::remove_file(&table).ok();
}
