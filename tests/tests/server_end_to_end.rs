//! Socket-level integration test of the `dpcq_server` serving layer.
//!
//! Drives a real TCP server (ephemeral port, seeded RNG) through the full
//! serving story: release → byte-identical cached replay at zero extra
//! budget → budget exhaustion rejected without spending → database
//! mutation → generation bump, cache and store invalidation → shutdown.

use dpcq::prelude::*;
use dpcq_server::{Server, ServerConfig};
use dpcq_wire::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

const TRIANGLE: &str =
    "Q(*) :- Edge(x1,x2), Edge(x2,x3), Edge(x1,x3), x1 != x2, x2 != x3, x1 != x3";

fn sym_db() -> Database {
    let mut db = Database::new();
    for (u, v) in [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)] {
        db.insert_tuple("Edge", &[Value(u), Value(v)]);
        db.insert_tuple("Edge", &[Value(v), Value(u)]);
    }
    db
}

/// A line-oriented test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends one frame, returns the raw response line and its JSON form.
    fn roundtrip(&mut self, frame: &str) -> (String, Json) {
        writeln!(self.writer, "{frame}").expect("write frame");
        self.writer.flush().expect("flush frame");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        let line = line.trim_end().to_string();
        let json = Json::parse(&line).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"));
        (line, json)
    }
}

fn f64_of(json: &Json, key: &str) -> f64 {
    json.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric `{key}` in {json:?}"))
}

fn assert_ok(json: &Json) {
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "{json:?}"
    );
}

#[test]
fn serving_story_over_a_real_socket() {
    // Budget sized for the script: alice gets 1.25ε total.
    let server = Arc::new(Server::new(
        PrivateEngine::new(sym_db(), Policy::all_private(), 1.0).with_threads(1),
        ServerConfig {
            default_epsilon: 1.0,
            default_budget: 1.25,
            seed: Some(7),
            ..ServerConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let serve_thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener).expect("serve"))
    };

    let mut client = Client::connect(addr);
    let release_frame = |id: i64| {
        format!(
            r#"{{"op":"release","query":"{TRIANGLE}","principal":"alice","epsilon":0.5,"id":{id}}}"#
        )
    };

    // 1. First release: computed fresh, spends 0.5ε.
    let (_, first) = client.roundtrip(&release_frame(1));
    assert_ok(&first);
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(first.get("generation").and_then(Json::as_i128), Some(0));
    assert!((f64_of(&first, "remaining") - 0.75).abs() < 1e-9);

    // 2. Identical request: byte-identical release, ε spent once. The
    //    whole released payload (value, sensitivity, scale, error) must
    //    match to the bit — it is a replay, not a re-sample.
    let (_, second) = client.roundtrip(&release_frame(2));
    assert_ok(&second);
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    for key in ["value", "epsilon", "sensitivity", "scale", "expected_error"] {
        assert_eq!(
            f64_of(&first, key).to_bits(),
            f64_of(&second, key).to_bits(),
            "replay differs in `{key}`"
        );
    }
    let (_, budget) = client.roundtrip(r#"{"op":"budget","principal":"alice"}"#);
    assert_ok(&budget);
    assert!((f64_of(&budget, "spent") - 0.5).abs() < 1e-9);
    assert!((f64_of(&budget, "remaining") - 0.75).abs() < 1e-9);

    // 3. A request exceeding the remaining budget is rejected without
    //    spending anything.
    let (_, too_big) = client.roundtrip(
        r#"{"op":"release","query":"Q(*) :- Edge(a,b)","principal":"alice","epsilon":2.0,"id":3}"#,
    );
    assert_eq!(too_big.get("ok").and_then(Json::as_bool), Some(false));
    let error = too_big.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("budget exhausted"), "{error}");
    let (_, budget) = client.roundtrip(r#"{"op":"budget","principal":"alice"}"#);
    assert!(
        (f64_of(&budget, "spent") - 0.5).abs() < 1e-9,
        "rejection must not spend"
    );

    // 4. Database mutation: generation bumps, the cached release dies,
    //    and the next identical request recomputes (fresh noise, and a
    //    different instance: one more symmetric edge completes K4).
    for tuple in ["[1,4]", "[4,1]"] {
        let (_, upd) = client.roundtrip(&format!(
            r#"{{"op":"insert","relation":"Edge","tuple":{tuple}}}"#
        ));
        assert_ok(&upd);
        assert_eq!(upd.get("changed").and_then(Json::as_bool), Some(true));
    }
    let (_, third) = client.roundtrip(&release_frame(4));
    assert_ok(&third);
    assert_eq!(
        third.get("cached").and_then(Json::as_bool),
        Some(false),
        "{third:?}"
    );
    assert_eq!(third.get("generation").and_then(Json::as_i128), Some(2));
    assert_ne!(
        f64_of(&first, "value").to_bits(),
        f64_of(&third, "value").to_bits(),
        "post-mutation release must be recomputed"
    );
    // (No band check on the value itself: the general-Cauchy noise is
    // heavy-tailed by design, so any band would be flaky-by-seed.)
    let (_, budget) = client.roundtrip(r#"{"op":"budget","principal":"alice"}"#);
    assert!((f64_of(&budget, "spent") - 1.0).abs() < 1e-9);

    // 5. Server stats reflect the session: one live cache entry per
    //    generation-0 death, plus the generation-2 entry.
    let (_, stats) = client.roundtrip(r#"{"op":"stats"}"#);
    assert_ok(&stats);
    assert_eq!(stats.get("generation").and_then(Json::as_i128), Some(2));
    assert_eq!(
        stats.get("release_cache_entries").and_then(Json::as_i128),
        Some(1)
    );
    assert!(
        stats
            .get("release_cache_hits")
            .and_then(Json::as_i128)
            .unwrap()
            >= 1
    );

    // 6. Shutdown: acknowledged, then the server loop exits.
    let (_, bye) = client.roundtrip(r#"{"op":"shutdown","id":99}"#);
    assert_ok(&bye);
    assert_eq!(bye.get("id").and_then(Json::as_i128), Some(99));
    serve_thread
        .join()
        .expect("serve thread exits after shutdown");
    assert!(server.is_shut_down());
}

/// The headline scoped-invalidation story over a real socket: warm
/// releases for `Q_R` (mentions only `R`) and `Q_S` (mentions only `S`),
/// insert into `S`, and check that `Q_R`'s cached answer replays
/// bit-identically at zero additional ε while `Q_S` recomputes under its
/// new read-set stamp. The in-process twin (which can additionally see
/// the family-cache counters) lives in `dpcq_server::server::tests`.
#[test]
fn cross_relation_retention_over_a_real_socket() {
    let mut db = Database::new();
    for (u, v) in [(1, 2), (2, 3), (1, 3), (3, 4)] {
        db.insert_tuple("R", &[Value(u), Value(v)]);
        db.insert_tuple("R", &[Value(v), Value(u)]);
        db.insert_tuple("S", &[Value(10 * u), Value(10 * v)]);
    }
    let server = Arc::new(Server::new(
        PrivateEngine::new(db, Policy::all_private(), 1.0).with_threads(1),
        ServerConfig {
            default_epsilon: 1.0,
            default_budget: f64::INFINITY,
            seed: Some(77),
            ..ServerConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve_thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener).expect("serve"))
    };
    let mut client = Client::connect(addr);
    let q_r = r#"{"op":"release","query":"Q(*) :- R(x,y), R(y,z)","principal":"p","epsilon":0.5}"#;
    let q_s = r#"{"op":"release","query":"Q(*) :- S(x,y), S(y,z)","principal":"p","epsilon":0.5}"#;

    // Warm both shapes.
    let (_, r1) = client.roundtrip(q_r);
    let (_, s1) = client.roundtrip(q_s);
    for warm in [&r1, &s1] {
        assert_ok(warm);
        assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(false));
    }
    let (_, budget) = client.roundtrip(r#"{"op":"budget","principal":"p"}"#);
    let spent_before = f64_of(&budget, "spent");
    assert!((spent_before - 1.0).abs() < 1e-9);

    // Mutate S only.
    let (_, upd) = client.roundtrip(r#"{"op":"insert","relation":"S","tuple":[50,60]}"#);
    assert_ok(&upd);
    assert_eq!(upd.get("changed").and_then(Json::as_bool), Some(true));
    assert_eq!(upd.get("generation").and_then(Json::as_i128), Some(1));

    // Q_R: served from the cache, every payload field bit-identical,
    // zero additional ε.
    let (_, r2) = client.roundtrip(q_r);
    assert_ok(&r2);
    assert_eq!(
        r2.get("cached").and_then(Json::as_bool),
        Some(true),
        "{r2:?}"
    );
    for key in ["value", "epsilon", "sensitivity", "scale", "expected_error"] {
        assert_eq!(
            f64_of(&r1, key).to_bits(),
            f64_of(&r2, key).to_bits(),
            "replay differs in `{key}`"
        );
    }
    let (_, budget) = client.roundtrip(r#"{"op":"budget","principal":"p"}"#);
    assert!(
        (f64_of(&budget, "spent") - spent_before).abs() < 1e-9,
        "replay must be budget-free"
    );

    // Q_S: recomputed under its new stamp — fresh noise, ε spent.
    let (_, s2) = client.roundtrip(q_s);
    assert_ok(&s2);
    assert_eq!(s2.get("cached").and_then(Json::as_bool), Some(false));
    assert_ne!(
        f64_of(&s1, "value").to_bits(),
        f64_of(&s2, "value").to_bits()
    );
    let (_, budget) = client.roundtrip(r#"{"op":"budget","principal":"p"}"#);
    assert!((f64_of(&budget, "spent") - 1.5).abs() < 1e-9);

    // The stats frame reports the version vector and the scoped
    // retention that made the replay possible.
    let (_, stats) = client.roundtrip(r#"{"op":"stats"}"#);
    assert_ok(&stats);
    assert_eq!(stats.get("generation").and_then(Json::as_i128), Some(1));
    let versions = stats.get("relation_versions").expect("version vector");
    assert_eq!(versions.get("R").and_then(Json::as_i128), Some(0));
    assert_eq!(versions.get("S").and_then(Json::as_i128), Some(1));
    assert_eq!(
        stats.get("cache_scoped_hits").and_then(Json::as_i128),
        Some(1),
        "Q_R's entry survived the S mutation"
    );
    assert_eq!(
        stats.get("cache_scoped_misses").and_then(Json::as_i128),
        Some(1),
        "Q_S's entry was dropped"
    );

    client.roundtrip(r#"{"op":"shutdown"}"#);
    serve_thread.join().expect("serve exits");
}

#[test]
fn determinism_across_identical_servers() {
    // Two servers with the same seed and the same request stream produce
    // byte-identical response streams (the integration story above relies
    // on replay *within* one server; this pins replay *across* runs,
    // which is what makes the CI smoke test assertable).
    let run = || -> Vec<String> {
        let server = Arc::new(Server::new(
            PrivateEngine::new(sym_db(), Policy::all_private(), 1.0).with_threads(1),
            ServerConfig {
                default_epsilon: 1.0,
                default_budget: f64::INFINITY,
                seed: Some(1234),
                ..ServerConfig::default()
            },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let serve_thread = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve(listener).expect("serve"))
        };
        let mut client = Client::connect(addr);
        let mut out = Vec::new();
        for frame in [
            format!(r#"{{"op":"release","query":"{TRIANGLE}","epsilon":0.5}}"#),
            r#"{"op":"release","query":"Q(*) :- Edge(a,b)","epsilon":0.5}"#.to_string(),
            format!(r#"{{"op":"release","query":"{TRIANGLE}","epsilon":0.5}}"#),
        ] {
            out.push(client.roundtrip(&frame).0);
        }
        client.roundtrip(r#"{"op":"shutdown"}"#);
        serve_thread.join().expect("serve exits");
        out
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    // And the third frame was a cache replay of the first.
    assert!(a[2].contains("\"cached\":true"), "{}", a[2]);
}

#[test]
fn batched_releases_share_the_family_store() {
    // The batching path: interleaved same-shape queries at distinct ε
    // evaluate under one snapshot; the triangle family is computed once
    // and replayed (value_hits > 0 would be engine-internal — here we
    // assert the observable contract: all four answered, ε summed, and
    // the two triangle answers differ only by their fresh noise draws at
    // equal sensitivity).
    let server = Server::new(
        PrivateEngine::new(sym_db(), Policy::all_private(), 1.0).with_threads(1),
        ServerConfig {
            default_epsilon: 1.0,
            default_budget: 2.0,
            seed: Some(5),
            ..ServerConfig::default()
        },
    );
    let frame = format!(
        concat!(
            r#"{{"op":"batch","id":10,"requests":["#,
            r#"{{"query":"{q}","epsilon":0.3,"id":0}},"#,
            r#"{{"query":"Q(*) :- Edge(a,b)","epsilon":0.4,"id":1}},"#,
            r#"{{"query":"{q}","epsilon":0.5,"id":2}}"#,
            r#"]}}"#
        ),
        q = TRIANGLE
    );
    let out = server.handle_line(&frame);
    let json = Json::parse(&out).unwrap();
    assert_ok(&json);
    let responses = json.get("responses").and_then(Json::as_array).unwrap();
    assert_eq!(responses.len(), 3);
    let mut sensitivities = Vec::new();
    for (i, r) in responses.iter().enumerate() {
        assert_ok(r);
        assert_eq!(r.get("id").and_then(Json::as_i128), Some(i as i128));
        sensitivities.push(f64_of(r, "sensitivity"));
    }
    // Same instance, same β (ε/10 differs — but sensitivity is computed
    // at each ε's β, so only compare the two triangle entries loosely):
    // both positive and finite is the protocol-level contract.
    assert!(sensitivities.iter().all(|s| s.is_finite() && *s > 0.0));
    // ε accounting: 0.3 + 0.4 + 0.5 committed for `default`.
    let spent = server.budget().spent("default");
    assert!((spent - 1.2).abs() < 1e-9, "spent {spent}");
}

/// Pipelined frames are answered in request order without a batching
/// stall. With Nagle's algorithm on the served socket, each response
/// after the first in a burst waits for the client's delayed ACK of the
/// one before (~40 ms on Linux loopback), so a burst of 8 cheap frames
/// took ~40 ms instead of well under one.
#[test]
fn pipelined_bursts_do_not_stall() {
    let server = Arc::new(Server::new(
        PrivateEngine::new(sym_db(), Policy::all_private(), 1.0).with_threads(1),
        ServerConfig {
            default_epsilon: 1.0,
            default_budget: f64::INFINITY,
            seed: Some(11),
            ..ServerConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve_thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener).expect("serve"))
    };
    let mut client = Client::connect(addr);
    // The client sends each burst in one segment, so any delay measured
    // is the server's.
    client.writer.set_nodelay(true).expect("client nodelay");
    let replay = |id: usize| format!(r#"{{"op":"release","query":"{TRIANGLE}","id":{id}}}"#);

    // Warm-up, one frame at a time: publishes the key and takes the
    // connection out of the kernel's quick-ACK start-up phase.
    let (_, first) = client.roundtrip(&replay(0));
    assert_ok(&first);
    for id in 1..20 {
        let (_, json) = client.roundtrip(&replay(id));
        assert_eq!(json.get("cached").and_then(Json::as_bool), Some(true));
    }

    const BURST: usize = 8;
    let mut burst_ms = Vec::new();
    for burst in 0..20 {
        let ids: Vec<usize> = (0..BURST).map(|i| 1000 * (burst + 1) + i).collect();
        let frames: String = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                if i % 2 == 0 {
                    format!("{}\n", replay(id))
                } else {
                    format!("{{\"op\":\"budget\",\"principal\":\"default\",\"id\":{id}}}\n")
                }
            })
            .collect();
        let start = std::time::Instant::now();
        client
            .writer
            .write_all(frames.as_bytes())
            .expect("write burst");
        for &id in &ids {
            let mut line = String::new();
            client.reader.read_line(&mut line).expect("read response");
            let json = Json::parse(line.trim_end()).expect("response parses");
            assert_ok(&json);
            assert_eq!(
                json.get("id").and_then(Json::as_i128),
                Some(id as i128),
                "responses come back in request order"
            );
        }
        burst_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    burst_ms.sort_by(f64::total_cmp);
    let median = burst_ms[burst_ms.len() / 2];
    assert!(
        median < 20.0,
        "median pipelined burst took {median:.1} ms (all: {burst_ms:?})"
    );

    client.roundtrip(r#"{"op":"shutdown"}"#);
    serve_thread.join().expect("serve exits");
}
