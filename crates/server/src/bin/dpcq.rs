//! `dpcq` — command-line private counting for conjunctive queries.
//!
//! ```text
//! # Private triangle count over a SNAP-format edge list:
//! dpcq --query "Q(*) :- Edge(x1,x2), Edge(x2,x3), Edge(x1,x3), \
//!               x1 != x2, x2 != x3, x1 != x3" \
//!      --edges ca-GrQc.txt --epsilon 1.0
//!
//! # Multi-relation CSV tables with a selective policy:
//! dpcq --query "Q(*) :- Visit(p,h,d), Staff(s,h), d < 50" \
//!      --table Visit=visits.csv --table Staff=staff.csv \
//!      --private Visit,Staff --method residual --seed 7
//!
//! # Serve a database over newline-delimited JSON TCP (durable state in
//! # ./state — budgets, mutations and cached releases survive kill -9):
//! dpcq serve --addr 127.0.0.1:4547 --edges ca-GrQc.txt --budget 3.0 \
//!      --data-dir ./state
//!
//! # Drive a running server (one request line, prints the response):
//! dpcq request --addr 127.0.0.1:4547 \
//!      --json '{"op":"release","query":"Q(*) :- Edge(x,y)","epsilon":1.0}'
//! ```
//!
//! One-shot flags: `--query <text>` (required), `--edges <path>` (loads a
//! symmetric `Edge` relation), `--table NAME=<csv path>` (repeatable;
//! integer CSV rows), `--private a,b` (default: all), `--epsilon <f>`
//! (default 1.0), `--method residual|elastic|global-laplace` (default
//! residual), `--seed <n>`, `--show-truth` (prints the exact count — for
//! debugging, not for publication!).

use dpcq::graph::io::read_edge_list_file;
use dpcq::prelude::*;
use dpcq_server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    ExitCode::FAILURE
}

const HELP: &str = "\
dpcq — differentially private conjunctive-query counting

USAGE:
  dpcq --query <text> (--edges <path> | --table NAME=<csv> ...) [options]
  dpcq serve --addr HOST:PORT (--edges <path> | --table NAME=<csv> ...) [options]
  dpcq request --addr HOST:PORT --json '<request object>'

ONE-SHOT OPTIONS:
  --query <text>        datalog-style query, e.g. \"Q(*) :- Edge(x,y), x != y\"
  --edges <path>        SNAP edge list loaded as a symmetric relation `Edge`
  --table NAME=<path>   CSV of integer rows loaded as relation NAME (repeatable)
  --private a,b         comma-separated private relations (default: all)
  --epsilon <float>     privacy budget per release (default 1.0)
  --method <name>       residual | elastic | global-laplace (default residual)
  --seed <int>          RNG seed (default: entropy)
  --show-truth          also print the exact count (debugging only)
  --help                this text

SERVE OPTIONS (newline-delimited JSON over TCP; see the dpcq_server docs):
  --addr HOST:PORT      listen address (default 127.0.0.1:4547)
  --edges/--table/--private   as above
  --epsilon <float>     default per-release ε for requests without one (1.0)
  --budget <float>      total ε per principal (default: unmetered)
  --threads <int>       worker threads per residual release
  --seed <int>          noise RNG seed (deterministic sessions; tests only)
  --data-dir <path>     durable state directory (WAL + snapshots); budgets,
                        databases and cached releases survive crashes and
                        restarts. Omit for a purely in-memory server.
  --max-inflight <int>  fresh releases evaluating at once (default 64);
                        overflow is shed with a retryable `overloaded` frame
                        before any budget moves. Cache replays always answer.
  --max-connections <int>  concurrent TCP connections (default 256); overflow
                        gets one `overloaded` frame and the socket closes
  --max-cost <int>      per-request ceiling on the pre-evaluation cost
                        estimate (classes x width x rows; default: unlimited)
  --deadline-ms <int>   default evaluation deadline per release; a timed-out
                        release refunds its ε in full (default: none)
  --retry-after-ms <int>  back-off hint in `overloaded` frames (default 100)
  --metrics-addr HOST:PORT  serve the telemetry registry as Prometheus text
                        on a sidecar port (timings, counts and ε totals
                        only — never query answers). Off by default.
  --slow-ms <int>       log releases slower than this to stderr with their
                        per-stage breakdown (default: off)

REQUEST OPTIONS:
  --addr HOST:PORT      server address (default 127.0.0.1:4547)
  --json <object>       one request frame, e.g. '{\"op\":\"stats\"}'
                        exit: 0 on ok:true, 2 on ok:false, 1 on transport error
  --insert-batch <rel>  build an insert_batch frame for <rel> from --tuples
  --remove-batch <rel>  build a remove_batch frame for <rel> from --tuples
  --tuples <array>      the batch tuples, e.g. '[[1,2],[3,4]]' (the batch
                        applies under one write lock, one WAL record, and one
                        incremental cache-maintenance pass)
  --trace               ask for a per-stage timing breakdown in the response
                        (adds \"trace\":true to the frame; release ops only)
  --retry <int>         extra attempts (default 0) on `overloaded` frames and
                        transport errors, with jittered exponential back-off
                        seeded by the server's retry_after_ms hint. Safe to
                        repeat: an overloaded frame means admission was refused
                        before any ε was reserved, and a release that did
                        commit replays from the cache at zero additional ε —
                        so a retried frame never double-spends.
";

/// `--key value` / `--switch` argument cracker shared by the subcommands.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Only listed flags are accepted: a typo in a privacy-critical flag
    /// (`--bugdet 3.0`) must be an error, never a silent fallback to the
    /// default.
    fn parse(
        argv: &[String],
        value_names: &[&str],
        switch_names: &[&str],
    ) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let Some(key) = flag.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{flag}`"));
            };
            if switch_names.contains(&key) {
                switches.push(key.to_string());
            } else if value_names.contains(&key) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{key} expects a value"))?;
                pairs.push((key.to_string(), value.clone()));
            } else {
                return Err(format!("unknown flag `--{key}`"));
            }
        }
        Ok(Flags { pairs, switches })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.pairs
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value `{v}`")),
        }
    }
}

/// Loads `--edges` / `--table` data (shared by one-shot and serve).
fn load_database(flags: &Flags) -> Result<Database, String> {
    let mut db = Database::new();
    if let Some(path) = flags.get("edges") {
        let g = read_edge_list_file(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        eprintln!(
            "loaded {path}: {} vertices, {} undirected edges",
            g.num_vertices(),
            g.num_edges()
        );
        db = g.to_database();
    }
    for spec in flags.get_all("table") {
        let (name, path) = spec
            .split_once('=')
            .ok_or("--table expects NAME=path.csv")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut rows = 0usize;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let row: Result<Vec<Value>, _> = line
                .split(',')
                .map(|c| c.trim().parse::<i64>().map(Value))
                .collect();
            match row {
                Ok(r) => {
                    db.insert_tuple(name, &r);
                    rows += 1;
                }
                Err(_) => return Err(format!("{path}: non-integer row `{line}`")),
            }
        }
        eprintln!("loaded {name} from {path}: {rows} rows");
    }
    if db.num_relations() == 0 {
        return Err("no data: pass --edges or --table".into());
    }
    Ok(db)
}

fn policy_from(flags: &Flags) -> Policy {
    match flags.get("private") {
        Some(spec) => Policy::private(
            spec.split(',')
                .map(|s| s.trim().to_string())
                .collect::<Vec<_>>(),
        ),
        None => Policy::all_private(),
    }
}

fn seed_from(flags: &Flags) -> Result<Option<u64>, String> {
    match flags.get("seed") {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad --seed value `{v}`")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match argv.first().map(String::as_str) {
        Some("serve") => serve_main(&argv[1..]),
        Some("request") => request_main(&argv[1..]),
        _ => oneshot_main(&argv),
    }
}

fn oneshot_main(argv: &[String]) -> ExitCode {
    let flags = match Flags::parse(
        argv,
        &[
            "query", "edges", "table", "private", "epsilon", "method", "seed",
        ],
        &["show-truth"],
    ) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let Some(query_text) = flags.get("query") else {
        return fail("--query is required");
    };
    let query = match parse_query(query_text) {
        Ok(q) => q,
        Err(e) => return fail(&format!("query does not parse: {e}")),
    };
    let db = match load_database(&flags) {
        Ok(db) => db,
        Err(e) => return fail(&e),
    };
    let epsilon = match flags.get_parsed("epsilon", 1.0f64) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let sens_method: SensitivityMethod = match flags.get("method").unwrap_or("residual").parse() {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    let seed = match seed_from(&flags) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };

    let engine = PrivateEngine::new(db, policy_from(&flags), epsilon);
    let mut rng = match seed {
        Some(s) => StdRng::seed_from_u64(s),
        None => StdRng::from_entropy(),
    };
    if flags.has("show-truth") {
        match engine.true_count(&query) {
            Ok(c) => eprintln!("true count (debug): {c}"),
            Err(e) => return fail(&format!("evaluation failed: {e}")),
        }
    }
    match engine.release_with(&query, sens_method, &mut rng) {
        Ok(release) => {
            println!("{release}");
            eprintln!(
                "method = {}, sensitivity = {:.3}, noise scale = {:.3}",
                sens_method.name(),
                release.sensitivity,
                release.scale
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("release failed: {e}")),
    }
}

fn serve_main(argv: &[String]) -> ExitCode {
    let flags = match Flags::parse(
        argv,
        &[
            "addr",
            "edges",
            "table",
            "private",
            "epsilon",
            "budget",
            "threads",
            "seed",
            "data-dir",
            "max-inflight",
            "max-connections",
            "max-cost",
            "deadline-ms",
            "retry-after-ms",
            "metrics-addr",
            "slow-ms",
        ],
        &[],
    ) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let db = match load_database(&flags) {
        Ok(db) => db,
        Err(e) => return fail(&e),
    };
    let default_epsilon = match flags.get_parsed("epsilon", 1.0f64) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let default_budget = match flags.get_parsed("budget", f64::INFINITY) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let seed = match seed_from(&flags) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let mut engine = PrivateEngine::new(db, policy_from(&flags), default_epsilon);
    match flags.get_parsed("threads", 0usize) {
        Ok(0) => {}
        Ok(t) => engine = engine.with_threads(t),
        Err(e) => return fail(&e),
    }

    let addr = flags.get("addr").unwrap_or("127.0.0.1:4547");
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => return fail(&format!("cannot bind {addr}: {e}")),
    };
    let bound = listener
        .local_addr()
        .map_or_else(|_| addr.to_string(), |a| a.to_string());
    let defaults = ServerConfig::default();
    let max_inflight_releases =
        match flags.get_parsed("max-inflight", defaults.max_inflight_releases) {
            Ok(v) => v,
            Err(e) => return fail(&e),
        };
    let max_connections = match flags.get_parsed("max-connections", defaults.max_connections) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let max_request_cost = match flags.get("max-cost") {
        None => None,
        Some(v) => match v.parse::<u128>() {
            Ok(c) => Some(c),
            Err(_) => return fail(&format!("bad --max-cost value `{v}`")),
        },
    };
    let default_deadline_ms = match flags.get("deadline-ms") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Some(ms),
            Err(_) => return fail(&format!("bad --deadline-ms value `{v}`")),
        },
    };
    let retry_after_ms = match flags.get_parsed("retry-after-ms", defaults.retry_after_ms) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let metrics_addr = flags.get("metrics-addr").map(str::to_string);
    let slow_ms = match flags.get("slow-ms") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Some(ms),
            Err(_) => return fail(&format!("bad --slow-ms value `{v}`")),
        },
    };
    let config = ServerConfig {
        default_epsilon,
        default_budget,
        seed,
        max_inflight_releases,
        max_connections,
        max_request_cost,
        default_deadline_ms,
        retry_after_ms,
        metrics_addr,
        slow_ms,
        ..defaults
    };
    let server = match flags.get("data-dir") {
        Some(dir) => match Server::recover(engine, config, std::path::Path::new(dir)) {
            Ok(s) => {
                eprintln!("dpcq durable state in {dir}");
                Arc::new(s)
            }
            Err(e) => return fail(&format!("cannot recover {dir}: {e}")),
        },
        None => Arc::new(Server::new(engine, config)),
    };
    eprintln!("dpcq serving on {bound} (ndjson; send {{\"op\":\"shutdown\"}} to stop)");
    match server.serve(listener) {
        Ok(()) => {
            eprintln!("dpcq server on {bound} shut down");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("serve failed: {e}")),
    }
}

/// One request attempt: a fresh connection, one frame out, one line back.
enum Attempt {
    /// A response frame arrived (ok or refused).
    Answered(String),
    /// No response: connect/write/read failed or the server hung up.
    Transport(String),
}

fn attempt_request(addr: &str, json: &str) -> Attempt {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return Attempt::Transport(format!("cannot connect to {addr}: {e}")),
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => return Attempt::Transport(format!("socket error: {e}")),
    });
    let mut writer = stream;
    if let Err(e) = writeln!(writer, "{}", json.trim()) {
        return Attempt::Transport(format!("write failed: {e}"));
    }
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Attempt::Transport("server closed the connection without answering".into()),
        Err(e) => Attempt::Transport(format!("read failed: {e}")),
        Ok(_) => Attempt::Answered(line.trim_end().to_string()),
    }
}

/// Why retrying is safe (the idempotency argument, also in the README):
/// an `overloaded` frame is sent *before* the server reserves any ε, so
/// a shed request provably moved no budget. A transport failure after
/// the frame was sent is ambiguous — the release may have committed —
/// but a committed release lives in the server's release cache keyed by
/// (query, method, ε, read-set stamp), so the retried identical frame
/// replays it bit-for-bit at zero additional ε. Either way the retry
/// cannot double-spend; at worst it burns one cache lookup.
fn request_main(argv: &[String]) -> ExitCode {
    let flags = match Flags::parse(
        argv,
        &[
            "addr",
            "json",
            "retry",
            "insert-batch",
            "remove-batch",
            "tuples",
        ],
        &["trace"],
    ) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    // `--insert-batch REL --tuples [[..],..]` (or `--remove-batch`)
    // builds the batch-mutation frame so callers don't hand-write JSON:
    // N tuples apply under one server write lock, one WAL record, and
    // one incremental cache-maintenance pass.
    let built;
    let json = match (
        flags.get("json"),
        flags.get("insert-batch"),
        flags.get("remove-batch"),
    ) {
        (Some(json), None, None) => json,
        (None, ins, rem) if ins.is_some() != rem.is_some() => {
            let (op, relation) = match ins {
                Some(r) => ("insert_batch", r),
                None => ("remove_batch", rem.unwrap_or_default()),
            };
            let Some(tuples) = flags.get("tuples") else {
                return fail("--tuples is required with --insert-batch/--remove-batch");
            };
            let parsed = match dpcq_wire::Json::parse(tuples) {
                Ok(t @ dpcq_wire::Json::Arr(_)) => t,
                _ => return fail("--tuples must be a JSON array of tuples, e.g. '[[1,2],[3,4]]'"),
            };
            built = dpcq_wire::Json::Obj(vec![
                ("op".to_string(), dpcq_wire::Json::Str(op.to_string())),
                (
                    "relation".to_string(),
                    dpcq_wire::Json::Str(relation.to_string()),
                ),
                ("tuples".to_string(), parsed),
            ])
            .render_compact();
            built.as_str()
        }
        _ => return fail(
            "exactly one of --json or --insert-batch/--remove-batch (with --tuples) is required",
        ),
    };
    // `--trace` injects `"trace":true` into the frame; the server echoes
    // a per-stage timing breakdown (post-processing-safe: timings
    // describe server work, never the released value).
    let json = if flags.has("trace") {
        match dpcq_wire::Json::parse(json) {
            Ok(dpcq_wire::Json::Obj(mut fields)) => {
                fields.retain(|(k, _)| k != "trace");
                fields.push(("trace".to_string(), dpcq_wire::Json::Bool(true)));
                dpcq_wire::Json::Obj(fields).render_compact()
            }
            _ => return fail("--trace requires --json to be a JSON object"),
        }
    } else {
        json.to_string()
    };
    let json = json.as_str();
    let retries = match flags.get_parsed("retry", 0u32) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let addr = flags.get("addr").unwrap_or("127.0.0.1:4547");
    let mut rng = StdRng::from_entropy();
    let mut last_transport_error = String::new();
    for attempt in 0..=retries {
        let (retryable, backoff_hint_ms) = match attempt_request(addr, json) {
            Attempt::Answered(line) => {
                let parsed = dpcq_wire::Json::parse(&line).ok();
                let overloaded = parsed
                    .as_ref()
                    .and_then(|p| p.get("overloaded"))
                    .and_then(dpcq_wire::Json::as_bool)
                    .unwrap_or(false);
                if !(overloaded && attempt < retries) {
                    println!("{line}");
                    // Exit 2 on a well-formed error response so shell
                    // pipelines can distinguish "request refused" from
                    // "transport broken".
                    let ok = parsed
                        .as_ref()
                        .and_then(|p| p.get("ok"))
                        .and_then(dpcq_wire::Json::as_bool)
                        .unwrap_or(false);
                    return if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(2)
                    };
                }
                let hint = parsed
                    .as_ref()
                    .and_then(|p| p.get("retry_after_ms"))
                    .and_then(dpcq_wire::Json::as_i128)
                    .and_then(|v| u64::try_from(v).ok())
                    .unwrap_or(100);
                (true, hint)
            }
            Attempt::Transport(e) => {
                last_transport_error = e;
                (attempt < retries, 100)
            }
        };
        if !retryable {
            break;
        }
        // Jittered exponential back-off: hint × 2^attempt, plus up to
        // half of itself in jitter so a flock of shed clients does not
        // return in lock-step and shed again.
        let base = backoff_hint_ms.saturating_mul(1u64 << attempt.min(16));
        let wait = base + rng.gen_range(0..=base / 2);
        eprintln!(
            "dpcq: attempt {} of {} backing off {wait} ms",
            attempt + 1,
            retries + 1
        );
        std::thread::sleep(std::time::Duration::from_millis(wait));
    }
    fail(&last_transport_error)
}
