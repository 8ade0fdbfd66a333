//! Socket-level serving benchmark for `dpcq serve`.
//!
//! ```text
//! servebench --workload <replay_pipelined|fresh_analysts|durable_writes>
//!            --seed <n> --seconds <s> --trace <0|1>
//!            --server-bin <path to the release dpcq binary> [--root <repo>]
//! ```
//!
//! Each run generates its workload's instance and request stream from
//! `--seed`, spawns `dpcq serve` on them (CSV tables in, ndjson frames
//! over one TCP connection), checks every answer and prints its metrics.
//! With `--trace 0` the last stdout line holds the end-to-end metrics;
//! with `--trace 1` the same socket run is followed by an in-process
//! replay of the identical stream that times calls into each layer's
//! public functions, and the last line holds the per-layer metrics. The
//! line before it is a report: host and build, per-class latencies, and
//! the request class each percentile falls in.

mod client;
mod stats;
mod traced;
mod workload;

use client::{Conn, ServerArgs, ServerProcess};
use dpcq_wire::Json;
use stats::{median, quantile};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Class, Op, Plan, Step, Workload};

/// Live entries at which `dpcq serve`'s release cache empties itself
/// (`MAX_ENTRIES` in `crates/server/src/cache.rs`).
const RELEASE_CACHE_ENTRIES: usize = 4096;

/// Server spawns per run (`setup_s` is their median): at least
/// `MIN_SETUP_REPS`, more while their total stays under
/// `SETUP_BUDGET_S`, at most `MAX_SETUP_REPS`.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 9;
const SETUP_BUDGET_S: f64 = 3.0;

/// The end-to-end metrics `BENCHMARK.json` gates, which every workload
/// reports in its result line; the others go to the report line only.
const GATED: [&str; 4] = [
    "setup_s",
    "throughput_ops_s",
    "server_cpu_us_per_op",
    "server_peak_rss_mb",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = get("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "bad --seconds")?;
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}`")),
    };
    let server_bin = PathBuf::from(get("--server-bin").ok_or("--server-bin is required")?);
    let root = PathBuf::from(get("--root").unwrap_or("."));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        server_bin,
        root,
    })
}

/// One timed-phase request as the client saw it.
pub struct Sample {
    pub class: Class,
    /// Response time since the start of the timed phase, in seconds.
    pub done_s: f64,
    /// Send to full response, in microseconds.
    pub latency_us: f64,
    /// Whether the response passed every check.
    pub ok: bool,
    /// `cached` of a release response (`None` for mutations).
    pub cached: Option<bool>,
    /// The released value (`None` for mutations).
    pub value: Option<f64>,
}

/// What the benchmark knows the server must answer: the value first
/// published under each still-valid key, and ε spent per principal.
#[derive(Default)]
struct Model {
    published: HashMap<(String, &'static str, u64), f64>,
    /// Distinct keys published so far (see `RELEASE_CACHE_ENTRIES`).
    keys_published: usize,
    /// Repeats the server answered fresh after its cache could have
    /// evicted them.
    repeats_refreshed: usize,
    ledger: BTreeMap<String, f64>,
    /// `(step index, released value)` of every fresh release, in order.
    fresh_values: Vec<(usize, f64)>,
}

impl Model {
    /// Checks one response against the model and folds it in.
    fn absorb(&mut self, index: usize, step: &Step, resp: &Json) -> Result<Option<bool>, String> {
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            let error = resp.get("error").and_then(Json::as_str).unwrap_or("?");
            return Err(format!("{} failed: {error}", step.class.name()));
        }
        match &step.op {
            Op::Mutate { tuples, .. } => {
                let changed = resp.get("changed").and_then(Json::as_i128);
                if changed != Some(tuples.len() as i128) {
                    return Err(format!(
                        "mutation changed {changed:?}, model expects {}",
                        tuples.len()
                    ));
                }
                self.published.retain(|(q, _, _), _| !q.contains("Edge("));
                Ok(None)
            }
            Op::Release {
                principal,
                query,
                method,
                epsilon,
            } => {
                let cached = resp
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or("release frame without `cached`")?;
                let value = resp
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("release frame without `value`")?;
                let key = (query.clone(), *method, epsilon.to_bits());
                // The server may evict its whole release cache once it
                // holds `RELEASE_CACHE_ENTRIES` answers; after that a
                // published key can legitimately be answered (and paid
                // for) afresh.
                let may_evict = self.keys_published >= RELEASE_CACHE_ENTRIES;
                match (cached, self.published.get(&key)) {
                    (true, Some(&first)) if first.to_bits() == value.to_bits() => {}
                    (true, Some(&first)) => {
                        return Err(format!("replay returned {value}, first published {first}"))
                    }
                    (true, None) => return Err(format!("cached answer for unpublished {key:?}")),
                    (false, Some(_)) if !may_evict => {
                        return Err(format!("fresh answer for still-published {key:?}"))
                    }
                    (false, previous) => {
                        if previous.is_some() {
                            self.repeats_refreshed += 1;
                        } else {
                            self.keys_published += 1;
                        }
                        self.published.insert(key, value);
                        *self.ledger.entry(principal.clone()).or_insert(0.0) += *epsilon;
                        self.fresh_values.push((index, value));
                    }
                }
                let expected = step.expect_cached();
                // A repeat answered fresh is accepted once eviction is possible.
                let evicted = may_evict && !cached;
                if expected.is_some_and(|e| e != cached) && !evicted {
                    return Err(format!(
                        "{} expected cached={expected:?}, got {cached}",
                        step.class.name()
                    ));
                }
                Ok(Some(cached))
            }
        }
    }
}

/// Everything the untraced socket run measured.
pub struct SocketRun {
    setup_s: Vec<f64>,
    startup_ms: Vec<f64>,
    /// Warm-up steps followed by timed steps, as sent to the last server.
    pub steps: Vec<Step>,
    pub setup_len: usize,
    pub samples: Vec<Sample>,
    wall_s: f64,
    cpu_ns: u64,
    cpu_source: &'static str,
    rss_mb: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    rel_errors: Vec<f64>,
    server_obs: bool,
    recover_checked: usize,
    repeats_refreshed: usize,
    settle_ms: f64,
    /// Share of all CPU time the hypervisor stole during the timed phase.
    steal_share: f64,
}

fn ok_frame(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Spawns the server and sends the warm-up, returning the live server,
/// its connection, `(startup_ms, setup_s)` and the warm-up responses.
fn set_up(
    args: &ServerArgs,
    setup: &[Step],
) -> Result<(ServerProcess, Conn, f64, f64, Vec<Json>), String> {
    let server = ServerProcess::spawn(args)?;
    let mut conn = Conn::open(&server.addr)?;
    let stats = conn.call(r#"{"op":"stats"}"#)?;
    if !ok_frame(&stats) {
        return Err("stats failed during start-up".into());
    }
    let startup_ms = server.spawned.elapsed().as_secs_f64() * 1e3;
    let mut responses = Vec::with_capacity(setup.len());
    for (i, step) in setup.iter().enumerate() {
        responses.push(conn.call(&step.frame(i as u64))?);
    }
    let setup_s = server.spawned.elapsed().as_secs_f64();
    Ok((server, conn, startup_ms, setup_s, responses))
}

fn shutdown(mut conn: Conn, server: ServerProcess) {
    let _ = conn.call(r#"{"op":"shutdown"}"#);
    drop(conn);
    server.wait_or_kill(Duration::from_secs(10));
}

/// Waits until the server has used under 1 ms of CPU in 100 ms (at most
/// 10 s); returns the time waited.
fn settle(pid: u32) -> Result<f64, String> {
    let start = Instant::now();
    let mut last = stats::process_cpu_ns(pid)
        .ok_or("cannot read server CPU time")?
        .0;
    while start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(100));
        let now = stats::process_cpu_ns(pid)
            .ok_or("cannot read server CPU time")?
            .0;
        if now - last < 1_000_000 {
            break;
        }
        last = now;
    }
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

fn socket_run(a: &Args, plan: &mut Plan, work: &Path) -> Result<SocketRun, String> {
    let mut tables = Vec::new();
    for t in &plan.tables {
        let path = work.join(format!("{}.csv", t.name));
        client::write_csv(&path, &t.rows)?;
        tables.push((t.name.to_string(), path));
    }
    let mut server_args = ServerArgs {
        bin: a.server_bin.clone(),
        tables,
        seed: a.seed,
        budget: plan.budget,
        data_dir: None,
    };
    let mut setup_s = Vec::new();
    let mut startup_ms = Vec::new();
    let mut errors = Vec::new();
    let mut first_values: Option<Vec<Option<f64>>> = None;
    let mut rep = 0;
    let (server, mut conn, responses) = loop {
        if plan.durable {
            server_args.data_dir = Some(work.join(format!("data{rep}")));
        }
        let (server, conn, start_ms, secs, responses) = set_up(&server_args, &plan.setup)?;
        startup_ms.push(start_ms);
        setup_s.push(secs);
        rep += 1;
        let values: Vec<Option<f64>> = responses
            .iter()
            .map(|r| r.get("value").and_then(Json::as_f64))
            .collect();
        if values.iter().any(Option::is_none) {
            errors.push(format!(
                "warm-up failed: {:?}",
                responses.iter().find(|r| !ok_frame(r))
            ));
        }
        // One seed, one connection: every spawn must publish the same
        // warm-up answers bit for bit.
        match &first_values {
            None => first_values = Some(values),
            Some(first) if *first != values => {
                errors.push("warm-up answers differ between identical spawns".into())
            }
            Some(_) => {}
        }
        let total: f64 = setup_s.iter().sum();
        let more = rep < MIN_SETUP_REPS
            || (rep < MAX_SETUP_REPS && total + total / rep as f64 <= SETUP_BUDGET_S);
        if more {
            shutdown(conn, server);
        } else {
            break (server, conn, responses);
        }
    };
    let pid = server.pid();

    let mut model = Model::default();
    let mut steps: Vec<Step> = plan.setup.clone();
    for (i, (step, resp)) in plan.setup.iter().zip(&responses).enumerate() {
        if let Err(e) = model.absorb(i, step, resp) {
            errors.push(format!("warm-up {i}: {e}"));
        }
    }
    let setup_len = steps.len();

    // Work the server finishes after its last warm-up response (freeing
    // cold-build intermediates) must not land in the timed phase.
    let settle_ms = settle(pid)?;

    // Timed phase: bursts of `window` frames written back to back, then
    // their `window` responses read and matched by id.
    let (cpu0, cpu_source) = stats::process_cpu_ns(pid).ok_or("cannot read server CPU time")?;
    let steal0 = stats::cpu_steal_jiffies();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(a.seconds);
    let mut samples = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut burst = Vec::with_capacity(plan.window);
    while Instant::now() < deadline {
        burst.clear();
        for _ in 0..plan.window {
            let step = plan.stream.next_step();
            let index = steps.len();
            let frame = step.frame(index as u64);
            steps.push(step);
            let sent = Instant::now();
            conn.send(&frame)?;
            burst.push((index, sent));
        }
        for &(index, sent) in &burst {
            let resp = conn.recv()?;
            let latency_us = sent.elapsed().as_secs_f64() * 1e6;
            attempted += 1;
            if resp.get("id").and_then(Json::as_i128) != Some(index as i128) {
                return Err(format!("response out of order: wanted id {index}"));
            }
            let step = &steps[index];
            let outcome = model.absorb(index, step, &resp);
            if let Err(e) = &outcome {
                failed += 1;
                if errors.len() < 20 {
                    errors.push(format!("request {index}: {e}"));
                }
            }
            samples.push(Sample {
                class: step.class,
                done_s: start.elapsed().as_secs_f64(),
                latency_us,
                ok: outcome.is_ok(),
                cached: outcome.ok().flatten(),
                value: resp.get("value").and_then(Json::as_f64),
            });
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let steal_share = match (steal0, stats::cpu_steal_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let (cpu1, _) = stats::process_cpu_ns(pid).ok_or("cannot read server CPU time")?;
    let rss_mb = stats::peak_rss_mb(pid).ok_or("cannot read server VmHWM")?;

    let stats_frame = conn.call(r#"{"op":"stats"}"#)?;
    let server_obs = stats_frame
        .get("requests_total")
        .and_then(Json::entries)
        .is_some_and(|e| e.iter().any(|(_, n)| n.as_i128().unwrap_or(0) > 0));

    let mut recover_checked = 0;
    if plan.durable {
        // Crash and restart on the same data directory: spent ε must match
        // the model's ledger and every still-valid key must replay free.
        drop(conn);
        server.kill();
        let (server, mut conn, _, _, _) = set_up(&server_args, &[])?;
        match recovery_check(&mut conn, &model) {
            Ok(n) => recover_checked = n,
            Err(e) => errors.push(format!("after restart: {e}")),
        }
        shutdown(conn, server);
    } else {
        shutdown(conn, server);
    }

    let rel_errors = match relative_errors(plan, &steps, &model) {
        Ok(r) => r,
        Err(e) => {
            errors.push(format!("exact counts: {e}"));
            Vec::new()
        }
    };
    Ok(SocketRun {
        setup_s,
        startup_ms,
        steps,
        setup_len,
        samples,
        wall_s,
        cpu_ns: cpu1.saturating_sub(cpu0),
        cpu_source,
        rss_mb,
        attempted,
        failed,
        errors,
        rel_errors,
        server_obs,
        recover_checked,
        repeats_refreshed: model.repeats_refreshed,
        settle_ms,
        steal_share,
    })
}

/// After a crash: ledgers equal the model's, and every published key
/// replays bit-identically at zero ε. Returns the keys checked.
fn recovery_check(conn: &mut Conn, model: &Model) -> Result<usize, String> {
    for (principal, spent) in &model.ledger {
        let frame = Json::obj([
            ("op", Json::Str("budget".into())),
            ("principal", Json::Str(principal.clone())),
        ])
        .render_compact();
        let resp = conn.call(&frame)?;
        let got = resp.get("spent").and_then(Json::as_f64);
        if got.map(f64::to_bits) != Some(spent.to_bits()) {
            return Err(format!("{principal} spent {got:?}, ledger says {spent}"));
        }
    }
    let mut keys: Vec<_> = model.published.iter().collect();
    keys.sort_by(|a, b| a.0.cmp(b.0));
    let principal = model.ledger.keys().next().cloned().unwrap_or_default();
    for (i, ((query, method, eps_bits), value)) in keys.iter().enumerate() {
        let step = Step {
            class: Class::Repeat,
            op: Op::Release {
                principal: principal.clone(),
                query: query.clone(),
                method,
                epsilon: f64::from_bits(*eps_bits),
            },
        };
        let resp = conn.call(&step.frame(i as u64))?;
        let cached = resp.get("cached").and_then(Json::as_bool);
        let got = resp.get("value").and_then(Json::as_f64);
        if cached != Some(true) || got.map(f64::to_bits) != Some(value.to_bits()) {
            return Err(format!(
                "key {query} did not replay: {}",
                resp.render_compact()
            ));
        }
    }
    for (principal, spent) in &model.ledger {
        let frame = Json::obj([
            ("op", Json::Str("budget".into())),
            ("principal", Json::Str(principal.clone())),
        ])
        .render_compact();
        let got = conn.call(&frame)?.get("spent").and_then(Json::as_f64);
        if got.map(f64::to_bits) != Some(spent.to_bits()) {
            return Err(format!("replays after restart charged {principal}"));
        }
    }
    Ok(keys.len())
}

/// `|released − exact| / max(exact, 1)` for every fresh release, with
/// exact counts from the benchmark's own copy of the instance (mutations
/// replayed in stream order): Figure-2 shapes by the combinatorial
/// counters of `dpcq::graph::patterns`, other queries by a from-scratch
/// `Evaluator`.
fn relative_errors(plan: &Plan, steps: &[Step], model: &Model) -> Result<Vec<f64>, String> {
    use dpcq::graph::patterns::{self, cq_factor};
    use dpcq::graph::Graph;
    use dpcq::prelude::*;
    let mut edges: HashMap<&str, std::collections::BTreeSet<(i64, i64)>> = HashMap::new();
    let mut shapes: HashMap<String, (&str, usize)> = HashMap::new();
    for t in &plan.tables {
        edges.insert(t.name, t.rows.iter().map(|r| (r[0], r[1])).collect());
        for (i, q) in workload::figure2(t.name).into_iter().enumerate() {
            shapes.insert(q, (t.name, i));
        }
    }
    let fresh: HashMap<usize, f64> = model.fresh_values.iter().copied().collect();
    let mut exact: HashMap<String, f64> = HashMap::new();
    let mut db: Option<Database> = None;
    let mut out = Vec::with_capacity(fresh.len());
    for (i, step) in steps.iter().enumerate() {
        match &step.op {
            Op::Mutate { insert, tuples } => {
                db = None;
                let rel = edges.get_mut("Edge").ok_or("no Edge table")?;
                for t in tuples {
                    if *insert {
                        rel.insert((t[0], t[1]));
                    } else {
                        rel.remove(&(t[0], t[1]));
                    }
                }
                exact.clear();
            }
            Op::Release { query, .. } => {
                let Some(&value) = fresh.get(&i) else {
                    continue;
                };
                let count = match exact.get(query) {
                    Some(&c) => c,
                    None => {
                        let c = match shapes.get(query) {
                            Some(&(rel, shape)) => {
                                let rows = &edges[rel];
                                let n = rows.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0);
                                let g = Graph::from_edges(
                                    n as usize,
                                    rows.iter()
                                        .filter(|&&(u, v)| u < v)
                                        .map(|&(u, v)| (u as u32, v as u32)),
                                );
                                (match shape {
                                    0 => cq_factor::TRIANGLE * patterns::count_triangles(&g),
                                    1 => cq_factor::THREE_STAR * patterns::count_three_stars(&g),
                                    2 => cq_factor::RECTANGLE * patterns::count_rectangles(&g),
                                    _ => {
                                        cq_factor::TWO_TRIANGLE * patterns::count_two_triangles(&g)
                                    }
                                }) as f64
                            }
                            None => {
                                let db = db.get_or_insert_with(|| {
                                    let mut db = Database::new();
                                    for (name, rows) in &edges {
                                        for &(u, v) in rows {
                                            db.insert_tuple(name, &[Value(u), Value(v)]);
                                        }
                                    }
                                    db
                                });
                                let q = parse_query(query).map_err(|e| e.to_string())?;
                                dpcq::eval::Evaluator::new(&q, db)
                                    .and_then(|ev| ev.count())
                                    .map_err(|e| e.to_string())?
                                    as f64
                            }
                        };
                        exact.insert(query.clone(), c);
                        c
                    }
                };
                out.push((value - count).abs() / count.max(1.0));
            }
        }
    }
    Ok(out)
}

fn latencies(samples: &[Sample], pick: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| pick(s))
        .map(|s| s.latency_us)
        .collect()
}

fn is_replay(s: &Sample) -> bool {
    s.ok && s.cached == Some(true)
}

fn is_fresh(s: &Sample) -> bool {
    s.ok && s.cached == Some(false)
}

fn is_mutation(s: &Sample) -> bool {
    s.ok && s.class == Class::Mutation
}

/// Where percentile `q` of a pool falls. Classes whose median latencies
/// lie within 3x of each other form one tier; tiers are ordered by
/// latency and each spans its share of the pool. Reported: the class of
/// the sample at the percentile's rank, its tier's span, and the margin
/// (in pool share) from `q` to the nearer edge of that span. A small
/// margin means a small change in the class mix moves the percentile into
/// another tier, and its value by the gap between the tiers.
fn attribute(samples: &[&Sample], q: f64) -> Json {
    if samples.is_empty() {
        return Json::Null;
    }
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by_class.entry(s.class).or_default().push(s.latency_us);
    }
    let mut classes: Vec<(Class, f64, f64)> = by_class
        .iter()
        .map(|(c, v)| (*c, median(v), v.len() as f64 / samples.len() as f64))
        .collect();
    classes.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut tiers: Vec<(Vec<Class>, f64)> = Vec::new();
    let mut last_median = f64::INFINITY;
    for (c, m, share) in classes {
        match tiers.last_mut() {
            Some((members, total)) if m <= 3.0 * last_median => {
                members.push(c);
                *total += share;
            }
            _ => tiers.push((vec![c], share)),
        }
        last_median = m;
    }
    let mut sorted: Vec<&Sample> = samples.to_vec();
    sorted.sort_by(|a, b| a.latency_us.total_cmp(&b.latency_us));
    let at = sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    let mut lo = 0.0;
    for (members, share) in &tiers {
        if members.contains(&at.class) {
            let names: Vec<Json> = members.iter().map(|c| Json::Str(c.name().into())).collect();
            return Json::obj([
                ("class", Json::Str(at.class.name().into())),
                ("tier", Json::Arr(names)),
                ("share_from", Json::Num(lo)),
                ("share_to", Json::Num(lo + share)),
                ("margin", Json::Num((q - lo).min(lo + share - q))),
            ]);
        }
        lo += share;
    }
    Json::Null
}

fn class_table(samples: &[Sample]) -> Json {
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by_class.entry(s.class).or_default().push(s.latency_us);
    }
    Json::Obj(
        by_class
            .iter()
            .map(|(c, v)| {
                (
                    c.name().to_string(),
                    Json::obj([
                        ("n", Json::Int(v.len() as i128)),
                        ("share", Json::Num(v.len() as f64 / samples.len() as f64)),
                        ("p50_us", Json::Num(median(v))),
                        ("p90_us", Json::Num(quantile(v, 0.9))),
                    ]),
                )
            })
            .collect(),
    )
}

/// Every end-to-end metric the run measured, `(name, unit, value,
/// sample count)`; `None` where the workload has no such request.
fn end_to_end(run: &SocketRun) -> Vec<(&'static str, &'static str, Option<f64>, usize)> {
    let ok = run.samples.iter().filter(|s| s.ok).count();
    let replay = latencies(&run.samples, is_replay);
    let fresh = latencies(&run.samples, is_fresh);
    let mutation = latencies(&run.samples, is_mutation);
    let opt = |v: &[f64], q: f64, scale: f64| (!v.is_empty()).then(|| quantile(v, q) * scale);
    let n = run.samples.len();
    vec![
        (
            "setup_s",
            "s",
            Some(median(&run.setup_s)),
            run.setup_s.len(),
        ),
        ("throughput_ops_s", "ops/s", Some(ok as f64 / run.wall_s), n),
        (
            "release_replay_p50_us",
            "us",
            opt(&replay, 0.5, 1.0),
            replay.len(),
        ),
        (
            "release_replay_p90_us",
            "us",
            opt(&replay, 0.9, 1.0),
            replay.len(),
        ),
        (
            "release_fresh_p50_ms",
            "ms",
            opt(&fresh, 0.5, 1e-3),
            fresh.len(),
        ),
        (
            "release_fresh_p90_ms",
            "ms",
            opt(&fresh, 0.9, 1e-3),
            fresh.len(),
        ),
        (
            "mutation_p50_ms",
            "ms",
            opt(&mutation, 0.5, 1e-3),
            mutation.len(),
        ),
        (
            "mutation_p90_ms",
            "ms",
            opt(&mutation, 0.9, 1e-3),
            mutation.len(),
        ),
        (
            "server_cpu_us_per_op",
            "us",
            Some(run.cpu_ns as f64 / 1e3 / n.max(1) as f64),
            n,
        ),
        ("server_peak_rss_mb", "MB", Some(run.rss_mb), 1),
        (
            "rel_error_p50",
            "ratio",
            (!run.rel_errors.is_empty()).then(|| median(&run.rel_errors)),
            run.rel_errors.len(),
        ),
    ]
}

fn report(
    a: &Args,
    plan: &Plan,
    run: &SocketRun,
    e2e: &[(&str, &str, Option<f64>, usize)],
) -> Json {
    type Pick = fn(&Sample) -> bool;
    let pools: [(&str, Pick); 3] = [
        ("release_replay", is_replay),
        ("release_fresh", is_fresh),
        ("mutation", is_mutation),
    ];
    let mut attribution = Vec::new();
    for (name, pick) in pools {
        let pool: Vec<&Sample> = run.samples.iter().filter(|s| pick(s)).collect();
        if pool.is_empty() {
            continue;
        }
        for (tag, q) in [("p50", 0.5), ("p90", 0.9)] {
            attribution.push((format!("{name}_{tag}"), attribute(&pool, q)));
        }
    }
    Json::obj([
        ("workload", Json::Str(a.workload.name().into())),
        (
            "host",
            stats::host_description(&a.root, a.seed, run.server_obs, run.cpu_source),
        ),
        (
            "end_to_end",
            Json::Obj(
                e2e.iter()
                    .filter_map(|(name, unit, v, n)| {
                        v.map(|v| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(v)),
                                    ("unit", Json::Str(unit.to_string())),
                                    ("samples", Json::Int(*n as i128)),
                                ]),
                            )
                        })
                    })
                    .collect(),
            ),
        ),
        (
            "instance_rows",
            Json::Obj(
                plan.tables
                    .iter()
                    .map(|t| (t.name.to_string(), Json::Int(t.rows.len() as i128)))
                    .collect(),
            ),
        ),
        ("settle_ms", Json::Num(run.settle_ms)),
        ("steal_share", Json::Num(run.steal_share)),
        (
            "ops_per_second",
            Json::Arr({
                let mut per = vec![0i128; run.wall_s.ceil() as usize];
                for s in &run.samples {
                    let last = per.len() - 1;
                    per[(s.done_s as usize).min(last)] += 1;
                }
                per.into_iter().map(Json::Int).collect()
            }),
        ),
        (
            "setup_s_each",
            Json::Arr(run.setup_s.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("classes", class_table(&run.samples)),
        ("percentile_classes", Json::Obj(attribution)),
        ("attempted", Json::Int(i128::from(run.attempted))),
        ("failed", Json::Int(i128::from(run.failed))),
        (
            "recovered_keys_replayed",
            Json::Int(run.recover_checked as i128),
        ),
        (
            "repeats_refreshed_after_eviction",
            Json::Int(run.repeats_refreshed as i128),
        ),
        (
            "errors",
            Json::Arr(run.errors.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

fn run(a: &Args, work: &Path) -> Result<(), String> {
    let mut plan = workload::plan(a.workload, a.seed);
    let run = socket_run(a, &mut plan, work)?;
    let e2e = end_to_end(&run);
    let mut rep = report(a, &plan, &run, &e2e);
    let mut correct = run.errors.is_empty() && run.failed == 0;
    let metrics = if a.trace {
        let traced = traced::replay(&plan, &run, a.seed, work)?;
        if !traced.errors.is_empty() {
            correct = false;
        }
        if let Json::Obj(fields) = &mut rep {
            fields.push(("traced".into(), traced.report));
            fields.push((
                "traced_errors".into(),
                Json::Arr(traced.errors.iter().map(|e| Json::Str(e.clone())).collect()),
            ));
        }
        let mut m: Vec<(String, Json)> = traced
            .metrics
            .iter()
            .map(|(name, unit, v)| (name.to_string(), metric(*v, unit)))
            .collect();
        m.push((
            "server.startup_ms".into(),
            metric(median(&run.startup_ms), "ms"),
        ));
        m
    } else {
        e2e.iter()
            .filter(|(name, ..)| GATED.contains(name))
            .map(|(name, unit, v, _)| {
                let v = v.expect("gated metrics are measured on every workload");
                (name.to_string(), metric(v, unit))
            })
            .collect()
    };
    println!("{}", rep.render_compact());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(i128::from(run.attempted.max(1)))),
        ("failed", Json::Int(i128::from(run.failed))),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render_compact());
    Ok(())
}

fn main() -> std::process::ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let work =
        a.root
            .join(".bench_work")
            .join(format!("{}-{}", a.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("servebench: cannot create {}: {e}", work.display());
        return std::process::ExitCode::FAILURE;
    }
    let outcome = run(&a, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only when no other run is using it.
    let _ = std::fs::remove_dir(a.root.join(".bench_work"));
    match outcome {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
