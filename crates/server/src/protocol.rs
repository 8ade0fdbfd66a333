//! The newline-delimited JSON wire protocol.
//!
//! Each frame is one JSON object on one line (`\n`-terminated; interior
//! newlines are escaped by the JSON grammar). Every request may carry an
//! integer `"id"`, echoed verbatim in the response so clients can match
//! pipelined frames. Every response carries `"ok"`; failures are
//! `{"ok": false, "error": "..."}` and never change server state.
//!
//! Pipelining: a connection answers one response line per request line,
//! in request order, and sends each response as soon as it is ready (the
//! socket sets `TCP_NODELAY`; responses are never held back to be
//! coalesced). A client may keep many frames in flight and match the
//! answers by `id`.
//!
//! ## Requests
//!
//! ```text
//! {"op":"release","query":"Q(*) :- Edge(x,y)","principal":"alice",
//!  "method":"residual","epsilon":0.5,"id":1}
//! {"op":"batch","requests":[{...release...},{...release...}]}
//! {"op":"insert","relation":"Edge","tuple":[1,4]}
//! {"op":"remove","relation":"Edge","tuple":[1,4]}
//! {"op":"insert_batch","relation":"Edge","tuples":[[1,4],[4,1]]}
//! {"op":"remove_batch","relation":"Edge","tuples":[[1,4],[4,1]]}
//! {"op":"budget","principal":"alice"}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! `release` defaults: `principal` = `"default"`, `method` = `"residual"`
//! (any [`SensitivityMethod::name`], plus the `global` alias), `epsilon` =
//! the server's configured default (finite and at least
//! [`MIN_EPSILON`](crate::MIN_EPSILON)). `batch` accepts only `release`
//! sub-requests (mutations order-depend; a batch is one unordered group).
//! `release` may also carry `"deadline_ms"` (non-negative integer): a
//! per-request evaluation deadline, overriding the server default — and
//! `"trace": true` to request a per-stage timing breakdown in the
//! response (timings are post-processing of the release decision, never
//! of the data; see `docs/INVARIANTS.md` § Telemetry privacy).
//!
//! `insert_batch`/`remove_batch` apply N same-direction tuples to one
//! relation as **one** mutation: one engine write lock, one durability
//! record, and one incremental cache-maintenance pass (see README
//! § Serving). The response reports how many tuples were *effective*
//! (`"changed"` is a count; duplicates within the batch and no-op
//! tuples are skipped), and the generation still advances once per
//! effective tuple so read-set stamps match the equivalent single-op
//! sequence. `insert`/`remove` are the single-tuple forms of the same
//! operation — a batch of one, run through the same path — whose
//! response carries a boolean `"changed"` instead of a count.
//!
//! ## Responses
//!
//! ```text
//! {"id":1,"ok":true,"op":"release","value":12.4,"epsilon":0.5,
//!  "sensitivity":3.1,"scale":31.2,"expected_error":31.2,
//!  "method":"residual","cached":false,"generation":0,"remaining":1.5}
//! {"ok":true,"op":"insert","changed":true,"generation":3}
//! {"ok":true,"op":"insert_batch","changed":2,"generation":5}
//! {"ok":true,"op":"budget","principal":"alice","budget":2.0,
//!  "spent":0.5,"remaining":1.5}
//! {"ok":true,"op":"stats","generation":3,
//!  "relation_versions":{"Edge":3,"Tag":0},"release_cache_entries":2,
//!  "release_cache_hits":5,"release_cache_misses":7,
//!  "cache_scoped_hits":4,"cache_scoped_misses":1,"principals":2,
//!  "durability":{"wal_records":12,"wal_bytes":980,
//!                "last_snapshot_generation":2,"recovered":true}}
//! {"ok":true,"op":"batch","responses":[{...},{...}]}
//! {"ok":true,"op":"shutdown"}
//! {"ok":false,"error":"server overloaded; retry after 100 ms",
//!  "overloaded":true,"retry_after_ms":100}
//! ```
//!
//! The `"overloaded"` frame is the retryable shed response: the server
//! refused admission **before reserving any ε**, so a client may resend
//! the identical frame after `retry_after_ms` with no budget consequence
//! (see `README.md` § Overload & failure semantics). `stats.overload`
//! carries the shed/timeout counters and is always present.
//! `stats.durability` appears only on servers running with `--data-dir`
//! (in-memory servers omit the field, keeping the legacy frame shape).
//! `remaining`/`budget` render as `null` when infinite (unmetered).
//! `stats.generation` is the derived total of `relation_versions` (one
//! tick per effective mutation); `cache_scoped_{hits,misses}` count, over
//! all mutations so far, the release-cache entries retained vs. dropped
//! by read-set-scoped invalidation (see the `cache` module — scoped hits
//! are replayable answers a wholesale purge would have destroyed).
//! `stats.requests_total` (per-op counts), `stats.errors_total`, and
//! `stats.uptime_ms` are sourced from the telemetry registry and match
//! the `metrics` op / Prometheus endpoint exactly; with telemetry
//! compiled out they report zeros. The `metrics` op returns the whole
//! registry snapshot as one JSON object (the same numbers the
//! `--metrics-addr` endpoint renders as Prometheus text).

use crate::durability::DurabilityStats;
use dpcq::noise::Release;
use dpcq::SensitivityMethod;
use dpcq_wire::Json;

/// Overload-control counters, rendered as the always-present nested
/// `"overload"` object of a stats frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Requests refused at admission because the in-flight or
    /// server-wide cost gate was full (capacity shedding).
    pub shed_requests: u64,
    /// Releases aborted at an evaluation checkpoint by their deadline
    /// (ε refunded; see invariant O2).
    pub deadline_timeouts: u64,
    /// Requests refused because their pre-evaluation cost estimate
    /// exceeded the per-request ceiling.
    pub cost_rejected: u64,
    /// Releases currently being evaluated (point-in-time gauge).
    pub inflight: u64,
}

/// One private-release request.
#[derive(Clone, Debug, PartialEq)]
pub struct ReleaseRequest {
    /// Client correlation id, echoed in the response.
    pub id: Option<i64>,
    /// The budget ledger this release draws from.
    pub principal: String,
    /// The conjunctive query, in the datalog-style surface syntax.
    pub query: String,
    /// Which sensitivity calibrates the noise.
    pub method: SensitivityMethod,
    /// Per-release ε (`None` = the server's configured default).
    pub epsilon: Option<f64>,
    /// Evaluation deadline in milliseconds (`None` = the server's
    /// configured default, which may itself be "none"). `0` means the
    /// deadline has already passed — useful for deterministic timeout
    /// tests, and harmless in production since no ε moves on a timeout.
    pub deadline_ms: Option<u64>,
    /// Whether the response should carry a per-stage timing breakdown
    /// (`"trace"` field). Timings describe the server's work, not the
    /// data: emitting them alongside a released value is post-processing
    /// (invariant P3).
    pub trace: bool,
}

/// A parsed protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Release one noisy count.
    Release(ReleaseRequest),
    /// Release several counts as one group (evaluated under a single
    /// database snapshot, grouped by query shape for store sharing).
    Batch {
        /// Client correlation id.
        id: Option<i64>,
        /// The grouped release requests.
        requests: Vec<ReleaseRequest>,
    },
    /// Insert a tuple (mutation; bumps the generation if effective).
    Insert {
        /// Client correlation id.
        id: Option<i64>,
        /// Target relation (created at the tuple's arity if absent).
        relation: String,
        /// The tuple values.
        tuple: Vec<i64>,
    },
    /// Remove a tuple (mutation; bumps the generation if effective).
    Remove {
        /// Client correlation id.
        id: Option<i64>,
        /// Target relation.
        relation: String,
        /// The tuple values.
        tuple: Vec<i64>,
    },
    /// Insert or remove a batch of tuples into one relation as a single
    /// mutation (one write lock, one durability record, one incremental
    /// cache-maintenance pass).
    MutateBatch {
        /// Client correlation id.
        id: Option<i64>,
        /// Target relation.
        relation: String,
        /// The tuples (same direction for the whole batch).
        tuples: Vec<Vec<i64>>,
        /// `true` = insert, `false` = remove.
        insert: bool,
    },
    /// Read a principal's ledger.
    Budget {
        /// Client correlation id.
        id: Option<i64>,
        /// The principal to look up.
        principal: String,
    },
    /// Read server counters.
    Stats {
        /// Client correlation id.
        id: Option<i64>,
    },
    /// Read the full telemetry-registry snapshot.
    Metrics {
        /// Client correlation id.
        id: Option<i64>,
    },
    /// Stop accepting connections and return from `serve`.
    Shutdown {
        /// Client correlation id.
        id: Option<i64>,
    },
}

fn get_str(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn get_id(obj: &Json) -> Result<Option<i64>, String> {
    match obj.get("id") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Int(i)) => i64::try_from(*i)
            .map(Some)
            .map_err(|_| "id out of range".into()),
        Some(_) => Err("`id` must be an integer".into()),
    }
}

fn parse_release(obj: &Json) -> Result<ReleaseRequest, String> {
    let method = match obj.get("method") {
        None | Some(Json::Null) => SensitivityMethod::Residual,
        Some(m) => m
            .as_str()
            .ok_or_else(|| "`method` must be a string".to_string())?
            .parse()?,
    };
    let epsilon = match obj.get("epsilon") {
        None | Some(Json::Null) => None,
        Some(e) => Some(
            e.as_f64()
                .ok_or_else(|| "`epsilon` must be a number".to_string())?,
        ),
    };
    let principal = match obj.get("principal") {
        None | Some(Json::Null) => "default".to_string(),
        Some(p) => p
            .as_str()
            .ok_or_else(|| "`principal` must be a string".to_string())?
            .to_string(),
    };
    let deadline_ms = match obj.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(Json::Int(i)) => {
            Some(u64::try_from(*i).map_err(|_| "`deadline_ms` must be a non-negative integer")?)
        }
        Some(_) => return Err("`deadline_ms` must be a non-negative integer".into()),
    };
    let trace = match obj.get("trace") {
        None | Some(Json::Null) => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("`trace` must be a boolean".into()),
    };
    Ok(ReleaseRequest {
        id: get_id(obj)?,
        principal,
        query: get_str(obj, "query")?,
        method,
        epsilon,
        deadline_ms,
        trace,
    })
}

fn tuple_values(items: &[Json]) -> Result<Vec<i64>, String> {
    if items.is_empty() {
        return Err("`tuple` must be non-empty".into());
    }
    items
        .iter()
        .map(|v| match v {
            Json::Int(i) => i64::try_from(*i).map_err(|_| "tuple value out of i64 range".into()),
            _ => Err("`tuple` values must be integers".to_string()),
        })
        .collect()
}

fn parse_tuple(obj: &Json) -> Result<Vec<i64>, String> {
    let items = obj
        .get("tuple")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing or non-array `tuple`".to_string())?;
    tuple_values(items)
}

fn parse_tuples(obj: &Json) -> Result<Vec<Vec<i64>>, String> {
    let items = obj
        .get("tuples")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing or non-array `tuples`".to_string())?;
    if items.is_empty() {
        return Err("`tuples` must be non-empty".into());
    }
    items
        .iter()
        .map(|row| {
            tuple_values(
                row.as_array()
                    .ok_or_else(|| "`tuples` entries must be arrays".to_string())?,
            )
        })
        .collect()
}

impl Request {
    /// Parses one protocol frame.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let obj = Json::parse(line)?;
        Request::from_json(&obj)
    }

    /// Parses a request from its JSON object form.
    pub fn from_json(obj: &Json) -> Result<Request, String> {
        let op = get_str(obj, "op")?;
        let id = get_id(obj)?;
        match op.as_str() {
            "release" => Ok(Request::Release(parse_release(obj)?)),
            "batch" => {
                let items = obj
                    .get("requests")
                    .and_then(Json::as_array)
                    .ok_or_else(|| "missing or non-array `requests`".to_string())?;
                let requests = items
                    .iter()
                    .map(|item| {
                        if item
                            .get("op")
                            .is_some_and(|o| o.as_str() != Some("release"))
                        {
                            return Err("batch entries must be release requests".to_string());
                        }
                        parse_release(item)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Batch { id, requests })
            }
            "insert" => Ok(Request::Insert {
                id,
                relation: get_str(obj, "relation")?,
                tuple: parse_tuple(obj)?,
            }),
            "remove" => Ok(Request::Remove {
                id,
                relation: get_str(obj, "relation")?,
                tuple: parse_tuple(obj)?,
            }),
            // `batch_insert`/`batch_remove` are accepted as aliases.
            "insert_batch" | "batch_insert" | "remove_batch" | "batch_remove" => {
                Ok(Request::MutateBatch {
                    id,
                    relation: get_str(obj, "relation")?,
                    tuples: parse_tuples(obj)?,
                    insert: op.contains("insert"),
                })
            }
            "budget" => Ok(Request::Budget {
                id,
                principal: get_str(obj, "principal")?,
            }),
            "stats" => Ok(Request::Stats { id }),
            "metrics" => Ok(Request::Metrics { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// A protocol response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A released (or cache-replayed) noisy count.
    Release {
        /// Echoed request id.
        id: Option<i64>,
        /// The method that calibrated the noise.
        method: SensitivityMethod,
        /// The released answer.
        release: Release,
        /// Whether the answer was replayed from the release cache
        /// (budget-free; see `cache` module docs).
        cached: bool,
        /// The database generation the answer was computed against.
        generation: u64,
        /// The principal's remaining ε (`None` = unmetered).
        remaining: Option<f64>,
        /// Per-stage timing breakdown (`Some` only when the request asked
        /// for one with `"trace": true`): `(stage name, µs)` in execution
        /// order. Durations are server work measurements — publishing
        /// them next to a released value is post-processing (invariant
        /// P3). A cache replay traces only the stages it ran (admission
        /// and evaluation are bypassed).
        trace: Option<Vec<(&'static str, u64)>>,
    },
    /// Outcome of a mutation.
    Updated {
        /// Echoed request id.
        id: Option<i64>,
        /// `"insert"` or `"remove"`.
        op: &'static str,
        /// Whether the database actually changed.
        changed: bool,
        /// The generation after the mutation.
        generation: u64,
    },
    /// Outcome of a batch mutation.
    UpdatedBatch {
        /// Echoed request id.
        id: Option<i64>,
        /// `"insert_batch"` or `"remove_batch"`.
        op: &'static str,
        /// How many tuples were effective (deduplicated; no-ops skipped).
        changed: usize,
        /// The generation after the mutation.
        generation: u64,
    },
    /// A principal's ledger.
    Budget {
        /// Echoed request id.
        id: Option<i64>,
        /// The principal.
        principal: String,
        /// Total budget (`None` = infinite).
        budget: Option<f64>,
        /// ε committed so far.
        spent: f64,
        /// ε remaining (`None` = infinite).
        remaining: Option<f64>,
    },
    /// Server counters.
    Stats {
        /// Echoed request id.
        id: Option<i64>,
        /// Current database generation (the derived total of
        /// `relation_versions`).
        generation: u64,
        /// Per-relation mutation counts since the server started, in
        /// name order.
        relation_versions: Vec<(String, u64)>,
        /// Live release-cache entries.
        release_cache_entries: usize,
        /// Release-cache hits so far.
        release_cache_hits: u64,
        /// Release-cache misses so far.
        release_cache_misses: u64,
        /// Release-cache entries retained by scoped invalidation passes
        /// (answers a wholesale purge would have dropped).
        cache_scoped_hits: u64,
        /// Release-cache entries dropped by scoped invalidation passes.
        cache_scoped_misses: u64,
        /// Principals with a budget ledger.
        principals: usize,
        /// Engine-global incremental-maintenance counters, rendered as a
        /// nested `"delta"` object: `(applied, fallback, rows)` —
        /// in-place semi-naive cache patches, wholesale drops of dirty
        /// shapes, and total signed rows merged. Monotone across cache
        /// retirement (unlike per-shape family stats).
        delta: (u64, u64, u64),
        /// Requests handled so far, by op name — from the telemetry
        /// registry (zeros with telemetry compiled out).
        requests_total: Vec<(&'static str, u64)>,
        /// Error responses produced so far (same source).
        errors_total: u64,
        /// Milliseconds since the registry was initialized (server
        /// construction).
        uptime_ms: u64,
        /// Durability counters (`None` when the server runs in-memory).
        /// Rendered as a nested `"durability"` object; the field is
        /// omitted entirely for in-memory servers so existing clients
        /// see an unchanged frame.
        durability: Option<DurabilityStats>,
        /// Overload-control counters, rendered as a nested `"overload"`
        /// object (always present — a server with no gates configured
        /// reports zeros).
        overload: OverloadStats,
    },
    /// Responses of a batch, in request order.
    Batch {
        /// Echoed request id.
        id: Option<i64>,
        /// Per-entry responses (release or error), in request order.
        responses: Vec<Response>,
    },
    /// The telemetry-registry snapshot, as one JSON object.
    Metrics {
        /// Echoed request id.
        id: Option<i64>,
        /// The registry rendered to JSON (counters, gauges, ε total,
        /// per-stage histograms) — the same numbers the Prometheus
        /// endpoint exposes as text.
        metrics: Json,
    },
    /// Shutdown acknowledged.
    Shutdown {
        /// Echoed request id.
        id: Option<i64>,
    },
    /// The server refused admission (capacity or cost gate). No state
    /// changed and **no ε was reserved**; the identical request may be
    /// retried after `retry_after_ms` (invariant O1 — shedding happens
    /// strictly before budget motion, so a retry is idempotent with
    /// respect to the ledger).
    Overloaded {
        /// Echoed request id.
        id: Option<i64>,
        /// Suggested client back-off, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request failed; no state changed.
    Error {
        /// Echoed request id.
        id: Option<i64>,
        /// Human-readable cause.
        error: String,
    },
}

/// `null` for non-finite (unmetered) budget figures.
fn opt_num(v: Option<f64>) -> Json {
    match v {
        Some(x) if x.is_finite() => Json::Num(x),
        _ => Json::Null,
    }
}

fn with_id(id: Option<i64>, mut fields: Vec<(String, Json)>) -> Json {
    if let Some(id) = id {
        fields.insert(0, ("id".to_string(), Json::Int(id as i128)));
    }
    Json::Obj(fields)
}

fn field(k: &str, v: Json) -> (String, Json) {
    (k.to_string(), v)
}

impl Response {
    /// The response's JSON object form.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Release {
                id,
                method,
                release,
                cached,
                generation,
                remaining,
                trace,
            } => {
                let mut fields = vec![
                    field("ok", Json::Bool(true)),
                    field("op", Json::Str("release".into())),
                    // The only value the wire ever carries is a `Released`
                    // (noise already applied); see `noise::taint`.
                    field("value", Json::Num(release.value.get())),
                    field("epsilon", Json::Num(release.epsilon)),
                    field("sensitivity", Json::Num(release.sensitivity)),
                    field("scale", Json::Num(release.scale)),
                    field("expected_error", Json::Num(release.expected_error)),
                    field("method", Json::Str(method.name().into())),
                    field("cached", Json::Bool(*cached)),
                    field("generation", Json::Int(*generation as i128)),
                    field("remaining", opt_num(*remaining)),
                ];
                if let Some(stages) = trace {
                    fields.push(field(
                        "trace",
                        Json::Obj(
                            stages
                                .iter()
                                .map(|&(name, us)| (name.to_string(), Json::Int(us as i128)))
                                .collect(),
                        ),
                    ));
                }
                with_id(*id, fields)
            }
            Response::Updated {
                id,
                op,
                changed,
                generation,
            } => with_id(
                *id,
                vec![
                    field("ok", Json::Bool(true)),
                    field("op", Json::Str((*op).into())),
                    field("changed", Json::Bool(*changed)),
                    field("generation", Json::Int(*generation as i128)),
                ],
            ),
            Response::UpdatedBatch {
                id,
                op,
                changed,
                generation,
            } => with_id(
                *id,
                vec![
                    field("ok", Json::Bool(true)),
                    field("op", Json::Str((*op).into())),
                    field("changed", Json::Int(*changed as i128)),
                    field("generation", Json::Int(*generation as i128)),
                ],
            ),
            Response::Budget {
                id,
                principal,
                budget,
                spent,
                remaining,
            } => with_id(
                *id,
                vec![
                    field("ok", Json::Bool(true)),
                    field("op", Json::Str("budget".into())),
                    field("principal", Json::Str(principal.clone())),
                    field("budget", opt_num(*budget)),
                    field("spent", Json::Num(*spent)),
                    field("remaining", opt_num(*remaining)),
                ],
            ),
            Response::Stats {
                id,
                generation,
                relation_versions,
                release_cache_entries,
                release_cache_hits,
                release_cache_misses,
                cache_scoped_hits,
                cache_scoped_misses,
                principals,
                delta,
                requests_total,
                errors_total,
                uptime_ms,
                durability,
                overload,
            } => {
                let mut fields = vec![
                    field("ok", Json::Bool(true)),
                    field("op", Json::Str("stats".into())),
                    field("generation", Json::Int(*generation as i128)),
                    field(
                        "relation_versions",
                        Json::Obj(
                            relation_versions
                                .iter()
                                .map(|(n, v)| (n.clone(), Json::Int(*v as i128)))
                                .collect(),
                        ),
                    ),
                    field(
                        "release_cache_entries",
                        Json::Int(*release_cache_entries as i128),
                    ),
                    field("release_cache_hits", Json::Int(*release_cache_hits as i128)),
                    field(
                        "release_cache_misses",
                        Json::Int(*release_cache_misses as i128),
                    ),
                    field("cache_scoped_hits", Json::Int(*cache_scoped_hits as i128)),
                    field(
                        "cache_scoped_misses",
                        Json::Int(*cache_scoped_misses as i128),
                    ),
                    field("principals", Json::Int(*principals as i128)),
                    field(
                        "delta",
                        Json::Obj(vec![
                            field("applied", Json::Int(delta.0 as i128)),
                            field("fallback", Json::Int(delta.1 as i128)),
                            field("rows", Json::Int(delta.2 as i128)),
                        ]),
                    ),
                    field(
                        "requests_total",
                        Json::Obj(
                            requests_total
                                .iter()
                                .map(|&(op, n)| (op.to_string(), Json::Int(n as i128)))
                                .collect(),
                        ),
                    ),
                    field("errors_total", Json::Int(*errors_total as i128)),
                    field("uptime_ms", Json::Int(*uptime_ms as i128)),
                    field(
                        "overload",
                        Json::Obj(vec![
                            field("shed_requests", Json::Int(overload.shed_requests as i128)),
                            field(
                                "deadline_timeouts",
                                Json::Int(overload.deadline_timeouts as i128),
                            ),
                            field("cost_rejected", Json::Int(overload.cost_rejected as i128)),
                            field("inflight", Json::Int(overload.inflight as i128)),
                        ]),
                    ),
                ];
                if let Some(d) = durability {
                    fields.push(field(
                        "durability",
                        Json::Obj(vec![
                            field("wal_records", Json::Int(d.wal_records as i128)),
                            field("wal_bytes", Json::Int(d.wal_bytes as i128)),
                            field(
                                "last_snapshot_generation",
                                Json::Int(d.last_snapshot_generation as i128),
                            ),
                            field("recovered", Json::Bool(d.recovered)),
                        ]),
                    ));
                }
                with_id(*id, fields)
            }
            Response::Batch { id, responses } => with_id(
                *id,
                vec![
                    field("ok", Json::Bool(true)),
                    field("op", Json::Str("batch".into())),
                    field(
                        "responses",
                        Json::Arr(responses.iter().map(Response::to_json).collect()),
                    ),
                ],
            ),
            Response::Metrics { id, metrics } => with_id(
                *id,
                vec![
                    field("ok", Json::Bool(true)),
                    field("op", Json::Str("metrics".into())),
                    field("metrics", metrics.clone()),
                ],
            ),
            Response::Shutdown { id } => with_id(
                *id,
                vec![
                    field("ok", Json::Bool(true)),
                    field("op", Json::Str("shutdown".into())),
                ],
            ),
            Response::Overloaded { id, retry_after_ms } => with_id(
                *id,
                vec![
                    field("ok", Json::Bool(false)),
                    field(
                        "error",
                        Json::Str(format!(
                            "server overloaded; retry after {retry_after_ms} ms"
                        )),
                    ),
                    field("overloaded", Json::Bool(true)),
                    field("retry_after_ms", Json::Int(*retry_after_ms as i128)),
                ],
            ),
            Response::Error { id, error } => with_id(
                *id,
                vec![
                    field("ok", Json::Bool(false)),
                    field("error", Json::Str(error.clone())),
                ],
            ),
        }
    }

    /// The response as one protocol frame (no trailing newline).
    pub fn render_line(&self) -> String {
        self.to_json().render_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcq::noise::{RawAnswer, SmoothCauchyMechanism};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parses_release_with_defaults() {
        let r = Request::parse_line(r#"{"op":"release","query":"Q(*) :- Edge(x,y)"}"#).unwrap();
        match r {
            Request::Release(r) => {
                assert_eq!(r.id, None);
                assert_eq!(r.principal, "default");
                assert_eq!(r.method, SensitivityMethod::Residual);
                assert_eq!(r.epsilon, None);
                assert_eq!(r.deadline_ms, None);
                assert!(!r.trace);
                assert_eq!(r.query, "Q(*) :- Edge(x,y)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_release_with_everything() {
        let r = Request::parse_line(
            r#"{"op":"release","query":"q","principal":"alice","method":"elastic","epsilon":0.5,"deadline_ms":250,"trace":true,"id":9}"#,
        )
        .unwrap();
        match r {
            Request::Release(r) => {
                assert_eq!(r.id, Some(9));
                assert_eq!(r.principal, "alice");
                assert_eq!(r.method, SensitivityMethod::Elastic);
                assert_eq!(r.epsilon, Some(0.5));
                assert_eq!(r.deadline_ms, Some(250));
                assert!(r.trace);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_mutations_and_admin_ops() {
        assert_eq!(
            Request::parse_line(r#"{"op":"insert","relation":"Edge","tuple":[1,4]}"#).unwrap(),
            Request::Insert {
                id: None,
                relation: "Edge".into(),
                tuple: vec![1, 4]
            }
        );
        assert_eq!(
            Request::parse_line(r#"{"op":"remove","relation":"Edge","tuple":[-1,2],"id":3}"#)
                .unwrap(),
            Request::Remove {
                id: Some(3),
                relation: "Edge".into(),
                tuple: vec![-1, 2]
            }
        );
        assert_eq!(
            Request::parse_line(r#"{"op":"budget","principal":"alice"}"#).unwrap(),
            Request::Budget {
                id: None,
                principal: "alice".into()
            }
        );
        assert_eq!(
            Request::parse_line(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats { id: None }
        );
        assert_eq!(
            Request::parse_line(r#"{"op":"metrics","id":8}"#).unwrap(),
            Request::Metrics { id: Some(8) }
        );
        assert_eq!(
            Request::parse_line(r#"{"op":"shutdown","id":1}"#).unwrap(),
            Request::Shutdown { id: Some(1) }
        );
    }

    #[test]
    fn parses_batch_mutations_and_aliases() {
        let expected = Request::MutateBatch {
            id: Some(2),
            relation: "Edge".into(),
            tuples: vec![vec![1, 4], vec![4, 1]],
            insert: true,
        };
        for op in ["insert_batch", "batch_insert"] {
            let frame =
                format!(r#"{{"op":"{op}","relation":"Edge","tuples":[[1,4],[4,1]],"id":2}}"#);
            assert_eq!(Request::parse_line(&frame).unwrap(), expected);
        }
        for op in ["remove_batch", "batch_remove"] {
            let frame = format!(r#"{{"op":"{op}","relation":"Edge","tuples":[[7,8]]}}"#);
            assert_eq!(
                Request::parse_line(&frame).unwrap(),
                Request::MutateBatch {
                    id: None,
                    relation: "Edge".into(),
                    tuples: vec![vec![7, 8]],
                    insert: false,
                }
            );
        }
        for bad in [
            r#"{"op":"insert_batch","relation":"R"}"#,
            r#"{"op":"insert_batch","relation":"R","tuples":[]}"#,
            r#"{"op":"insert_batch","relation":"R","tuples":[1,2]}"#,
            r#"{"op":"insert_batch","relation":"R","tuples":[[]]}"#,
            r#"{"op":"insert_batch","relation":"R","tuples":[[1.5]]}"#,
            r#"{"op":"insert_batch","tuples":[[1]]}"#,
        ] {
            assert!(Request::parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn batch_mutation_response_renders_the_effective_count() {
        let resp = Response::UpdatedBatch {
            id: Some(5),
            op: "insert_batch",
            changed: 2,
            generation: 7,
        };
        let parsed = Json::parse(&resp.render_line()).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("op").and_then(Json::as_str),
            Some("insert_batch")
        );
        assert_eq!(parsed.get("changed").and_then(Json::as_i128), Some(2));
        assert_eq!(parsed.get("generation").and_then(Json::as_i128), Some(7));
    }

    #[test]
    fn stats_response_round_trips_the_delta_section() {
        let resp = Response::Stats {
            id: None,
            generation: 0,
            relation_versions: vec![],
            release_cache_entries: 0,
            release_cache_hits: 0,
            release_cache_misses: 0,
            cache_scoped_hits: 0,
            cache_scoped_misses: 0,
            principals: 0,
            delta: (4, 1, 96),
            requests_total: vec![],
            errors_total: 0,
            uptime_ms: 0,
            durability: None,
            overload: OverloadStats::default(),
        };
        let parsed = Json::parse(&resp.render_line()).unwrap();
        let delta = parsed.get("delta").expect("delta section");
        assert_eq!(delta.get("applied").and_then(Json::as_i128), Some(4));
        assert_eq!(delta.get("fallback").and_then(Json::as_i128), Some(1));
        assert_eq!(delta.get("rows").and_then(Json::as_i128), Some(96));
        assert_eq!(
            delta.entries().map(<[(String, Json)]>::len),
            Some(3),
            "exactly the documented delta counters"
        );
    }

    #[test]
    fn parses_batches_of_releases_only() {
        let r = Request::parse_line(
            r#"{"op":"batch","id":5,"requests":[{"query":"a"},{"op":"release","query":"b"}]}"#,
        )
        .unwrap();
        match r {
            Request::Batch { id, requests } => {
                assert_eq!(id, Some(5));
                assert_eq!(requests.len(), 2);
                assert_eq!(requests[1].query, "b");
            }
            other => panic!("{other:?}"),
        }
        let err = Request::parse_line(
            r#"{"op":"batch","requests":[{"op":"insert","relation":"R","tuple":[1]}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("release"), "{err}");
    }

    #[test]
    fn rejects_malformed_frames() {
        for bad in [
            "",
            "not json",
            "[]",
            r#"{"op":"dance"}"#,
            r#"{"op":"release"}"#,
            r#"{"op":"release","query":7}"#,
            r#"{"op":"release","query":"q","method":"sideways"}"#,
            r#"{"op":"release","query":"q","epsilon":"lots"}"#,
            r#"{"op":"release","query":"q","id":"seven"}"#,
            r#"{"op":"release","query":"q","deadline_ms":-5}"#,
            r#"{"op":"release","query":"q","deadline_ms":"fast"}"#,
            r#"{"op":"release","query":"q","deadline_ms":1.5}"#,
            r#"{"op":"release","query":"q","trace":"yes"}"#,
            r#"{"op":"release","query":"q","trace":1}"#,
            r#"{"op":"insert","relation":"R","tuple":[]}"#,
            r#"{"op":"insert","relation":"R","tuple":[1.5]}"#,
            r#"{"op":"insert","tuple":[1]}"#,
            r#"{"op":"budget"}"#,
        ] {
            assert!(Request::parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn responses_render_as_single_line_json() {
        // `Release` values are only mintable through a mechanism (the
        // taint discipline), so the fixture draws a real one.
        let mut rng = StdRng::seed_from_u64(5);
        let rel = SmoothCauchyMechanism::new(1.0).release(RawAnswer::new(12), 3.0, &mut rng);
        assert_eq!(rel.scale, 30.0);
        let resp = Response::Release {
            id: Some(2),
            method: SensitivityMethod::Residual,
            release: rel,
            cached: true,
            generation: 4,
            remaining: None,
            trace: None,
        };
        let line = resp.render_line();
        assert!(!line.contains('\n'));
        let parsed = dpcq_wire::Json::parse(&line).unwrap();
        assert_eq!(parsed.get("id").and_then(Json::as_i128), Some(2));
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("value").and_then(Json::as_f64),
            Some(rel.value.get())
        );
        assert_eq!(parsed.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("generation").and_then(Json::as_i128), Some(4));
        assert_eq!(parsed.get("remaining"), Some(&Json::Null));
        assert_eq!(parsed.get("trace"), None, "untraced frames stay unchanged");

        let err = Response::Error {
            id: None,
            error: "nope".into(),
        };
        let parsed = dpcq_wire::Json::parse(&err.render_line()).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("error").and_then(Json::as_str), Some("nope"));
        assert_eq!(parsed.get("id"), None);
    }

    #[test]
    fn stats_response_round_trips_version_vector_and_scoped_counters() {
        let resp = Response::Stats {
            id: Some(6),
            generation: 3,
            relation_versions: vec![("Edge".to_string(), 3), ("Tag".to_string(), 0)],
            release_cache_entries: 2,
            release_cache_hits: 5,
            release_cache_misses: 7,
            cache_scoped_hits: 4,
            cache_scoped_misses: 1,
            principals: 2,
            delta: (0, 0, 0),
            requests_total: vec![("release", 12), ("stats", 1)],
            errors_total: 3,
            uptime_ms: 4500,
            durability: None,
            overload: OverloadStats::default(),
        };
        let line = resp.render_line();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("durability"),
            None,
            "in-memory servers keep the legacy frame shape"
        );
        assert_eq!(parsed.get("generation").and_then(Json::as_i128), Some(3));
        let versions = parsed.get("relation_versions").unwrap();
        assert_eq!(versions.get("Edge").and_then(Json::as_i128), Some(3));
        assert_eq!(versions.get("Tag").and_then(Json::as_i128), Some(0));
        assert_eq!(
            versions.entries().map(<[(String, Json)]>::len),
            Some(2),
            "exactly the reported relations"
        );
        assert_eq!(
            parsed.get("cache_scoped_hits").and_then(Json::as_i128),
            Some(4)
        );
        assert_eq!(
            parsed.get("cache_scoped_misses").and_then(Json::as_i128),
            Some(1)
        );
        // Generation stays the derived total of the version vector.
        let total: i128 = versions
            .entries()
            .unwrap()
            .iter()
            .filter_map(|(_, v)| v.as_i128())
            .sum();
        assert_eq!(
            parsed.get("generation").and_then(Json::as_i128),
            Some(total)
        );
    }

    #[test]
    fn stats_response_round_trips_the_durability_section() {
        let resp = Response::Stats {
            id: None,
            generation: 0,
            relation_versions: vec![],
            release_cache_entries: 0,
            release_cache_hits: 0,
            release_cache_misses: 0,
            cache_scoped_hits: 0,
            cache_scoped_misses: 0,
            principals: 0,
            delta: (0, 0, 0),
            requests_total: vec![],
            errors_total: 0,
            uptime_ms: 0,
            overload: OverloadStats::default(),
            durability: Some(DurabilityStats {
                wal_records: 12,
                wal_bytes: 980,
                last_snapshot_generation: 2,
                recovered: true,
            }),
        };
        let line = resp.render_line();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        let durability = parsed.get("durability").expect("durability section");
        assert_eq!(
            durability.get("wal_records").and_then(Json::as_i128),
            Some(12)
        );
        assert_eq!(
            durability.get("wal_bytes").and_then(Json::as_i128),
            Some(980)
        );
        assert_eq!(
            durability
                .get("last_snapshot_generation")
                .and_then(Json::as_i128),
            Some(2)
        );
        assert_eq!(
            durability.get("recovered").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            durability.entries().map(<[(String, Json)]>::len),
            Some(4),
            "exactly the documented durability counters"
        );
    }

    #[test]
    fn overloaded_response_is_retryable_and_machine_readable() {
        let resp = Response::Overloaded {
            id: Some(7),
            retry_after_ms: 150,
        };
        let line = resp.render_line();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("id").and_then(Json::as_i128), Some(7));
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("overloaded").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("retry_after_ms").and_then(Json::as_i128),
            Some(150)
        );
        let err = parsed.get("error").and_then(Json::as_str).unwrap();
        assert!(err.contains("overloaded"), "{err}");
        assert!(err.contains("150"), "{err}");
    }

    #[test]
    fn stats_response_round_trips_the_overload_section() {
        let resp = Response::Stats {
            id: None,
            generation: 0,
            relation_versions: vec![],
            release_cache_entries: 0,
            release_cache_hits: 0,
            release_cache_misses: 0,
            cache_scoped_hits: 0,
            cache_scoped_misses: 0,
            principals: 0,
            delta: (0, 0, 0),
            requests_total: vec![],
            errors_total: 0,
            uptime_ms: 0,
            durability: None,
            overload: OverloadStats {
                shed_requests: 9,
                deadline_timeouts: 2,
                cost_rejected: 5,
                inflight: 1,
            },
        };
        let parsed = Json::parse(&resp.render_line()).unwrap();
        let overload = parsed.get("overload").expect("overload section");
        assert_eq!(
            overload.get("shed_requests").and_then(Json::as_i128),
            Some(9)
        );
        assert_eq!(
            overload.get("deadline_timeouts").and_then(Json::as_i128),
            Some(2)
        );
        assert_eq!(
            overload.get("cost_rejected").and_then(Json::as_i128),
            Some(5)
        );
        assert_eq!(overload.get("inflight").and_then(Json::as_i128), Some(1));
        assert_eq!(
            overload.entries().map(<[(String, Json)]>::len),
            Some(4),
            "exactly the documented overload counters"
        );
    }

    #[test]
    fn stats_response_round_trips_the_telemetry_fields() {
        let resp = Response::Stats {
            id: None,
            generation: 0,
            relation_versions: vec![],
            release_cache_entries: 0,
            release_cache_hits: 0,
            release_cache_misses: 0,
            cache_scoped_hits: 0,
            cache_scoped_misses: 0,
            principals: 0,
            delta: (0, 0, 0),
            requests_total: vec![("release", 12), ("insert", 2), ("stats", 1)],
            errors_total: 3,
            uptime_ms: 4500,
            durability: None,
            overload: OverloadStats::default(),
        };
        let parsed = Json::parse(&resp.render_line()).unwrap();
        let requests = parsed.get("requests_total").expect("requests_total");
        assert_eq!(requests.get("release").and_then(Json::as_i128), Some(12));
        assert_eq!(requests.get("insert").and_then(Json::as_i128), Some(2));
        assert_eq!(requests.get("stats").and_then(Json::as_i128), Some(1));
        assert_eq!(
            requests.entries().map(<[(String, Json)]>::len),
            Some(3),
            "exactly the reported ops"
        );
        assert_eq!(parsed.get("errors_total").and_then(Json::as_i128), Some(3));
        assert_eq!(parsed.get("uptime_ms").and_then(Json::as_i128), Some(4500));
    }

    #[test]
    fn traced_release_renders_stage_breakdown_in_order() {
        let mut rng = StdRng::seed_from_u64(5);
        let rel = SmoothCauchyMechanism::new(1.0).release(RawAnswer::new(12), 3.0, &mut rng);
        let resp = Response::Release {
            id: Some(3),
            method: SensitivityMethod::Residual,
            release: rel,
            cached: false,
            generation: 0,
            remaining: None,
            trace: Some(vec![("admission", 2), ("reserve", 1), ("prepare", 950)]),
        };
        let parsed = Json::parse(&resp.render_line()).unwrap();
        let trace = parsed.get("trace").expect("trace section");
        assert_eq!(trace.get("admission").and_then(Json::as_i128), Some(2));
        assert_eq!(trace.get("prepare").and_then(Json::as_i128), Some(950));
        let names: Vec<&str> = trace
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            ["admission", "reserve", "prepare"],
            "execution order preserved"
        );
    }

    #[test]
    fn metrics_response_wraps_the_registry_object() {
        let resp = Response::Metrics {
            id: Some(11),
            metrics: Json::Obj(vec![("errors_total".to_string(), Json::Int(0))]),
        };
        let parsed = Json::parse(&resp.render_line()).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("op").and_then(Json::as_str), Some("metrics"));
        assert_eq!(parsed.get("id").and_then(Json::as_i128), Some(11));
        let metrics = parsed.get("metrics").expect("metrics object");
        assert_eq!(metrics.get("errors_total").and_then(Json::as_i128), Some(0));
    }

    #[test]
    fn batch_response_nests() {
        let resp = Response::Batch {
            id: Some(1),
            responses: vec![Response::Error {
                id: Some(2),
                error: "x".into(),
            }],
        };
        let parsed = dpcq_wire::Json::parse(&resp.render_line()).unwrap();
        let inner = parsed.get("responses").and_then(Json::as_array).unwrap();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].get("ok").and_then(Json::as_bool), Some(false));
    }
}
