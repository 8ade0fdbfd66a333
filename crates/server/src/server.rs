//! The serving front-end: request handling, concurrency, and the TCP
//! accept loop.
//!
//! ## Concurrency model
//!
//! The [`PrivateEngine`] sits behind an `RwLock`. Releases take the read
//! lock — many evaluate concurrently, and all of them share the engine's
//! per-query `T`-family stores — while mutations take the write lock,
//! bump the touched relation's version, and purge exactly the release-
//! cache entries whose read-set stamp mentions that relation (see the
//! `cache` module). Holding the read lock across an entire release pins
//! the version vector: an answer is always computed against, and cached
//! under, one consistent database state, and the mutation path holds the
//! write lock across both the engine mutation and the cache purge so no
//! release can slip a stale answer in between.
//!
//! Budget is accounted *around* evaluation (reserve → evaluate →
//! commit/refund; see the `budget` module): a racing pair of requests
//! can never jointly overspend, and a failed evaluation refunds in full.
//! Cache hits never touch the ledger — replaying a published answer is
//! post-processing (see the `cache` module).
//!
//! Noise comes from one seeded RNG behind a mutex, taken only for the
//! sampling instants. A fixed seed makes a single-connection session
//! fully deterministic (the integration tests and the CI smoke test rely
//! on this); concurrent sessions interleave their draws arbitrarily but
//! each draw is still a fresh sample — determinism is a replay
//! convenience, never a privacy requirement.
//!
//! ## Batching
//!
//! A `batch` request evaluates all entries under one engine read lock
//! (one database snapshot) and *groups same-shape queries* so that a
//! shape's entries run back-to-back: the first entry warms the engine's
//! family store, the rest replay it at distinct ε values without
//! rebuilding a single factor. Responses come back in request order.

use crate::budget::BudgetAccountant;
use crate::cache::{ReleaseCache, ReleaseKey};
use crate::durability::{Durability, DurableRecord};
use crate::protocol::{OverloadStats, ReleaseRequest, Request, Response};
use dpcq::eval::{CancelToken, EvalError};
use dpcq::prelude::*;
use dpcq::relation::FxHashMap;
use dpcq::sensitivity::SensitivityError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// Serving-policy knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// ε for release requests that don't specify one.
    pub default_epsilon: f64,
    /// Total ε granted to each principal (`f64::INFINITY` = unmetered).
    pub default_budget: f64,
    /// Noise RNG seed (`None` = OS entropy). Fixed seeds make single-
    /// connection sessions deterministic — for tests and demos only.
    pub seed: Option<u64>,
    /// Fresh (non-replay) releases evaluating at once; admission beyond
    /// this sheds with an `overloaded` frame. Cache replays are never
    /// gated (invariant O3), so a saturated server degrades to a
    /// read-only replay tier instead of going dark.
    pub max_inflight_releases: usize,
    /// Concurrent TCP connections; the accept loop answers overflow
    /// with one `overloaded` frame and closes instead of spawning a
    /// thread.
    pub max_connections: usize,
    /// Per-request ceiling on the pre-evaluation cost estimate
    /// ([`PrivateEngine::estimate_release_cost`]); `None` = unlimited.
    pub max_request_cost: Option<u128>,
    /// Server-wide ceiling on the summed cost of in-flight releases;
    /// `None` = unlimited. One release always runs even above the
    /// ceiling (no starvation) — the per-request ceiling is the tool
    /// for rejecting individually outsized queries.
    pub max_server_cost: Option<u128>,
    /// Default evaluation deadline for releases that don't carry their
    /// own `deadline_ms`; `None` = no deadline.
    pub default_deadline_ms: Option<u64>,
    /// Back-off hint carried in `overloaded` frames.
    pub retry_after_ms: u64,
    /// Socket write timeout: a client that stops draining its socket
    /// stalls only its own connection thread, and only this long.
    pub write_timeout_ms: u64,
    /// `Some(host:port)` = serve the telemetry registry as Prometheus
    /// text over plain HTTP from a sidecar thread while `serve` runs
    /// (`dpcq serve --metrics-addr`). The endpoint exports timings,
    /// counts, and ε totals only (invariants P1–P3).
    pub metrics_addr: Option<String>,
    /// `Some(n)` = log any release whose traced stages sum to ≥ `n`
    /// milliseconds to stderr, with the per-stage breakdown. The line
    /// includes the query text — analyst input that already crossed the
    /// wire — and never any released value. Requires the default `obs`
    /// feature (with telemetry compiled out no durations exist to sum).
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            default_epsilon: 1.0,
            default_budget: f64::INFINITY,
            seed: None,
            max_inflight_releases: 64,
            max_connections: 256,
            max_request_cost: None,
            max_server_cost: None,
            default_deadline_ms: None,
            retry_after_ms: 100,
            write_timeout_ms: 10_000,
            metrics_addr: None,
            slow_ms: None,
        }
    }
}

/// Overload-control state: admission gauges and shed/timeout counters.
/// All atomics — read on the release fast path, never behind a lock.
#[derive(Debug, Default)]
struct OverloadState {
    /// Fresh releases currently evaluating.
    inflight: AtomicUsize,
    /// Summed cost estimate of in-flight releases (saturated to u64).
    inflight_cost: AtomicU64,
    /// Live TCP connections.
    connections: AtomicUsize,
    /// Requests refused by the capacity gates.
    shed_requests: AtomicU64,
    /// Releases aborted by their deadline (ε refunded).
    deadline_timeouts: AtomicU64,
    /// Requests refused by the per-request cost ceiling.
    cost_rejected: AtomicU64,
}

/// RAII admission slot: holds one `inflight` unit and this release's
/// cost share, returned on drop — every exit path (answer, error,
/// timeout, panic unwind) releases capacity exactly once.
struct AdmissionPermit<'a> {
    overload: &'a OverloadState,
    cost: u64,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.overload.inflight.fetch_sub(1, Ordering::SeqCst);
        self.overload
            .inflight_cost
            .fetch_sub(self.cost, Ordering::SeqCst);
        dpcq_obs::gauge_add(dpcq_obs::GaugeId::Inflight, -1);
    }
}

/// A concurrent serving layer over one [`PrivateEngine`].
///
/// Use in-process through [`Server::handle`] /
/// [`Server::handle_line`], or over TCP through [`Server::serve`].
#[derive(Debug)]
pub struct Server {
    engine: RwLock<PrivateEngine>,
    budget: BudgetAccountant,
    cache: ReleaseCache,
    rng: Mutex<StdRng>,
    config: ServerConfig,
    /// `Some` when running with a data directory: committed releases and
    /// effective mutations are logged before the response flushes, and
    /// periodic snapshots bound replay time. `None` = today's in-memory
    /// behavior.
    durability: Option<Durability>,
    overload: OverloadState,
    shutdown: AtomicBool,
    /// The bound TCP address while `serve` runs (used to wake the accept
    /// loop on shutdown).
    bound: Mutex<Option<SocketAddr>>,
    /// The metrics endpoint's bound address while `serve` runs with
    /// `metrics_addr` configured (tests bind port 0 and read this).
    metrics_bound: Mutex<Option<SocketAddr>>,
}

impl Server {
    /// Wraps an engine. The engine's own per-release ε is superseded by
    /// per-request ε (or `config.default_epsilon`); its policy, threads,
    /// and database carry over.
    pub fn new(engine: PrivateEngine, config: ServerConfig) -> Self {
        Server::build(engine, config, None, ReleaseCache::new())
    }

    fn build(
        engine: PrivateEngine,
        config: ServerConfig,
        durability: Option<Durability>,
        cache: ReleaseCache,
    ) -> Self {
        assert!(
            config.default_epsilon > 0.0 && config.default_epsilon.is_finite(),
            "default epsilon must be positive"
        );
        let rng = match config.seed {
            Some(s) => StdRng::seed_from_u64(s),
            None => StdRng::from_entropy(),
        };
        // Anchor the registry's uptime clock at server construction.
        dpcq_obs::init();
        Server {
            engine: RwLock::new(engine),
            budget: BudgetAccountant::new(config.default_budget),
            cache,
            rng: Mutex::new(rng),
            config,
            durability,
            overload: OverloadState::default(),
            shutdown: AtomicBool::new(false),
            bound: Mutex::new(None),
            metrics_bound: Mutex::new(None),
        }
    }

    /// A durable server over `data_dir`: loads the snapshot (if any),
    /// replays the WAL over it, and keeps logging from there.
    ///
    /// After recovery every principal's spent ε is exactly the committed
    /// pre-crash spend (reservations that never committed are refunded by
    /// omission), the database carries its pre-crash contents *and*
    /// per-relation versions, and every pre-crash cached release replays
    /// bit-identically at zero ε.
    ///
    /// `engine` supplies the policy, threads, and — only when the data
    /// directory has no snapshot yet (first boot) — the initial database.
    /// A first boot writes a snapshot immediately, so from then on the
    /// data directory owns the database and the operator's data files are
    /// only a bootstrap.
    pub fn recover(
        engine: PrivateEngine,
        config: ServerConfig,
        data_dir: &Path,
    ) -> Result<Self, String> {
        let (durability, snapshot, records) = Durability::open(data_dir)?;
        let first_boot = snapshot.is_none();
        let cache = ReleaseCache::new();
        let mut spend: BTreeMap<String, f64> = BTreeMap::new();
        let mut engine = match &snapshot {
            Some(snap) => {
                for (principal, spent) in &snap.spend {
                    spend.insert(principal.clone(), *spent);
                }
                for (key, release) in &snap.cache {
                    cache.put(key.clone(), *release);
                }
                PrivateEngine::from_image(&snap.database, engine.policy().clone(), engine.epsilon())
                    .with_threads(engine.threads())
            }
            None => engine,
        };
        // Replay in log order so interleaved mutations invalidate exactly
        // the cache entries they invalidated before the crash.
        for record in records {
            match record {
                DurableRecord::BatchMutation {
                    insert,
                    relation,
                    tuples,
                } => {
                    // Replay through the one mutation path the live
                    // server used: only effective tuples were logged, so
                    // the version advances by the batch size, reproducing
                    // the live run's stamps.
                    let rows: Vec<Vec<Value>> = tuples
                        .iter()
                        .map(|t| t.iter().copied().map(Value).collect())
                        .collect();
                    let changed = engine
                        .mutate(&relation, &rows, insert, |_| Ok(()))
                        .unwrap_or(0);
                    if changed > 0 {
                        cache.invalidate_relation(&relation, engine.relation_version(&relation));
                    }
                }
                DurableRecord::Release {
                    principal,
                    key,
                    release,
                } => {
                    *spend.entry(principal).or_insert(0.0) += f64::from_bits(key.epsilon_bits);
                    cache.put(key, release);
                }
            }
        }
        let server = Server::build(engine, config, Some(durability), cache);
        for (principal, spent) in spend {
            server.budget.restore_spent(&principal, spent);
        }
        if first_boot {
            // Pin the bootstrap database: from here on, recovery never
            // depends on the operator's data files being unchanged.
            server.snapshot()?;
        }
        Ok(server)
    }

    /// The budget ledgers (for out-of-band configuration, e.g. the CLI
    /// granting a principal a custom budget).
    pub fn budget(&self) -> &BudgetAccountant {
        &self.budget
    }

    /// The engine read lock. A poisoned lock means another handler
    /// panicked while holding it; recovery via
    /// `PoisonError::into_inner` is sound here because every mutating
    /// path validates before it applies (arity checks precede tuple
    /// ops; the cache purge is a single pass) — a panic cannot leave a
    /// torn database, so the poison flag carries no information the
    /// invariants don't already guarantee. Refusing would instead turn
    /// one panicked request into a permanently unavailable server
    /// (every later request failing on the same flag). The request
    /// path still never `unwrap`s into a panic of its own (dpa rule
    /// R3: `into_inner` recovery is the one sanctioned form).
    fn read_engine(&self) -> RwLockReadGuard<'_, PrivateEngine> {
        self.engine.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admission gate for one fresh release of estimated `cost`:
    /// reserves an in-flight slot and the cost share, or refuses when
    /// either the slot gate or the server-wide cost ceiling is full.
    /// Cost accounting saturates to `u64`; the first release through
    /// an idle gate is always admitted (the per-request ceiling, not
    /// this one, rejects individually outsized queries) so a high
    /// ceiling can never starve the server outright.
    fn try_admit(&self, cost: u128) -> Option<AdmissionPermit<'_>> {
        let cost64 = u64::try_from(cost).unwrap_or(u64::MAX);
        let slots = self.overload.inflight.fetch_add(1, Ordering::SeqCst);
        dpcq_obs::gauge_add(dpcq_obs::GaugeId::Inflight, 1);
        let in_cost = self
            .overload
            .inflight_cost
            .fetch_add(cost64, Ordering::SeqCst);
        // Construct the permit *before* checking: its Drop is the one
        // place that undoes the increments, on rejection and on every
        // later exit path alike.
        let permit = AdmissionPermit {
            overload: &self.overload,
            cost: cost64,
        };
        if slots >= self.config.max_inflight_releases {
            return None;
        }
        if let Some(max) = self.config.max_server_cost {
            if in_cost > 0 && (in_cost as u128).saturating_add(cost) > max {
                return None;
            }
        }
        Some(permit)
    }

    /// Read access to the wrapped engine (a shared lock: releases keep
    /// flowing, mutations wait). For observability — family-cache
    /// counters, version vectors — in tests and benchmarks. Poisoning is
    /// recovered here: observability reads are non-private and best
    /// effort.
    pub fn engine(&self) -> RwLockReadGuard<'_, PrivateEngine> {
        self.engine.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a shutdown request has been handled.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one request against current server state.
    pub fn handle(&self, request: Request) -> Response {
        let response = self.dispatch(request);
        // Snapshot checks run after the dispatch guards are released (a
        // snapshot takes the engine *write* lock).
        self.maybe_snapshot();
        response
    }

    fn dispatch(&self, request: Request) -> Response {
        dpcq_obs::inc_request(match &request {
            Request::Release(_) => dpcq_obs::Op::Release,
            Request::Batch { .. } => dpcq_obs::Op::Batch,
            Request::Insert { .. } => dpcq_obs::Op::Insert,
            Request::Remove { .. } => dpcq_obs::Op::Remove,
            Request::MutateBatch { insert: true, .. } => dpcq_obs::Op::InsertBatch,
            Request::MutateBatch { insert: false, .. } => dpcq_obs::Op::RemoveBatch,
            Request::Budget { .. } => dpcq_obs::Op::Budget,
            Request::Stats { .. } => dpcq_obs::Op::Stats,
            Request::Metrics { .. } => dpcq_obs::Op::Metrics,
            Request::Shutdown { .. } => dpcq_obs::Op::Shutdown,
        });
        let response = self.dispatch_request(request);
        count_error_frames(&response);
        response
    }

    fn dispatch_request(&self, request: Request) -> Response {
        match request {
            Request::Release(r) => {
                let engine = self.read_engine();
                self.handle_release(&engine, &r)
            }
            Request::Batch { id, requests } => {
                // One read lock = one database snapshot for the whole
                // group; same-shape queries run consecutively so later
                // ones hit the warmed family store.
                let engine = self.read_engine();
                let mut first_of_shape: FxHashMap<&str, usize> = FxHashMap::default();
                for (i, r) in requests.iter().enumerate() {
                    first_of_shape.entry(r.query.as_str()).or_insert(i);
                }
                let mut order: Vec<usize> = (0..requests.len()).collect();
                order.sort_by_key(|&i| (first_of_shape[requests[i].query.as_str()], i));
                // Evaluate in shape-grouped order, then restore request
                // order for the response.
                let mut indexed: Vec<(usize, Response)> = order
                    .into_iter()
                    .map(|i| (i, self.handle_release(&engine, &requests[i])))
                    .collect();
                indexed.sort_by_key(|&(i, _)| i);
                Response::Batch {
                    id,
                    responses: indexed.into_iter().map(|(_, r)| r).collect(),
                }
            }
            // Single-tuple ops are a batch of one; only the response
            // frame (a boolean `changed`) differs.
            Request::Insert {
                id,
                relation,
                tuple,
            } => self.handle_batch_mutation(id, &relation, &[tuple], true, true),
            Request::Remove {
                id,
                relation,
                tuple,
            } => self.handle_batch_mutation(id, &relation, &[tuple], false, true),
            Request::MutateBatch {
                id,
                relation,
                tuples,
                insert,
            } => self.handle_batch_mutation(id, &relation, &tuples, insert, false),
            Request::Budget { id, principal } => Response::Budget {
                id,
                budget: finite(self.budget.budget(&principal)),
                spent: self.budget.spent(&principal),
                remaining: finite(self.budget.remaining(&principal)),
                principal,
            },
            Request::Stats { id } => {
                let engine = self.read_engine();
                let (hits, misses) = self.cache.counters();
                let (scoped_hits, scoped_misses) = self.cache.scoped_counters();
                // Telemetry-sourced fields come from the same registry
                // snapshot the `metrics` op and the Prometheus endpoint
                // read, so the three surfaces always agree.
                let obs = dpcq_obs::snapshot();
                Response::Stats {
                    id,
                    generation: engine.generation(),
                    relation_versions: engine.relation_versions(),
                    release_cache_entries: self.cache.len(),
                    release_cache_hits: hits,
                    release_cache_misses: misses,
                    cache_scoped_hits: scoped_hits,
                    cache_scoped_misses: scoped_misses,
                    principals: self.budget.num_principals(),
                    delta: engine.delta_stats(),
                    requests_total: obs.requests,
                    errors_total: obs.errors_total,
                    uptime_ms: obs.uptime_ms,
                    durability: self.durability.as_ref().map(Durability::stats),
                    overload: OverloadStats {
                        shed_requests: self.overload.shed_requests.load(Ordering::SeqCst),
                        deadline_timeouts: self.overload.deadline_timeouts.load(Ordering::SeqCst),
                        cost_rejected: self.overload.cost_rejected.load(Ordering::SeqCst),
                        inflight: self.overload.inflight.load(Ordering::SeqCst) as u64,
                    },
                }
            }
            Request::Metrics { id } => Response::Metrics {
                id,
                metrics: crate::metrics::snapshot_json(&dpcq_obs::snapshot()),
            },
            Request::Shutdown { id } => {
                self.shutdown.store(true, Ordering::SeqCst);
                self.wake_listener();
                Response::Shutdown { id }
            }
        }
    }

    /// Handles one protocol frame: parse, dispatch, render. Parse errors
    /// come back as error frames (with no id — an unparseable frame has
    /// no trustworthy id).
    pub fn handle_line(&self, line: &str) -> String {
        let response = match Request::parse_line(line) {
            Ok(req) => self.handle(req),
            Err(error) => Response::Error { id: None, error },
        };
        response.render_line()
    }

    /// One release: runs the traced inner path, then post-processes the
    /// collected stage timings — echoed in the response when the request
    /// asked (`"trace": true`), logged to stderr when the total crosses
    /// `--slow-ms`. Timings describe server work, never data (P3).
    fn handle_release(&self, engine: &PrivateEngine, r: &ReleaseRequest) -> Response {
        let mut trace = dpcq_obs::Trace::new();
        let mut response = self.release_traced(engine, r, &mut trace);
        if let Some(ms) = self.config.slow_ms {
            let total_ns = trace.total_ns();
            if total_ns >= ms.saturating_mul(1_000_000) {
                dpcq_obs::inc_event(dpcq_obs::Event::SlowQuery);
                let stages: Vec<String> = trace
                    .entries()
                    .iter()
                    .map(|&(stage, ns)| format!("{}={}us", stage.name(), ns / 1_000))
                    .collect();
                // The query text is analyst input that already crossed
                // the wire; no released value appears here.
                eprintln!(
                    "dpcq: slow query ({} ms >= {ms} ms) query={:?} {}",
                    total_ns / 1_000_000,
                    r.query,
                    stages.join(" ")
                );
            }
        }
        if r.trace {
            if let Response::Release { trace: slot, .. } = &mut response {
                *slot = Some(
                    trace
                        .entries()
                        .iter()
                        .map(|&(stage, ns)| (stage.name(), ns / 1_000))
                        .collect(),
                );
            }
        }
        response
    }

    fn release_traced(
        &self,
        engine: &PrivateEngine,
        r: &ReleaseRequest,
        trace: &mut dpcq_obs::Trace,
    ) -> Response {
        let err = |error: String| Response::Error { id: r.id, error };
        let epsilon = r.epsilon.unwrap_or(self.config.default_epsilon);
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return err(format!(
                "epsilon must be positive and finite, got {epsilon}"
            ));
        }
        let query = match parse_query(&r.query) {
            Ok(q) => q,
            Err(e) => return err(format!("query does not parse: {e}")),
        };
        // Key by the *re-rendered* query so textual variants of one query
        // share a cache entry, and by the read-set version stamp so the
        // entry survives mutations of relations this release never reads.
        let generation = engine.generation();
        let stamp = engine.read_set_stamp(&query, r.method);
        let key = ReleaseKey::new(&query.to_string(), r.method, epsilon, stamp);
        if let Some(release) = self.cache.get(&key) {
            // Replays are budget-free post-processing and bypass every
            // gate below (invariant O3): a saturated or cost-capped
            // server still answers everything it has already published.
            return Response::Release {
                id: r.id,
                method: r.method,
                release,
                cached: true,
                generation,
                remaining: finite(self.budget.remaining(&r.principal)),
                trace: None,
            };
        }
        // Admission control runs strictly before the ε reservation
        // (invariant O1): a shed request provably moved no budget, which
        // is what makes the client's retry idempotent.
        let admission = trace.span(dpcq_obs::Stage::Admission);
        let cost = engine.estimate_release_cost(&query, r.method);
        if self.config.max_request_cost.is_some_and(|max| cost > max) {
            self.overload.cost_rejected.fetch_add(1, Ordering::SeqCst);
            dpcq_obs::inc_event(dpcq_obs::Event::CostRejected);
            return Response::Overloaded {
                id: r.id,
                retry_after_ms: self.config.retry_after_ms,
            };
        }
        let Some(_permit) = self.try_admit(cost) else {
            self.overload.shed_requests.fetch_add(1, Ordering::SeqCst);
            dpcq_obs::inc_event(dpcq_obs::Event::Shed);
            return Response::Overloaded {
                id: r.id,
                retry_after_ms: self.config.retry_after_ms,
            };
        };
        drop(admission);
        // The deadline clock starts at admission, not at reservation:
        // everything from here on is work the deadline is meant to bound.
        let cancel = match r.deadline_ms.or(self.config.default_deadline_ms) {
            Some(ms) => CancelToken::with_deadline(Instant::now() + Duration::from_millis(ms)),
            None => CancelToken::never(),
        };
        let reservation = {
            let _reserve = trace.span(dpcq_obs::Stage::Reserve);
            match self.budget.reserve(&r.principal, epsilon) {
                Ok(res) => res,
                Err(e) => return err(e.to_string()),
            }
        };
        // The expensive deterministic half (count + sensitivity) runs
        // outside the RNG lock so concurrent releases evaluate in
        // parallel; the lock is held only for the sampling instant.
        let prepare = trace.span(dpcq_obs::Stage::Prepare);
        let prepared = engine.prepare_release_with_cancel(&query, r.method, epsilon, cancel);
        drop(prepare);
        match prepared {
            Ok(pending) => {
                // Chaos tests inject here — after the reservation, before
                // the commit — to prove the refund path releases exactly
                // the reserved ε (compiled to a constant `false` outside
                // failpoint builds).
                if dpcq_store::faults::should_fail("server.lock.rng") {
                    return err("internal error: injected fault before noise sampling".into());
                }
                let sample = trace.span(dpcq_obs::Stage::Sample);
                // A poisoned RNG lock aborts the request; `reservation`
                // drops on the early return, refunding the reserved ε.
                let Ok(mut rng) = self.rng.lock() else {
                    return err("internal error: noise RNG poisoned".into());
                };
                let release = pending.sample(&mut *rng);
                drop(rng);
                drop(sample);
                // Durable mode: the ledger record — spend and cache entry
                // in one atomic record — must be fsynced before the commit
                // below, and therefore before the response can flush. On a
                // log failure `reservation` drops on the early return,
                // refunding: the client got no answer, so nothing leaked.
                if let Some(durability) = &self.durability {
                    let record = DurableRecord::Release {
                        principal: r.principal.clone(),
                        key: key.clone(),
                        release,
                    };
                    let _wal = trace.span(dpcq_obs::Stage::WalAppend);
                    if let Err(e) = durability.log_commit(&record) {
                        return err(format!("durability: {e}"));
                    }
                }
                // Commit before answering: once the noisy value exists it
                // counts as spent even if the client never reads it.
                reservation.commit();
                dpcq_obs::add_epsilon_spent(epsilon);
                self.cache.put(key, release);
                Response::Release {
                    id: r.id,
                    method: r.method,
                    release,
                    cached: false,
                    generation,
                    remaining: finite(self.budget.remaining(&r.principal)),
                    trace: None,
                }
            }
            // The deadline tripped at an evaluation checkpoint:
            // `reservation` drops on this arm → full refund (invariant
            // O2 — a timed-out request spent nothing), and work memoized
            // before the trip stays cached for a retry.
            Err(SensitivityError::Eval(EvalError::Cancelled)) => {
                self.overload
                    .deadline_timeouts
                    .fetch_add(1, Ordering::SeqCst);
                dpcq_obs::inc_event(dpcq_obs::Event::DeadlineTimeout);
                err(
                    "release timed out: deadline exceeded before evaluation finished (ε refunded)"
                        .into(),
                )
            }
            // `reservation` drops here → automatic refund: a failed
            // evaluation released nothing.
            Err(e) => err(format!("release failed: {e}")),
        }
    }

    /// Every mutation, single or batch: one engine write lock, one
    /// [`PrivateEngine::mutate`] call (which alone decides arity and which
    /// tuples are effective), and — in durable mode — one write-ahead
    /// `BatchMutation` record of exactly the effective tuples, so replay
    /// performs the version bumps the live run performed and version
    /// stamps (hence release-cache keys) reproduce bit-for-bit.
    fn handle_batch_mutation(
        &self,
        id: Option<i64>,
        relation: &str,
        tuples: &[Vec<i64>],
        insert: bool,
        single: bool,
    ) -> Response {
        let rows: Vec<Vec<Value>> = tuples
            .iter()
            .map(|t| t.iter().map(|&v| Value(v)).collect())
            .collect();
        // Poison recovery: same argument as `read_engine` — validation
        // precedes every state change, so a panicked handler left
        // nothing torn.
        let mut engine = self.engine.write().unwrap_or_else(PoisonError::into_inner);
        let logged = engine.mutate(relation, &rows, insert, |effective| {
            let Some(durability) = &self.durability else {
                return Ok(());
            };
            let record = DurableRecord::BatchMutation {
                insert,
                relation: relation.to_string(),
                tuples: effective
                    .iter()
                    .map(|r| r.iter().map(|v| v.0).collect())
                    .collect(),
            };
            let _wal = dpcq_obs::Span::enter(dpcq_obs::Stage::WalAppend);
            durability
                .log_mutation(&record)
                .map(drop)
                .map_err(|e| format!("durability: {e}"))
        });
        let changed = match logged {
            Ok(changed) => changed,
            Err(error) => return Response::Error { id, error },
        };
        let generation = engine.generation();
        if changed > 0 {
            // The engine patched or dropped the family caches whose read
            // set contains `relation`; drop the released answers stamped
            // against its old versions too. Answers whose stamps do not
            // mention `relation` stay replayable (still under the write
            // lock, so no release interleaves).
            self.cache
                .invalidate_relation(relation, engine.relation_version(relation));
        }
        if single {
            Response::Updated {
                id,
                op: if insert { "insert" } else { "remove" },
                changed: changed > 0,
                generation,
            }
        } else {
            Response::UpdatedBatch {
                id,
                op: if insert {
                    "insert_batch"
                } else {
                    "remove_batch"
                },
                changed,
                generation,
            }
        }
    }

    /// Serves newline-delimited JSON over TCP until a `shutdown` request
    /// arrives: one thread per connection, one response line per request
    /// line. Connection reads poll with a short timeout so every thread
    /// observes shutdown promptly; `serve` joins them all before
    /// returning, which guarantees in-flight responses (including the
    /// shutdown acknowledgement itself) are flushed before the caller can
    /// exit the process.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        *self.bound.lock().unwrap_or_else(PoisonError::into_inner) = listener.local_addr().ok();
        if let Some(addr) = self.config.metrics_addr.clone() {
            match crate::metrics::spawn_exporter(Arc::clone(self), &addr) {
                Ok(bound) => {
                    eprintln!("dpcq metrics on {bound} (Prometheus text)");
                    *self
                        .metrics_bound
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(bound);
                }
                // Telemetry is best effort: a busy metrics port must not
                // take the serving path down with it.
                Err(e) => eprintln!("dpcq: metrics endpoint failed to bind {addr}: {e}"),
            }
        }
        let mut workers = Vec::new();
        for stream in listener.incoming() {
            if self.is_shut_down() {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            // Reap finished connections as we go so a long-lived server
            // holds handles only for the live ones.
            workers.retain(|w: &std::thread::JoinHandle<()>| !w.is_finished());
            // Bounded accept: past the connection cap the listener
            // answers with one retryable `overloaded` frame and closes —
            // no thread is spawned, so a connection flood cannot exhaust
            // the process (threads are the scarce resource here).
            if self.overload.connections.load(Ordering::SeqCst) >= self.config.max_connections {
                self.overload.shed_requests.fetch_add(1, Ordering::SeqCst);
                dpcq_obs::inc_event(dpcq_obs::Event::Shed);
                let mut frame = Response::Overloaded {
                    id: None,
                    retry_after_ms: self.config.retry_after_ms,
                }
                .render_line();
                frame.push('\n');
                let _ = stream
                    .set_write_timeout(Some(Duration::from_millis(self.config.write_timeout_ms)));
                let _ = stream.write_all(frame.as_bytes());
                continue;
            }
            self.overload.connections.fetch_add(1, Ordering::SeqCst);
            dpcq_obs::gauge_add(dpcq_obs::GaugeId::Connections, 1);
            let server = Arc::clone(self);
            workers.push(std::thread::spawn(move || {
                server.serve_connection(stream);
                server.overload.connections.fetch_sub(1, Ordering::SeqCst);
                dpcq_obs::gauge_add(dpcq_obs::GaugeId::Connections, -1);
            }));
        }
        for worker in workers {
            let _ = worker.join();
        }
        *self.bound.lock().unwrap_or_else(PoisonError::into_inner) = None;
        *self
            .metrics_bound
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
        Ok(())
    }

    /// The metrics endpoint's bound address, while `serve` runs with
    /// `metrics_addr` configured (tests bind port 0 and poll this).
    pub fn metrics_bound(&self) -> Option<SocketAddr> {
        *self
            .metrics_bound
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn serve_connection(&self, stream: TcpStream) {
        // Poll-timeout reads: an idle connection wakes every interval to
        // check the shutdown flag instead of blocking forever (which
        // would make the serve-side join hang on idle clients). Writes
        // time out too: a client that stops draining its socket blocks
        // only this thread, and only `write_timeout_ms` per frame —
        // combined with the fixed-capacity buffer below, a slow reader
        // can pin at most one buffered frame of memory. `TCP_NODELAY`:
        // each response leaves as soon as it is flushed; with Nagle on, a
        // pipelined burst's second response would wait for the client's
        // (delayed, ~40 ms) ACK of the first.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(self.config.write_timeout_ms)));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::with_capacity(64 * 1024, stream);
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => break, // EOF: client hung up
                Ok(_) => {
                    let frame = line.trim();
                    if !frame.is_empty() {
                        let out = self.handle_line(frame);
                        // `server.socket.write`: chaos tests sever the
                        // connection mid-response to prove that a frame
                        // the client never saw still committed exactly
                        // what it logged (at-most-once visibility,
                        // exactly-once accounting).
                        let flushed = {
                            let _flush = dpcq_obs::Span::enter(dpcq_obs::Stage::Flush);
                            dpcq_store::faults::check_fault("server.socket.write")
                                .and_then(|()| writeln!(writer, "{out}"))
                                .and_then(|()| writer.flush())
                        };
                        if flushed.is_err() {
                            break;
                        }
                    }
                    if self.is_shut_down() {
                        break;
                    }
                    line.clear();
                }
                // Timeout mid-wait: partially read bytes (if any) stay in
                // `line` and the next round appends the rest.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if self.is_shut_down() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }

    /// Writes a durability snapshot now; a no-op for in-memory servers.
    ///
    /// Holds the engine **write** lock across the export *and* the
    /// snapshot write: releases commit (ledger + WAL + cache) under the
    /// read lock and mutations log/apply under the write lock, so
    /// exclusive access here is a consistent cut — the image and the
    /// WAL's covered sequence number describe the same instant.
    pub fn snapshot(&self) -> Result<(), String> {
        let Some(durability) = &self.durability else {
            return Ok(());
        };
        let engine = self.engine.write().unwrap_or_else(PoisonError::into_inner);
        let result = durability.write_snapshot(
            self.budget.committed_spend_snapshot(),
            engine.export_image(),
            self.cache.entries(),
        );
        drop(engine);
        result
    }

    fn maybe_snapshot(&self) {
        let due = self
            .durability
            .as_ref()
            .is_some_and(Durability::should_snapshot);
        if due {
            if let Err(e) = self.snapshot() {
                // Serving continues: the WAL still holds every record, so
                // durability is intact — only replay time grows.
                eprintln!("dpcq: snapshot failed: {e}");
            }
        }
    }

    /// Unblocks the accept loop after the shutdown flag is set (a no-op
    /// when not serving TCP).
    fn wake_listener(&self) {
        let addr = *self.bound.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(addr) = addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
    }
}

/// Finite values only (`None` = infinite, rendered as JSON `null`).
fn finite(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

/// Mirrors every error frame in a response (batch entries included)
/// into the telemetry error counter.
fn count_error_frames(response: &Response) {
    match response {
        Response::Error { .. } | Response::Overloaded { .. } => dpcq_obs::inc_error(),
        Response::Batch { responses, .. } => responses.iter().for_each(count_error_frames),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcq::noise::{RawAnswer, SmoothCauchyMechanism};
    use dpcq::SensitivityMethod;

    fn sym_db() -> Database {
        let mut db = Database::new();
        for (u, v) in [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)] {
            db.insert_tuple("Edge", &[Value(u), Value(v)]);
            db.insert_tuple("Edge", &[Value(v), Value(u)]);
        }
        db
    }

    fn test_server(budget: f64) -> Server {
        Server::new(
            PrivateEngine::new(sym_db(), Policy::all_private(), 1.0).with_threads(1),
            ServerConfig {
                default_epsilon: 1.0,
                default_budget: budget,
                seed: Some(42),
                ..ServerConfig::default()
            },
        )
    }

    fn release_req(query: &str, principal: &str, epsilon: Option<f64>) -> Request {
        Request::Release(ReleaseRequest {
            id: None,
            principal: principal.into(),
            query: query.into(),
            method: SensitivityMethod::Residual,
            epsilon,
            deadline_ms: None,
            trace: false,
        })
    }

    const TRIANGLE: &str =
        "Q(*) :- Edge(x1,x2), Edge(x2,x3), Edge(x1,x3), x1 != x2, x2 != x3, x1 != x3";

    #[test]
    fn release_spends_and_repeat_is_cached_and_free() {
        let server = test_server(1.5);
        let first = server.handle(release_req(TRIANGLE, "alice", Some(1.0)));
        let Response::Release {
            release: r1,
            cached: c1,
            remaining: rem1,
            ..
        } = first
        else {
            panic!("{first:?}")
        };
        assert!(!c1);
        assert!((rem1.unwrap() - 0.5).abs() < 1e-9);

        // Identical request (even from another principal): replayed
        // bit-for-bit, no budget movement anywhere.
        for principal in ["alice", "bob"] {
            let again = server.handle(release_req(TRIANGLE, principal, Some(1.0)));
            let Response::Release {
                release: r2,
                cached: c2,
                ..
            } = again
            else {
                panic!("{again:?}")
            };
            assert!(c2);
            assert_eq!(r1, r2);
        }
        assert_eq!(server.budget().spent("bob"), 0.0);
        assert!((server.budget().spent("alice") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn textual_query_variants_share_one_cache_entry() {
        let server = test_server(f64::INFINITY);
        let a = server.handle(release_req("Q(*) :- Edge(x, y)", "p", Some(0.5)));
        let b = server.handle(release_req("Q(*):-Edge( x ,y )", "p", Some(0.5)));
        match (a, b) {
            (
                Response::Release {
                    release: ra,
                    cached: false,
                    ..
                },
                Response::Release {
                    release: rb,
                    cached: true,
                    ..
                },
            ) => assert_eq!(ra, rb),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exhausted_budget_rejects_without_spending() {
        let server = test_server(0.75);
        let ok = server.handle(release_req(TRIANGLE, "alice", Some(0.5)));
        assert!(matches!(ok, Response::Release { .. }), "{ok:?}");
        let too_much = server.handle(release_req("Q(*) :- Edge(a,b)", "alice", Some(0.5)));
        let Response::Error { error, .. } = too_much else {
            panic!("{too_much:?}")
        };
        assert!(error.contains("budget exhausted"), "{error}");
        assert!((server.budget().spent("alice") - 0.5).abs() < 1e-9);
        // The remaining 0.25 still works.
        let fits = server.handle(release_req("Q(*) :- Edge(a,b)", "alice", Some(0.25)));
        assert!(matches!(fits, Response::Release { .. }), "{fits:?}");
    }

    #[test]
    fn failed_release_refunds() {
        let server = test_server(1.0);
        // Unknown relation → evaluation error → full refund.
        let r = server.handle(release_req("Q(*) :- Nope(x, y)", "alice", Some(0.5)));
        assert!(matches!(r, Response::Error { .. }), "{r:?}");
        assert_eq!(server.budget().spent("alice"), 0.0);
        assert_eq!(server.budget().remaining("alice"), 1.0);
    }

    #[test]
    fn mutation_invalidates_the_release_cache() {
        let server = test_server(f64::INFINITY);
        let q = "Q(*) :- Edge(x, y)";
        let first = server.handle(release_req(q, "p", Some(1.0)));
        let Response::Release {
            release: r1,
            generation: g1,
            ..
        } = first
        else {
            panic!("{first:?}")
        };
        assert_eq!(g1, 0);

        // A no-op insert (tuple already present) invalidates nothing.
        let noop = server.handle(Request::Insert {
            id: None,
            relation: "Edge".into(),
            tuple: vec![1, 2],
        });
        assert!(
            matches!(
                noop,
                Response::Updated {
                    changed: false,
                    generation: 0,
                    ..
                }
            ),
            "{noop:?}"
        );
        let still = server.handle(release_req(q, "p", Some(1.0)));
        assert!(matches!(still, Response::Release { cached: true, .. }));

        // An effective insert bumps the generation; the next release
        // recomputes against the new instance.
        let ins = server.handle(Request::Insert {
            id: None,
            relation: "Edge".into(),
            tuple: vec![9, 10],
        });
        let Response::Updated {
            changed: true,
            generation: g2,
            ..
        } = ins
        else {
            panic!("{ins:?}")
        };
        assert_eq!(g2, 1);
        let after = server.handle(release_req(q, "p", Some(1.0)));
        let Response::Release {
            release: r2,
            cached,
            generation,
            ..
        } = after
        else {
            panic!("{after:?}")
        };
        assert!(!cached);
        assert_eq!(generation, 1);
        assert_ne!(r1, r2); // 21 edges now, and a fresh noise draw

        // Removing the tuple again restores the count but NOT the old
        // cache entry (generation 2 ≠ 0): answers never travel backwards.
        let rm = server.handle(Request::Remove {
            id: None,
            relation: "Edge".into(),
            tuple: vec![9, 10],
        });
        assert!(matches!(
            rm,
            Response::Updated {
                changed: true,
                generation: 2,
                ..
            }
        ));
        let fresh = server.handle(release_req(q, "p", Some(1.0)));
        assert!(matches!(fresh, Response::Release { cached: false, .. }));
    }

    /// The headline scoped-invalidation scenario, in-process: two
    /// relations, one query over each; a mutation of `S` must leave
    /// `Q_R`'s cached release replaying bit-identically at zero
    /// additional ε and its family cache fully warm (0 new factors, 0 new
    /// residuals), while `Q_S` recomputes under its new stamp.
    #[test]
    fn mutation_of_one_relation_retains_the_other_relations_caches() {
        let mut db = Database::new();
        for (u, v) in [(1, 2), (2, 3), (1, 3), (3, 4)] {
            db.insert_tuple("R", &[Value(u), Value(v)]);
            db.insert_tuple("R", &[Value(v), Value(u)]);
            db.insert_tuple("S", &[Value(10 * u), Value(10 * v)]);
        }
        let server = Server::new(
            PrivateEngine::new(db, Policy::all_private(), 1.0).with_threads(1),
            ServerConfig {
                default_epsilon: 1.0,
                default_budget: f64::INFINITY,
                seed: Some(99),
                ..ServerConfig::default()
            },
        );
        let q_r_text = "Q(*) :- R(x,y), R(y,z)";
        let q_s_text = "Q(*) :- S(x,y), S(y,z)";
        let release = |q: &str| server.handle(release_req(q, "p", Some(0.5)));
        let unwrap_release = |resp: Response| -> (Release, bool) {
            match resp {
                Response::Release {
                    release, cached, ..
                } => (release, cached),
                other => panic!("{other:?}"),
            }
        };

        // Warm both shapes.
        let (r1, c1) = unwrap_release(release(q_r_text));
        let (s1, _) = unwrap_release(release(q_s_text));
        assert!(!c1);
        let q_r = parse_query(q_r_text).unwrap();
        let q_s = parse_query(q_s_text).unwrap();
        let warmed_r = server.engine().family_stats(&q_r);
        let warmed_s = server.engine().family_stats(&q_s);
        assert!(warmed_r.factor_misses > 0 && warmed_r.values_computed > 0);
        assert!(warmed_s.values_computed > 0);
        let spent_before = server.budget().spent("p");

        // Mutate S only.
        let upd = server.handle(Request::Insert {
            id: None,
            relation: "S".into(),
            tuple: vec![50, 60],
        });
        assert!(matches!(
            upd,
            Response::Updated {
                changed: true,
                generation: 1,
                ..
            }
        ));

        // Q_R: replayed bit-identically, zero additional ε, zero new work.
        let (r2, c2) = unwrap_release(release(q_r_text));
        assert!(c2, "R-only answer must survive the S mutation");
        assert_eq!(r1, r2, "replay must be bit-identical");
        assert_eq!(server.budget().spent("p"), spent_before, "replay is free");
        let after_r = server.engine().family_stats(&q_r);
        assert_eq!(
            after_r.factor_misses, warmed_r.factor_misses,
            "0 new factors"
        );
        assert_eq!(
            after_r.values_computed, warmed_r.values_computed,
            "0 new residuals"
        );

        // Q_S: stamped anew, recomputed from scratch, ε spent.
        let (s2, c3) = unwrap_release(release(q_s_text));
        assert!(!c3, "S answer must recompute under its new stamp");
        assert_ne!(s1, s2);
        assert!(server.budget().spent("p") > spent_before);
        let after_s = server.engine().family_stats(&q_s);
        assert!(
            after_s.values_computed > 0 && after_s.value_hits < warmed_s.value_hits
                || after_s.value_hits == 0,
            "S shape was rebuilt: {after_s:?}"
        );

        // Stats tell the same story over the typed surface.
        let stats = server.handle(Request::Stats { id: None });
        let Response::Stats {
            generation,
            relation_versions,
            cache_scoped_hits,
            cache_scoped_misses,
            ..
        } = stats
        else {
            panic!("{stats:?}")
        };
        assert_eq!(generation, 1);
        assert_eq!(
            relation_versions,
            vec![("R".to_string(), 0), ("S".to_string(), 1)]
        );
        assert_eq!(cache_scoped_hits, 1, "Q_R's entry survived");
        assert_eq!(cache_scoped_misses, 1, "Q_S's entry was dropped");
    }

    #[test]
    fn batch_mutation_dedups_and_patches_in_one_pass() {
        let server = test_server(f64::INFINITY);
        let q = "Q(*) :- Edge(x, y)";
        // Warm the shape so there is a cache to maintain.
        let first = server.handle(release_req(q, "p", Some(1.0)));
        assert!(matches!(first, Response::Release { cached: false, .. }));

        // Duplicates and a no-op (already-present tuple) collapse: the
        // batch of 4 is 2 effective inserts, absorbed by ONE delta pass.
        let ins = server.handle(Request::MutateBatch {
            id: Some(5),
            relation: "Edge".into(),
            tuples: vec![vec![90, 91], vec![90, 91], vec![1, 2], vec![91, 92]],
            insert: true,
        });
        let Response::UpdatedBatch {
            id,
            op,
            changed,
            generation,
        } = ins
        else {
            panic!("{ins:?}")
        };
        assert_eq!(id, Some(5));
        assert_eq!(op, "insert_batch");
        assert_eq!(changed, 2);
        assert_eq!(generation, 2, "version advances once per effective tuple");
        let (applied, fallback, _) = server.engine().delta_stats();
        assert_eq!((applied, fallback), (1, 0), "one pass for the whole batch");

        // A remove batch reverts through the same path; the absent tuple
        // is a skipped no-op.
        let rm = server.handle(Request::MutateBatch {
            id: None,
            relation: "Edge".into(),
            tuples: vec![vec![90, 91], vec![91, 92], vec![777, 778]],
            insert: false,
        });
        let Response::UpdatedBatch {
            op,
            changed,
            generation,
            ..
        } = rm
        else {
            panic!("{rm:?}")
        };
        assert_eq!(op, "remove_batch");
        assert_eq!(changed, 2);
        assert_eq!(generation, 4);
        assert_eq!(server.engine().delta_stats().0, 2);

        // The patched cache still serves releases (fresh stamp → fresh
        // answer, not a replay of the generation-0 entry).
        let after = server.handle(release_req(q, "p", Some(1.0)));
        assert!(matches!(after, Response::Release { cached: false, .. }));

        // An all-no-op batch changes nothing and runs no delta pass.
        let noop = server.handle(Request::MutateBatch {
            id: None,
            relation: "Edge".into(),
            tuples: vec![vec![777, 778]],
            insert: false,
        });
        assert!(
            matches!(
                noop,
                Response::UpdatedBatch {
                    changed: 0,
                    generation: 4,
                    ..
                }
            ),
            "{noop:?}"
        );
        assert_eq!(server.engine().delta_stats().0, 2);

        // The stats frame surfaces the delta counters.
        let stats = server.handle(Request::Stats { id: None });
        let Response::Stats { delta, .. } = stats else {
            panic!("{stats:?}")
        };
        assert_eq!(delta.0, 2);
        assert_eq!(delta.1, 0);
        assert!(delta.2 > 0, "signed rows were merged: {delta:?}");
    }

    #[test]
    fn batch_mutation_arity_mismatch_is_rejected() {
        let server = test_server(f64::INFINITY);
        let r = server.handle(Request::MutateBatch {
            id: Some(4),
            relation: "Edge".into(),
            tuples: vec![vec![1, 2], vec![1, 2, 3]],
            insert: true,
        });
        let Response::Error { id, error } = r else {
            panic!("{r:?}")
        };
        assert_eq!(id, Some(4));
        assert!(error.contains("arity"), "{error}");
        let stats = server.handle(Request::Stats { id: None });
        assert!(matches!(stats, Response::Stats { generation: 0, .. }));
    }

    #[test]
    fn mutation_arity_mismatch_is_rejected() {
        let server = test_server(f64::INFINITY);
        let r = server.handle(Request::Insert {
            id: Some(4),
            relation: "Edge".into(),
            tuple: vec![1, 2, 3],
        });
        let Response::Error { id, error } = r else {
            panic!("{r:?}")
        };
        assert_eq!(id, Some(4));
        assert!(error.contains("arity"), "{error}");
        // Nothing changed.
        let stats = server.handle(Request::Stats { id: None });
        assert!(matches!(stats, Response::Stats { generation: 0, .. }));
    }

    #[test]
    fn empty_batch_is_rejected_without_logging_or_advancing() {
        let dir = temp_data_dir("empty-batch");
        let server = durable_server(f64::INFINITY, &dir);
        let wal_records = |server: &Server| match server.handle(Request::Stats { id: None }) {
            Response::Stats {
                generation,
                durability: Some(d),
                ..
            } => (generation, d.wal_records),
            other => panic!("{other:?}"),
        };
        let before = wal_records(&server);
        for relation in ["Edge", "Unknown"] {
            for insert in [true, false] {
                let r = server.handle(Request::MutateBatch {
                    id: Some(6),
                    relation: relation.into(),
                    tuples: vec![],
                    insert,
                });
                let Response::Error { id, error } = r else {
                    panic!("{r:?}")
                };
                assert_eq!(id, Some(6));
                assert_eq!(
                    error, "`tuples` must be non-empty",
                    "the wire parser's error"
                );
            }
        }
        assert_eq!(wal_records(&server), before, "no record, no generation");
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_groups_same_shape_queries_and_preserves_order() {
        let server = test_server(f64::INFINITY);
        let entry = |query: &str, id: i64, epsilon: f64| ReleaseRequest {
            id: Some(id),
            principal: "p".into(),
            query: query.into(),
            method: SensitivityMethod::Residual,
            epsilon: Some(epsilon),
            deadline_ms: None,
            trace: false,
        };
        // Interleaved shapes; distinct ε so nothing is answer-cached.
        let batch = Request::Batch {
            id: Some(100),
            requests: vec![
                entry(TRIANGLE, 0, 0.11),
                entry("Q(*) :- Edge(a,b)", 1, 0.12),
                entry(TRIANGLE, 2, 0.13),
                entry("Q(*) :- Edge(a,b)", 3, 0.14),
            ],
        };
        let resp = server.handle(batch);
        let Response::Batch { id, responses } = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(id, Some(100));
        assert_eq!(responses.len(), 4);
        for (i, r) in responses.iter().enumerate() {
            let Response::Release { id, cached, .. } = r else {
                panic!("entry {i}: {r:?}")
            };
            assert_eq!(*id, Some(i as i64), "order preserved");
            assert!(!cached);
        }
        // 4 × distinct ε committed.
        assert!((server.budget().spent("p") - 0.5).abs() < 1e-9);
        // The family store was shared: the triangle shape was built once.
        let q = parse_query(TRIANGLE).unwrap();
        let engine = server.engine.read().unwrap();
        let stats = engine.family_stats(&q);
        assert!(stats.value_hits > 0, "stats {stats:?}");
    }

    #[test]
    fn handle_line_end_to_end() {
        let server = test_server(2.0);
        let line = format!(
            r#"{{"op":"release","query":"{}","principal":"alice","epsilon":0.5,"id":1}}"#,
            "Q(*) :- Edge(x, y)"
        );
        let out = server.handle_line(&line);
        let parsed = dpcq_wire::Json::parse(&out).unwrap();
        assert_eq!(
            parsed.get("ok").and_then(dpcq_wire::Json::as_bool),
            Some(true)
        );
        assert_eq!(parsed.get("id").and_then(dpcq_wire::Json::as_i128), Some(1));
        let bad = server.handle_line("{{nope");
        assert!(bad.contains("\"ok\":false"), "{bad}");
        // Stats reflect the session.
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        let parsed = dpcq_wire::Json::parse(&stats).unwrap();
        assert_eq!(
            parsed
                .get("release_cache_entries")
                .and_then(dpcq_wire::Json::as_i128),
            Some(1)
        );
    }

    #[test]
    fn shutdown_sets_the_flag() {
        let server = test_server(1.0);
        assert!(!server.is_shut_down());
        let r = server.handle(Request::Shutdown { id: Some(7) });
        assert!(matches!(r, Response::Shutdown { id: Some(7) }));
        assert!(server.is_shut_down());
    }

    fn overload_stats(server: &Server) -> OverloadStats {
        let stats = server.handle(Request::Stats { id: None });
        let Response::Stats { overload, .. } = stats else {
            panic!("{stats:?}")
        };
        overload
    }

    fn gated_server(config: ServerConfig) -> Server {
        Server::new(
            PrivateEngine::new(sym_db(), Policy::all_private(), 1.0).with_threads(1),
            config,
        )
    }

    #[test]
    fn admission_gate_caps_slots_and_cost_and_releases_on_drop() {
        let server = gated_server(ServerConfig {
            max_inflight_releases: 2,
            max_server_cost: Some(10),
            seed: Some(1),
            ..ServerConfig::default()
        });
        let p1 = server.try_admit(6).expect("idle gate admits");
        assert!(
            server.try_admit(6).is_none(),
            "6 + 6 exceeds the server cost ceiling"
        );
        let p2 = server.try_admit(4).expect("6 + 4 fits exactly");
        assert!(server.try_admit(0).is_none(), "both slots are taken");
        drop(p1);
        let p3 = server.try_admit(1).expect("slot and cost freed by drop");
        drop(p2);
        drop(p3);
        assert_eq!(server.overload.inflight.load(Ordering::SeqCst), 0);
        assert_eq!(server.overload.inflight_cost.load(Ordering::SeqCst), 0);
        // An idle gate admits even an over-ceiling request: the server
        // ceiling throttles concurrency, it never starves the server.
        let huge = server
            .try_admit(u128::MAX)
            .expect("idle gate admits anything");
        drop(huge);
        assert_eq!(server.overload.inflight_cost.load(Ordering::SeqCst), 0);
    }

    /// Tentpole: a saturated server sheds fresh work with a retryable
    /// frame — before any ε moves — while the replay tier keeps
    /// answering everything already published (invariants O1 and O3).
    #[test]
    fn saturated_server_sheds_fresh_work_but_still_replays_from_cache() {
        let server = gated_server(ServerConfig {
            max_inflight_releases: 0,
            seed: Some(7),
            ..ServerConfig::default()
        });
        let shed = server.handle(release_req(TRIANGLE, "p", Some(0.5)));
        let Response::Overloaded { retry_after_ms, .. } = shed else {
            panic!("{shed:?}")
        };
        assert_eq!(retry_after_ms, 100);
        assert_eq!(server.budget().spent("p"), 0.0, "shedding moved no ε");
        // Stand-in for answers published before saturation: seed the
        // release cache under the exact key the handler derives.
        let q = parse_query(TRIANGLE).unwrap();
        let stamp = server
            .engine()
            .read_set_stamp(&q, SensitivityMethod::Residual);
        let key = ReleaseKey::new(&q.to_string(), SensitivityMethod::Residual, 0.5, stamp);
        let mut rng = StdRng::seed_from_u64(3);
        let published = SmoothCauchyMechanism::new(0.5).release(RawAnswer::new(12), 3.0, &mut rng);
        server.cache.put(key, published);
        let replay = server.handle(release_req(TRIANGLE, "p", Some(0.5)));
        let Response::Release {
            release,
            cached: true,
            ..
        } = replay
        else {
            panic!("{replay:?}")
        };
        assert_eq!(release, published, "replay tier answers bit-identically");
        assert_eq!(server.budget().spent("p"), 0.0, "replay is free");
        let overload = overload_stats(&server);
        assert_eq!(overload.shed_requests, 1);
        assert_eq!(overload.inflight, 0);
    }

    #[test]
    fn over_ceiling_request_is_cost_rejected_before_any_spend() {
        let server = gated_server(ServerConfig {
            max_request_cost: Some(0),
            seed: Some(7),
            ..ServerConfig::default()
        });
        let r = server.handle(release_req(TRIANGLE, "p", Some(0.5)));
        assert!(matches!(r, Response::Overloaded { .. }), "{r:?}");
        assert_eq!(server.budget().spent("p"), 0.0);
        let overload = overload_stats(&server);
        assert_eq!(overload.cost_rejected, 1);
        assert_eq!(overload.shed_requests, 0, "cost rejection is not a shed");
    }

    #[test]
    fn expired_deadline_times_out_refunds_and_the_retry_succeeds() {
        let server = test_server(1.0);
        let timed_out = |id: i64| {
            Request::Release(ReleaseRequest {
                id: Some(id),
                principal: "p".into(),
                query: TRIANGLE.into(),
                method: SensitivityMethod::Residual,
                epsilon: Some(0.5),
                deadline_ms: Some(0),
                trace: false,
            })
        };
        let r = server.handle(timed_out(1));
        let Response::Error { id, error } = r else {
            panic!("{r:?}")
        };
        assert_eq!(id, Some(1));
        assert!(error.contains("timed out"), "{error}");
        assert_eq!(server.budget().spent("p"), 0.0, "timeout refunded in full");
        assert_eq!(overload_stats(&server).deadline_timeouts, 1);
        // The same query without a deadline completes and spends: the
        // timeout left the server fully serviceable.
        let ok = server.handle(release_req(TRIANGLE, "p", Some(0.5)));
        assert!(
            matches!(ok, Response::Release { cached: false, .. }),
            "{ok:?}"
        );
        assert!((server.budget().spent("p") - 0.5).abs() < 1e-9);
    }

    /// Satellite 3: a handler that panics while holding the engine
    /// *write* lock poisons it; the next request must recover the lock
    /// (validation-before-mutation means nothing is torn), answer, and
    /// spend — one panicked request never bricks the server.
    #[test]
    fn poisoned_engine_lock_recovers_and_the_next_release_spends() {
        let server = test_server(1.0);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = server.engine.write().unwrap();
            panic!("handler panicked mid-request");
        }));
        assert!(poisoned.is_err());
        assert!(
            server.engine.is_poisoned(),
            "the write-guard panic poisoned"
        );
        let ok = server.handle(release_req(TRIANGLE, "p", Some(0.5)));
        assert!(
            matches!(ok, Response::Release { cached: false, .. }),
            "{ok:?}"
        );
        assert!((server.budget().spent("p") - 0.5).abs() < 1e-9);
        // Mutations recover too.
        let upd = server.handle(Request::Insert {
            id: None,
            relation: "Edge".into(),
            tuple: vec![70, 71],
        });
        assert!(
            matches!(upd, Response::Updated { changed: true, .. }),
            "{upd:?}"
        );
    }

    /// The `server.lock.rng` failpoint sits between the ε reservation
    /// and the commit: firing it must refund exactly the reserved ε,
    /// and the next (unfaulted) request must succeed.
    #[test]
    fn injected_fault_between_reservation_and_commit_refunds() {
        dpcq_store::faults::with_exclusive(|| {
            let server = test_server(1.0);
            dpcq_store::faults::arm_failpoint("server.lock.rng");
            let r = server.handle(release_req(TRIANGLE, "p", Some(0.5)));
            let Response::Error { error, .. } = r else {
                panic!("{r:?}")
            };
            assert!(error.contains("injected fault"), "{error}");
            assert_eq!(server.budget().spent("p"), 0.0, "reservation refunded");
            let ok = server.handle(release_req(TRIANGLE, "p", Some(0.5)));
            assert!(
                matches!(ok, Response::Release { cached: false, .. }),
                "{ok:?}"
            );
            assert!((server.budget().spent("p") - 0.5).abs() < 1e-9);
        });
    }

    fn temp_data_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dpcq-server-test-{}-{tag}-{n}", std::process::id()))
    }

    fn durable_server(budget: f64, dir: &Path) -> Server {
        Server::recover(
            PrivateEngine::new(sym_db(), Policy::all_private(), 1.0).with_threads(1),
            ServerConfig {
                default_epsilon: 1.0,
                default_budget: budget,
                seed: Some(42),
                ..ServerConfig::default()
            },
            dir,
        )
        .expect("recover")
    }

    /// The tentpole, in-process: spend budget, mutate, cache a release,
    /// then drop the server without any shutdown handshake (the
    /// in-process analogue of `kill -9` — nothing is flushed at drop;
    /// every byte the recovery sees was already fsynced at commit time).
    /// Recovery must restore the ledger exactly, replay the cached
    /// answer bit-for-bit at zero ε, and keep enforcing the budget.
    #[test]
    fn durable_server_recovers_ledgers_cache_and_database_after_restart() {
        let dir = temp_data_dir("recover");
        let (r1, r2, spent_before);
        {
            let server = durable_server(2.0, &dir);
            // Fresh directory: nothing recovered yet.
            let stats = server.handle(Request::Stats { id: None });
            let Response::Stats {
                durability: Some(d),
                ..
            } = stats
            else {
                panic!("{stats:?}")
            };
            assert!(!d.recovered, "a fresh data dir recovers nothing");

            let ins = server.handle(Request::Insert {
                id: None,
                relation: "Edge".into(),
                tuple: vec![9, 10],
            });
            assert!(matches!(ins, Response::Updated { changed: true, .. }));
            let first = server.handle(release_req(TRIANGLE, "alice", Some(0.75)));
            let Response::Release {
                release,
                cached: false,
                ..
            } = first
            else {
                panic!("{first:?}")
            };
            r1 = release;
            let second = server.handle(release_req("Q(*) :- Edge(a,b)", "alice", Some(0.25)));
            let Response::Release {
                release,
                cached: false,
                ..
            } = second
            else {
                panic!("{second:?}")
            };
            r2 = release;
            spent_before = server.budget().spent("alice");
            assert!((spent_before - 1.0).abs() < 1e-9);
        }

        let server = durable_server(2.0, &dir);
        // Ledger: restored to the committed spend, bit-for-bit.
        assert_eq!(server.budget().spent("alice"), spent_before);
        // Cache: both pre-crash answers replay bit-identically for free.
        for (query, expected) in [(TRIANGLE, r1), ("Q(*) :- Edge(a,b)", r2)] {
            let again = server.handle(release_req(
                query,
                "alice",
                Some(f64::from_bits(expected.epsilon.to_bits())),
            ));
            let Response::Release {
                release,
                cached: true,
                ..
            } = again
            else {
                panic!("{again:?}")
            };
            assert_eq!(release, expected, "replay must be bit-identical");
        }
        assert_eq!(
            server.budget().spent("alice"),
            spent_before,
            "replay is free"
        );
        // Budget: still enforced against the restored ledger.
        let over = server.handle(release_req(
            "Q(*) :- Edge(a,b), Edge(b,c)",
            "alice",
            Some(1.5),
        ));
        let Response::Error { error, .. } = over else {
            panic!("{over:?}")
        };
        assert!(error.contains("budget exhausted"), "{error}");
        // Database: the pre-crash mutation survived (version vector too).
        let stats = server.handle(Request::Stats { id: None });
        let Response::Stats {
            relation_versions,
            durability: Some(d),
            ..
        } = stats
        else {
            panic!("{stats:?}")
        };
        assert_eq!(relation_versions, vec![("Edge".to_string(), 1)]);
        assert!(d.recovered);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_snapshot_compacts_the_wal_and_recovery_reads_it() {
        let dir = temp_data_dir("snapshot");
        let r1;
        {
            let server = durable_server(1.0, &dir);
            let first = server.handle(release_req(TRIANGLE, "p", Some(0.5)));
            let Response::Release { release, .. } = first else {
                panic!("{first:?}")
            };
            r1 = release;
            server.snapshot().expect("snapshot");
            let stats = server.handle(Request::Stats { id: None });
            let Response::Stats {
                durability: Some(d),
                ..
            } = stats
            else {
                panic!("{stats:?}")
            };
            assert_eq!(d.wal_records, 0, "a snapshot truncates the WAL");
            assert!(d.last_snapshot_generation >= 2, "{d:?}");
        }
        // Everything now lives in the snapshot alone.
        let server = durable_server(1.0, &dir);
        assert_eq!(server.budget().spent("p"), 0.5);
        let again = server.handle(release_req(TRIANGLE, "p", Some(0.5)));
        let Response::Release {
            release,
            cached: true,
            ..
        } = again
        else {
            panic!("{again:?}")
        };
        assert_eq!(release, r1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_op_returns_the_registry_as_json() {
        let server = test_server(1.0);
        let r = server.handle(Request::Metrics { id: Some(3) });
        let Response::Metrics {
            id: Some(3),
            metrics,
        } = r
        else {
            panic!("{r:?}")
        };
        for section in [
            "uptime_ms",
            "requests_total",
            "errors_total",
            "cache_hits_total",
            "events_total",
            "epsilon_spent_total",
            "stages",
        ] {
            assert!(metrics.get(section).is_some(), "missing `{section}`");
        }
    }

    /// `"trace": true` echoes the per-stage breakdown; a plain request
    /// carries no trace field, and a cached replay's trace is empty
    /// (the replay path records no stages — it bypasses all of them).
    #[cfg(feature = "obs")]
    #[test]
    fn traced_release_reports_stage_timings_and_untraced_does_not() {
        let server = test_server(f64::INFINITY);
        let traced = |query: &str| {
            Request::Release(ReleaseRequest {
                id: None,
                principal: "p".into(),
                query: query.into(),
                method: SensitivityMethod::Residual,
                epsilon: Some(0.5),
                deadline_ms: None,
                trace: true,
            })
        };
        let fresh = server.handle(traced(TRIANGLE));
        let Response::Release {
            trace: Some(stages),
            cached: false,
            ..
        } = fresh
        else {
            panic!("{fresh:?}")
        };
        let names: Vec<&str> = stages.iter().map(|&(n, _)| n).collect();
        for expected in ["admission", "reserve", "prepare", "sample"] {
            assert!(names.contains(&expected), "missing stage {expected}");
        }
        assert!(
            !names.contains(&"wal_append"),
            "non-durable server records no WAL stage"
        );
        let plain = server.handle(release_req("Q(*) :- Edge(a,b)", "p", Some(0.5)));
        let Response::Release { trace: None, .. } = plain else {
            panic!("{plain:?}")
        };
        let replay = server.handle(traced(TRIANGLE));
        let Response::Release {
            trace: Some(stages),
            cached: true,
            ..
        } = replay
        else {
            panic!("{replay:?}")
        };
        assert!(stages.is_empty(), "{stages:?}");
    }

    /// The stats frame's telemetry fields read the same global registry
    /// the `metrics` op and the Prometheus endpoint render. Counters are
    /// process-global (tests run concurrently), so the assertions are
    /// monotone deltas, never exact equalities.
    #[cfg(feature = "obs")]
    #[test]
    fn stats_telemetry_fields_come_from_the_registry() {
        let count = |table: &[(&'static str, u64)], op: &str| {
            table.iter().find(|&&(n, _)| n == op).map_or(0, |&(_, c)| c)
        };
        let before = dpcq_obs::snapshot();
        let server = test_server(f64::INFINITY);
        server.handle(release_req(TRIANGLE, "p", Some(0.5)));
        server.handle(release_req(TRIANGLE, "p", Some(0.5)));
        let bad = server.handle(release_req("Q(*) :- Nope(x)", "p", Some(0.5)));
        assert!(matches!(bad, Response::Error { .. }));
        let stats = server.handle(Request::Stats { id: None });
        let Response::Stats {
            requests_total,
            errors_total,
            uptime_ms,
            ..
        } = stats
        else {
            panic!("{stats:?}")
        };
        assert!(
            count(&requests_total, "release") >= count(&before.requests, "release") + 3,
            "{requests_total:?}"
        );
        assert!(count(&requests_total, "stats") > count(&before.requests, "stats"));
        assert!(errors_total > before.errors_total);
        assert!(uptime_ms >= before.uptime_ms);
    }

    /// `--metrics-addr`: `serve` spawns the Prometheus sidecar, the
    /// bound address is discoverable, a scrape returns the exposition
    /// with the headline series, and shutdown retires it.
    #[cfg(feature = "obs")]
    #[test]
    fn serve_exposes_prometheus_metrics_on_the_sidecar_port() {
        use std::io::Read as _;
        let server = Arc::new(gated_server(ServerConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            seed: Some(11),
            ..ServerConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let serve_thread = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve(listener))
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        let maddr = loop {
            if let Some(a) = server.metrics_bound() {
                break a;
            }
            assert!(Instant::now() < deadline, "metrics endpoint never bound");
            std::thread::sleep(Duration::from_millis(10));
        };
        // One fresh release and one cached replay move the counters the
        // scrape must report (the registry is global: in-process handles
        // and socket frames land in the same place).
        server.handle(release_req(TRIANGLE, "p", Some(0.5)));
        server.handle(release_req(TRIANGLE, "p", Some(0.5)));
        let mut stream = TcpStream::connect(maddr).expect("connect metrics");
        write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").expect("send scrape");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read scrape");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response:?}");
        assert!(response.contains("text/plain; version=0.0.4"));
        for series in [
            "dpcq_requests_total{op=\"release\"}",
            "dpcq_stage_seconds_bucket{stage=\"sample\"",
            "dpcq_cache_hits_total{cache=\"release\"}",
            "dpcq_uptime_seconds",
        ] {
            assert!(response.contains(series), "missing `{series}`");
        }
        server.handle(Request::Shutdown { id: None });
        serve_thread
            .join()
            .expect("serve thread exits")
            .expect("serve ok");
        assert_eq!(
            server.metrics_bound(),
            None,
            "shutdown retires the endpoint"
        );
    }
}
