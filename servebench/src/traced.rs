//! The traced run: the socket run's exact request stream replayed
//! in-process, calling each layer's public functions in the order
//! `Server::handle` calls them, with one span per call.
//!
//! Spans stay in memory and are reduced to per-layer metrics at the end.
//! For fresh residual and elastic releases a *side evaluation* repeats the
//! sensitivity work split into `eval.count` / `eval.t_family` /
//! `sensitivity.*` spans; those are reported as their own spans and never
//! counted in the request's traced total.

use crate::stats::{median, quantile, ratio};
use crate::workload::{Op, Plan};
use crate::SocketRun;
use dpcq::eval::{Evaluator, FamilyCache, FamilyEvaluator, FamilyStats};
use dpcq::noise::SmoothCauchyMechanism;
use dpcq::prelude::*;
use dpcq::query::ConjunctiveQuery;
use dpcq::sensitivity::prep::required_subsets;
use dpcq::sensitivity::{elastic_sensitivity, residual_sensitivity_report, RsParams};
use dpcq_server::durability::Durability;
use dpcq_server::{BudgetAccountant, DurableRecord, ReleaseCache, ReleaseKey, Request, Response};
use dpcq_wire::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Side caches kept for re-asked shapes (the first shapes released, i.e.
/// the warm-up's); later shapes are side-evaluated cold and dropped.
const SIDE_CACHES: usize = 16;

struct Span {
    name: &'static str,
    /// Index of the request (stream step) that caused the span.
    parent: usize,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Whether a span belongs to the request path (as opposed to the side
/// evaluation).
fn on_request_path(name: &str) -> bool {
    !(name.starts_with("eval.") || name.starts_with("sensitivity."))
}

/// The in-process mirror of one `dpcq serve` instance, built the way
/// `dpcq serve` builds it (default config, all relations private).
struct Mirror {
    engine: PrivateEngine,
    budget: BudgetAccountant,
    cache: ReleaseCache,
    rng: StdRng,
    durability: Option<Durability>,
    side: HashMap<String, (ConjunctiveQuery, Arc<FamilyCache>)>,
    side_stats: FamilyStats,
    refused: u64,
    /// WAL bytes already folded away by snapshots.
    wal_reset_bytes: u64,
    /// Request bytes whose handling appended a WAL record.
    logged_user_bytes: u64,
}

impl Mirror {
    fn wal_bytes(&self) -> u64 {
        self.wal_reset_bytes + self.durability.as_ref().map_or(0, |d| d.stats().wal_bytes)
    }

    fn release(&mut self, tr: &mut Tracer, id: usize, frame: &str) -> Result<(bool, f64), String> {
        let request = tr.time("server.protocol.parse", id, || Request::parse_line(frame))?;
        let Request::Release(r) = request else {
            return Err("not a release frame".into());
        };
        let epsilon = r.epsilon.unwrap_or(1.0);
        let (query, canonical) = tr
            .time("query.parse", id, || {
                parse_query(&r.query).map(|q| {
                    let text = q.to_string();
                    (q, text)
                })
            })
            .map_err(|e| format!("query does not parse: {e}"))?;
        let engine = &self.engine;
        let (generation, key) = tr.time("core.engine.stamp", id, || {
            let stamp = engine.read_set_stamp(&query, r.method);
            (
                engine.generation(),
                ReleaseKey::new(&canonical, r.method, epsilon, stamp),
            )
        });
        let cache = &self.cache;
        if let Some(release) = tr.time("server.cache.get", id, || cache.get(&key)) {
            let budget = &self.budget;
            tr.time("server.protocol.render", id, || {
                Response::Release {
                    id: r.id,
                    method: r.method,
                    release,
                    cached: true,
                    generation,
                    remaining: finite(budget.remaining(&r.principal)),
                    trace: None,
                }
                .render_line()
            });
            return Ok((true, release.value.get()));
        }
        tr.time("core.engine.estimate", id, || {
            engine.estimate_release_cost(&query, r.method)
        });
        let budget = &self.budget;
        let reservation = match tr.time("server.budget.reserve", id, || {
            budget.reserve(&r.principal, epsilon)
        }) {
            Ok(res) => res,
            Err(e) => {
                self.refused += 1;
                return Err(e.to_string());
            }
        };
        let cold = engine.family_stats(&query) == FamilyStats::default();
        let pending = tr
            .time("core.engine.prepare", id, || {
                engine.prepare_release(&query, r.method, epsilon)
            })
            .map_err(|e| format!("release failed: {e}"))?;
        let rng = &mut self.rng;
        let release = tr.time("noise.sample", id, || pending.sample(rng));
        if let Some(d) = &self.durability {
            let record = DurableRecord::Release {
                principal: r.principal.clone(),
                key: key.clone(),
                release,
            };
            tr.time("server.durability.log", id, || d.log_commit(&record))?;
            self.logged_user_bytes += frame.len() as u64;
        }
        tr.time("server.budget.commit", id, || reservation.commit());
        tr.time("server.cache.put", id, || cache.put(key, release));
        tr.time("server.protocol.render", id, || {
            Response::Release {
                id: r.id,
                method: r.method,
                release,
                cached: false,
                generation,
                remaining: finite(budget.remaining(&r.principal)),
                trace: None,
            }
            .render_line()
        });
        self.side_eval(tr, id, &query, &canonical, r.method, epsilon, cold)?;
        Ok((false, release.value.get()))
    }

    /// The eval / sensitivity split of a fresh release, on the side.
    #[allow(clippy::too_many_arguments)]
    fn side_eval(
        &mut self,
        tr: &mut Tracer,
        id: usize,
        query: &ConjunctiveQuery,
        canonical: &str,
        method: SensitivityMethod,
        epsilon: f64,
        cold: bool,
    ) -> Result<(), String> {
        let beta = SmoothCauchyMechanism::new(epsilon).beta();
        let db = self.engine.database();
        let policy = self.engine.policy();
        let threads = self.engine.threads();
        match method {
            SensitivityMethod::Residual => {
                let comparisons = query
                    .predicates()
                    .iter()
                    .any(|p| p.is_comparison() && !p.variables().is_empty());
                let cache = if cold || !self.side.contains_key(canonical) {
                    let cache = Arc::new(FamilyCache::new());
                    if !comparisons {
                        let ev = Evaluator::new(query, db).map_err(|e| e.to_string())?;
                        tr.time("eval.count", id, || ev.count())
                            .map_err(|e| e.to_string())?;
                        let family = required_subsets(query, policy);
                        let fe = FamilyEvaluator::with_cache(&ev, Arc::clone(&cache));
                        tr.time("eval.t_family", id, || fe.t_family(&family, threads))
                            .map_err(|e| e.to_string())?;
                        let s = fe.stats();
                        self.side_stats.factor_hits += s.factor_hits;
                        self.side_stats.factor_misses += s.factor_misses;
                        self.side_stats.values_computed += s.values_computed;
                    }
                    if self.side.len() < SIDE_CACHES {
                        self.side
                            .insert(canonical.to_string(), (query.clone(), Arc::clone(&cache)));
                    }
                    cache
                } else {
                    Arc::clone(&self.side[canonical].1)
                };
                let params = RsParams::new(beta)
                    .with_threads(threads)
                    .with_shared_cache(cache);
                tr.time("sensitivity.residual", id, || {
                    residual_sensitivity_report(query, db, policy, &params)
                })
                .map_err(|e| e.to_string())?;
            }
            SensitivityMethod::Elastic => {
                tr.time("sensitivity.elastic", id, || {
                    elastic_sensitivity(query, db, policy, beta)
                })
                .map_err(|e| e.to_string())?;
            }
            SensitivityMethod::GlobalLaplace => {}
        }
        Ok(())
    }

    fn mutate(&mut self, tr: &mut Tracer, id: usize, frame: &str) -> Result<usize, String> {
        let request = tr.time("server.protocol.parse", id, || Request::parse_line(frame))?;
        let Request::MutateBatch {
            id: rid,
            relation,
            tuples,
            insert,
        } = request
        else {
            return Err("not a batch mutation frame".into());
        };
        let engine = &mut self.engine;
        // The server computes the batch's effective subset itself (no
        // public call); it is timed as its own span on the request path.
        let effective = tr.time("server.mutation.effective", id, || {
            let rows: Vec<Vec<Value>> = tuples
                .iter()
                .map(|t| t.iter().map(|&v| Value(v)).collect())
                .collect();
            let mut effective: Vec<Vec<Value>> = Vec::new();
            for row in &rows {
                if effective.iter().any(|r| r == row) {
                    continue;
                }
                let present = engine
                    .database()
                    .relation(&relation)
                    .is_some_and(|rel| rel.contains(row));
                if insert != present {
                    effective.push(row.clone());
                }
            }
            effective
        });
        if let (Some(d), false) = (&self.durability, effective.is_empty()) {
            let record = DurableRecord::BatchMutation {
                insert,
                relation: relation.clone(),
                tuples: effective
                    .iter()
                    .map(|r| r.iter().map(|v| v.0).collect())
                    .collect(),
            };
            tr.time("server.durability.log", id, || d.log_mutation(&record))?;
            self.logged_user_bytes += frame.len() as u64;
        }
        let changed = tr.time("core.engine.mutate", id, || {
            if insert {
                engine.insert_tuples(&relation, &effective)
            } else {
                engine.remove_tuples(&relation, &effective)
            }
        });
        let generation = engine.generation();
        if changed > 0 {
            let version = engine.relation_version(&relation);
            let cache = &self.cache;
            tr.time("server.cache.invalidate", id, || {
                cache.invalidate_relation(&relation, version)
            });
        }
        let op: &'static str = if insert {
            "insert_batch"
        } else {
            "remove_batch"
        };
        tr.time("server.protocol.render", id, || {
            Response::UpdatedBatch {
                id: rid,
                op,
                changed,
                generation,
            }
            .render_line()
        });
        // Keep the side caches valid the way the engine keeps its own.
        let engine = &self.engine;
        self.side.retain(|_, (q, cache)| {
            if !engine.read_set(q).contains(&relation) {
                return true;
            }
            let post = engine.read_set_stamp(q, SensitivityMethod::Residual);
            matches!(
                cache.apply_delta(q, &relation, &effective, insert, Some(post)),
                dpcq::eval::DeltaOutcome::Applied { .. }
            )
        });
        Ok(changed)
    }

    /// `Server::handle`'s post-dispatch snapshot check.
    fn maybe_snapshot(&mut self, tr: &mut Tracer, id: usize) -> Result<(), String> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        if !tr.time("server.durability.should_snapshot", id, || {
            d.should_snapshot()
        }) {
            return Ok(());
        }
        let before = d.stats().wal_bytes;
        let (budget, engine, cache) = (&self.budget, &self.engine, &self.cache);
        tr.time("server.durability.snapshot", id, || {
            d.write_snapshot(
                budget.committed_spend_snapshot(),
                engine.export_image(),
                cache.entries(),
            )
        })?;
        self.wal_reset_bytes += before;
        Ok(())
    }
}

fn finite(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

/// Result of the traced replay.
pub struct Traced {
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub report: Json,
    pub errors: Vec<String>,
}

pub fn replay(plan: &Plan, run: &SocketRun, seed: u64, work: &Path) -> Result<Traced, String> {
    let mut db = Database::new();
    for t in &plan.tables {
        for r in &t.rows {
            db.insert_tuple(t.name, &[Value(r[0]), Value(r[1])]);
        }
    }
    let engine = PrivateEngine::new(db, Policy::all_private(), 1.0);
    let data_dir = work.join("traced-data");
    let durability = if plan.durable {
        let (d, snapshot, records) = Durability::open(&data_dir)?;
        if snapshot.is_some() || !records.is_empty() {
            return Err("traced data dir is not fresh".into());
        }
        Some(d)
    } else {
        None
    };
    let mut m = Mirror {
        engine,
        budget: BudgetAccountant::new(plan.budget.unwrap_or(f64::INFINITY)),
        cache: ReleaseCache::new(),
        rng: StdRng::seed_from_u64(seed),
        durability,
        side: HashMap::new(),
        side_stats: FamilyStats::default(),
        refused: 0,
        wal_reset_bytes: 0,
        logged_user_bytes: 0,
    };
    if let Some(d) = &m.durability {
        // First boot pins the bootstrap database, as `Server::recover` does.
        d.write_snapshot(Vec::new(), m.engine.export_image(), Vec::new())?;
    }

    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut errors = Vec::new();
    let mut mismatches = 0usize;
    let mut at_setup_end = None;
    for (index, step) in run.steps.iter().enumerate() {
        if index == run.setup_len {
            at_setup_end = Some(Counters::read(&m));
        }
        let frame = step.frame(index as u64);
        let outcome = match &step.op {
            Op::Release { .. } => m.release(&mut tr, index, &frame).map(Some),
            Op::Mutate { .. } => m.mutate(&mut tr, index, &frame).map(|_| None),
        };
        match outcome {
            Ok(Some((cached, value))) if index >= run.setup_len => {
                let socket = &run.samples[index - run.setup_len];
                if socket.cached != Some(cached)
                    || socket.value.map(f64::to_bits) != Some(value.to_bits())
                {
                    mismatches += 1;
                }
            }
            Ok(_) => {}
            Err(e) => {
                if errors.len() < 20 {
                    errors.push(format!("traced request {index}: {e}"));
                }
            }
        }
        m.maybe_snapshot(&mut tr, index)?;
    }
    let start = at_setup_end.unwrap_or_else(|| Counters::read(&m));
    let end = Counters::read(&m);
    let entries = m.cache.len();
    let side_stats = FamilyStats {
        factor_hits: end.side.factor_hits - start.side.factor_hits,
        factor_misses: end.side.factor_misses - start.side.factor_misses,
        values_computed: end.side.values_computed - start.side.values_computed,
        ..FamilyStats::default()
    };
    let refused = m.refused;
    let durable = m.durability.is_some();
    drop(m);
    let recover_ms = if durable {
        let t = Instant::now();
        let opened = Durability::open(&data_dir)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(opened);
        ms
    } else {
        0.0
    };

    // Reduce spans over the timed phase.
    let timed: Vec<&Span> = tr
        .spans
        .iter()
        .filter(|s| s.parent >= run.setup_len)
        .collect();
    let durations = |name: &str| -> Vec<f64> {
        timed
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    };
    let p50_us = |name: &str| median(&durations(name));
    let busy_ms = |name: &str| durations(name).iter().fold(0.0, |a, d| a + d) / 1e3;
    let mut traced_total: BTreeMap<usize, f64> = BTreeMap::new();
    for s in &timed {
        if on_request_path(s.name) {
            *traced_total.entry(s.parent).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
    }
    // The gap is taken over cache hits: on evaluating requests the two
    // runs' difference in host speed swamps the socket's share.
    let mut gaps = Vec::new();
    let mut per_class: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (&index, &total) in &traced_total {
        let sample = &run.samples[index - run.setup_len];
        if sample.cached == Some(true) {
            gaps.push(sample.latency_us - total);
        }
        let e = per_class.entry(sample.class.name()).or_default();
        e.0.push(total);
        e.1.push(sample.latency_us);
    }
    let prepare = durations("core.engine.prepare");
    let t_family = durations("eval.t_family");
    let residual = durations("sensitivity.residual");
    let mutate = durations("core.engine.mutate");
    let hits = (end.cache_hits - start.cache_hits) as f64;
    let misses = (end.cache_misses - start.cache_misses) as f64;
    let retained = (end.scoped_hits - start.scoped_hits) as f64;
    let dropped = (end.scoped_misses - start.scoped_misses) as f64;
    let wal = (end.wal_bytes - start.wal_bytes) as f64;
    let user = (end.user_bytes - start.user_bytes) as f64;
    let factor_total = (side_stats.factor_hits + side_stats.factor_misses) as f64;
    let snapshots = durations("server.durability.snapshot");

    let metrics: Vec<(&'static str, &'static str, f64)> = vec![
        ("server.serve.unattributed_us_p50", "us", median(&gaps)),
        (
            "server.protocol.parse_us_p50",
            "us",
            p50_us("server.protocol.parse"),
        ),
        (
            "server.protocol.parse_busy_ms",
            "ms",
            busy_ms("server.protocol.parse"),
        ),
        (
            "server.protocol.render_us_p50",
            "us",
            p50_us("server.protocol.render"),
        ),
        (
            "server.protocol.render_busy_ms",
            "ms",
            busy_ms("server.protocol.render"),
        ),
        ("query.parse_us_p50", "us", p50_us("query.parse")),
        ("query.parse_busy_ms", "ms", busy_ms("query.parse")),
        (
            "core.engine.stamp_us_p50",
            "us",
            p50_us("core.engine.stamp"),
        ),
        (
            "core.engine.estimate_us_p50",
            "us",
            p50_us("core.engine.estimate"),
        ),
        ("server.cache.get_us_p50", "us", p50_us("server.cache.get")),
        (
            "server.cache.hit_ratio",
            "ratio",
            ratio(hits, hits + misses),
        ),
        ("server.cache.entries", "count", entries as f64),
        (
            "server.cache.invalidate_busy_ms",
            "ms",
            busy_ms("server.cache.invalidate"),
        ),
        (
            "server.cache.scoped_retained_ratio",
            "ratio",
            ratio(retained, retained + dropped),
        ),
        (
            "server.budget.reserve_us_p50",
            "us",
            p50_us("server.budget.reserve"),
        ),
        ("server.budget.refused", "count", refused as f64),
        ("core.engine.prepare_ms_p50", "ms", median(&prepare) / 1e3),
        (
            "core.engine.prepare_ms_p90",
            "ms",
            quantile(&prepare, 0.9) / 1e3,
        ),
        (
            "core.engine.prepare_busy_ms",
            "ms",
            busy_ms("core.engine.prepare"),
        ),
        ("eval.count_busy_ms", "ms", busy_ms("eval.count")),
        ("eval.t_family_busy_ms", "ms", busy_ms("eval.t_family")),
        ("eval.t_family_ms_p50", "ms", median(&t_family) / 1e3),
        (
            "eval.factors_built",
            "count",
            side_stats.factor_misses as f64,
        ),
        (
            "eval.factor_hit_ratio",
            "ratio",
            ratio(side_stats.factor_hits as f64, factor_total),
        ),
        (
            "eval.values_computed",
            "count",
            side_stats.values_computed as f64,
        ),
        (
            "sensitivity.residual_busy_ms",
            "ms",
            busy_ms("sensitivity.residual"),
        ),
        ("sensitivity.residual_ms_p50", "ms", median(&residual) / 1e3),
        (
            "sensitivity.elastic_busy_ms",
            "ms",
            busy_ms("sensitivity.elastic"),
        ),
        ("noise.sample_us_p50", "us", p50_us("noise.sample")),
        ("core.engine.mutate_ms_p50", "ms", median(&mutate) / 1e3),
        (
            "core.engine.mutate_busy_ms",
            "ms",
            busy_ms("core.engine.mutate"),
        ),
        (
            "eval.delta.applied",
            "count",
            (end.delta.0 - start.delta.0) as f64,
        ),
        (
            "eval.delta.fallback",
            "count",
            (end.delta.1 - start.delta.1) as f64,
        ),
        (
            "eval.delta.rows",
            "count",
            (end.delta.2 - start.delta.2) as f64,
        ),
        (
            "server.durability.log_us_p50",
            "us",
            p50_us("server.durability.log"),
        ),
        (
            "server.durability.log_busy_ms",
            "ms",
            busy_ms("server.durability.log"),
        ),
        (
            "server.durability.snapshots",
            "count",
            snapshots.len() as f64,
        ),
        (
            "server.durability.snapshot_ms",
            "ms",
            median(&snapshots) / 1e3,
        ),
        ("server.durability.recover_ms", "ms", recover_ms),
        ("store.wal_bytes_per_user_byte", "ratio", ratio(wal, user)),
    ];

    let classes = Json::Obj(
        per_class
            .iter()
            .map(|(name, (traced, untraced))| {
                (
                    name.to_string(),
                    Json::obj([
                        ("n", Json::Int(traced.len() as i128)),
                        ("traced_total_p50_us", Json::Num(median(traced))),
                        ("untraced_p50_us", Json::Num(median(untraced))),
                        ("traced_total_p90_us", Json::Num(quantile(traced, 0.9))),
                        ("untraced_p90_us", Json::Num(quantile(untraced, 0.9))),
                    ]),
                )
            })
            .collect(),
    );
    let report = Json::obj([
        ("classes", classes),
        ("spans", Json::Int(tr.spans.len() as i128)),
        ("socket_mismatches", Json::Int(mismatches as i128)),
    ]);
    if mismatches > 0 {
        errors.push(format!(
            "{mismatches} traced requests disagreed with the socket run (cached flag or value)"
        ));
    }
    Ok(Traced {
        metrics,
        report,
        errors,
    })
}

/// Monotone counters read at the end of set-up and at the end.
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    scoped_hits: u64,
    scoped_misses: u64,
    delta: (u64, u64, u64),
    wal_bytes: u64,
    user_bytes: u64,
    side: FamilyStats,
}

impl Counters {
    fn read(m: &Mirror) -> Counters {
        let (cache_hits, cache_misses) = m.cache.counters();
        let (scoped_hits, scoped_misses) = m.cache.scoped_counters();
        Counters {
            cache_hits,
            cache_misses,
            scoped_hits,
            scoped_misses,
            delta: m.engine.delta_stats(),
            wal_bytes: m.wal_bytes(),
            user_bytes: m.logged_user_bytes,
            side: m.side_stats,
        }
    }
}
