#![deny(unsafe_code)]
//! `dpcq-obs` — lock-cheap telemetry for the serving stack.
//!
//! One process-global registry of atomic counters, gauges, and fixed
//! log-bucket latency histograms ([`hist`]), fed by free functions and
//! the RAII [`Span`]/[`Trace`] APIs and drained by [`snapshot`] (typed),
//! the server's `metrics` wire op (JSON), and [`prometheus_text`]
//! (Prometheus text exposition for `dpcq serve --metrics-addr`). The hot
//! path is a handful of `Relaxed` `fetch_add`s — no locks, no
//! allocation, no formatting.
//!
//! ## Telemetry-privacy contract (invariants P1–P3)
//!
//! This crate sits *outside* the differential-privacy boundary, so its
//! design rule is absolute: telemetry records **timings, counts, and ε
//! totals only** — never a query result, a noisy release value, or a
//! tuple. Concretely:
//!
//! * **P1** — every recording entry point accepts only pre-defined enum
//!   labels ([`Op`], [`Stage`], [`CacheKind`], [`Event`], [`GaugeId`])
//!   and unsigned counts/durations; there is no API that accepts a
//!   string or float payload except [`add_epsilon_spent`], which takes
//!   the publicly announced per-release ε.
//! * **P2** — the taint types `RawAnswer`/`Released` are unnameable
//!   here (this crate depends on nothing but `std`) and must stay
//!   unnameable at every instrumentation call site; `dpa check` rule R6
//!   enforces both directions.
//! * **P3** — everything exported is post-processing of information the
//!   server already released or announced (request counts, stage
//!   durations, ε spend), so the exposition endpoint adds no privacy
//!   cost. Duration side channels are out of scope here exactly as they
//!   are for the serving path itself.
//!
//! The whole facility is gated behind the default-on `enabled` cargo
//! feature; without it every entry point is an inert
//! `#[inline(always)]` stub (the same pattern as `dpcq-store`'s
//! failpoints), which is the baseline side of the bench overhead guard.

pub mod hist;
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};

mod expose;
pub use expose::render_prometheus;

/// Wire operations counted by `requests_total`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Release,
    Batch,
    Insert,
    Remove,
    InsertBatch,
    RemoveBatch,
    Budget,
    Stats,
    Metrics,
    Shutdown,
}

impl Op {
    /// Every op, in label order.
    pub const ALL: [Op; 10] = [
        Op::Release,
        Op::Batch,
        Op::Insert,
        Op::Remove,
        Op::InsertBatch,
        Op::RemoveBatch,
        Op::Budget,
        Op::Stats,
        Op::Metrics,
        Op::Shutdown,
    ];

    /// The `op` label value.
    pub fn name(self) -> &'static str {
        match self {
            Op::Release => "release",
            Op::Batch => "batch",
            Op::Insert => "insert",
            Op::Remove => "remove",
            Op::InsertBatch => "insert_batch",
            Op::RemoveBatch => "remove_batch",
            Op::Budget => "budget",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
        }
    }
}

/// Request-lifecycle stages timed into per-stage histograms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Admission gate (permit acquisition) in the server.
    Admission,
    /// Budget reservation against the principal's ledger.
    Reserve,
    /// The deterministic half of a release (`prepare_release`).
    Prepare,
    /// The noise draw under the RNG lock.
    Sample,
    /// Durability append (server-side WAL record, write + fsync).
    WalAppend,
    /// The fsync portion of a WAL append, timed inside the store.
    WalFsync,
    /// Response serialization + socket flush.
    Flush,
    /// Atomic snapshot write in the store.
    SnapshotWrite,
    /// One intermediate-factor build inside the evaluation engine.
    FactorBuild,
    /// One semi-naive delta pass patching a retained family cache.
    DeltaApply,
}

impl Stage {
    /// Every stage, in label order.
    pub const ALL: [Stage; 10] = [
        Stage::Admission,
        Stage::Reserve,
        Stage::Prepare,
        Stage::Sample,
        Stage::WalAppend,
        Stage::WalFsync,
        Stage::Flush,
        Stage::SnapshotWrite,
        Stage::FactorBuild,
        Stage::DeltaApply,
    ];

    /// The `stage` label value.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::Reserve => "reserve",
            Stage::Prepare => "prepare",
            Stage::Sample => "sample",
            Stage::WalAppend => "wal_append",
            Stage::WalFsync => "wal_fsync",
            Stage::Flush => "flush",
            Stage::SnapshotWrite => "snapshot_write",
            Stage::FactorBuild => "factor_build",
            Stage::DeltaApply => "delta_apply",
        }
    }
}

/// Caches whose hit/miss behavior is attributed per kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheKind {
    /// The server's release (result replay) cache.
    Release,
    /// Scoped invalidation outcome per cached release: a "hit" is an
    /// entry *retained* across a mutation, a "miss" one dropped.
    Scoped,
    /// The engine's per-shape `FamilyCache` slots (reuse vs. rebuild).
    Shape,
    /// The evaluation engine's intermediate-factor memo store.
    Factor,
    /// The residual-isomorphism value cache: a "miss" is a residual
    /// class actually computed, a "hit" one reused.
    Value,
}

impl CacheKind {
    /// Every cache kind, in label order.
    pub const ALL: [CacheKind; 5] = [
        CacheKind::Release,
        CacheKind::Scoped,
        CacheKind::Shape,
        CacheKind::Factor,
        CacheKind::Value,
    ];

    /// The `cache` label value.
    pub fn name(self) -> &'static str {
        match self {
            CacheKind::Release => "release",
            CacheKind::Scoped => "scoped",
            CacheKind::Shape => "shape",
            CacheKind::Factor => "factor",
            CacheKind::Value => "value",
        }
    }
}

/// Counted one-off events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// Request shed by the admission gate.
    Shed,
    /// Release aborted by its deadline.
    DeadlineTimeout,
    /// Request rejected by the per-request cost ceiling.
    CostRejected,
    /// Residual class pulled by a work-stealing evaluation worker.
    WorkSteal,
    /// Cancellation observed inside a family evaluation.
    CancelTrip,
    /// Request that crossed the `--slow-ms` threshold.
    SlowQuery,
    /// Dirty shape whose cache absorbed a mutation in place by a
    /// semi-naive delta pass.
    DeltaApplied,
    /// Dirty shape whose cache was dropped instead of patched (delta
    /// refused, stale stamp, or comparison-materialized shape); the
    /// `stats` frame's `delta.fallback` counts the same thing.
    DeltaFallback,
}

impl Event {
    /// Every event, in label order.
    pub const ALL: [Event; 8] = [
        Event::Shed,
        Event::DeadlineTimeout,
        Event::CostRejected,
        Event::WorkSteal,
        Event::CancelTrip,
        Event::SlowQuery,
        Event::DeltaApplied,
        Event::DeltaFallback,
    ];

    /// The `event` label value.
    pub fn name(self) -> &'static str {
        match self {
            Event::Shed => "shed",
            Event::DeadlineTimeout => "deadline_timeout",
            Event::CostRejected => "cost_rejected",
            Event::WorkSteal => "work_steal",
            Event::CancelTrip => "cancel_trip",
            Event::SlowQuery => "slow_query",
            Event::DeltaApplied => "delta_applied",
            Event::DeltaFallback => "delta_fallback",
        }
    }
}

/// Point-in-time gauges.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GaugeId {
    /// Releases currently inside the admission gate.
    Inflight,
    /// Open client connections.
    Connections,
}

impl GaugeId {
    /// Every gauge, in label order.
    pub const ALL: [GaugeId; 2] = [GaugeId::Inflight, GaugeId::Connections];

    /// The exported metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::Inflight => "inflight",
            GaugeId::Connections => "connections",
        }
    }
}

/// Hit/miss counters of one cache kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// The `cache` label value.
    pub name: &'static str,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups (or invalidation outcomes) that were not.
    pub misses: u64,
}

/// One stage's latency histogram, as plain data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// The `stage` label value.
    pub stage: &'static str,
    /// Total observations.
    pub count: u64,
    /// Sum of observed durations, nanoseconds.
    pub sum_ns: u64,
    /// Cumulative buckets: `(upper bound ns, observations ≤ bound)`,
    /// the `+Inf` slot encoded as `u64::MAX` last.
    pub cumulative: Vec<(u64, u64)>,
}

/// A point-in-time copy of the whole registry. With the `enabled`
/// feature off this is always [`Snapshot::default`] (everything empty).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Milliseconds since the registry came up.
    pub uptime_ms: u64,
    /// `(op, count)` for every [`Op`], zeros included.
    pub requests: Vec<(&'static str, u64)>,
    /// Requests answered with an error frame.
    pub errors_total: u64,
    /// Hit/miss counters for every [`CacheKind`].
    pub caches: Vec<CacheCounters>,
    /// `(event, count)` for every [`Event`].
    pub events: Vec<(&'static str, u64)>,
    /// `(gauge, value)` for every [`GaugeId`].
    pub gauges: Vec<(&'static str, u64)>,
    /// Cumulative ε committed across every release.
    pub epsilon_spent: f64,
    /// One latency histogram per [`Stage`].
    pub stages: Vec<StageSnapshot>,
}

#[cfg(feature = "enabled")]
mod live {
    use super::{CacheCounters, CacheKind, Event, GaugeId, Op, Snapshot, Stage, StageSnapshot};
    use crate::hist::Histogram;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    use std::time::Instant;

    struct Registry {
        start: Instant,
        requests: [AtomicU64; Op::ALL.len()],
        errors: AtomicU64,
        cache_hits: [AtomicU64; CacheKind::ALL.len()],
        cache_misses: [AtomicU64; CacheKind::ALL.len()],
        events: [AtomicU64; Event::ALL.len()],
        gauges: [AtomicU64; GaugeId::ALL.len()],
        /// Cumulative ε as `f64` bits, updated by CAS.
        epsilon_bits: AtomicU64,
        stages: [Histogram; Stage::ALL.len()],
    }

    fn registry() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(|| Registry {
            start: Instant::now(),
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            errors: AtomicU64::new(0),
            cache_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            cache_misses: std::array::from_fn(|_| AtomicU64::new(0)),
            events: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            epsilon_bits: AtomicU64::new(0f64.to_bits()),
            stages: std::array::from_fn(|_| Histogram::new()),
        })
    }

    /// Forces the registry into existence so `uptime_ms` counts from
    /// here (a server calls this at build time) rather than from the
    /// first recorded sample.
    pub fn init() {
        let _ = registry();
    }

    /// Counts one wire request of `op`.
    pub fn inc_request(op: Op) {
        registry().requests[op as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one error response.
    pub fn inc_error() {
        registry().errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one lookup against `kind` as a hit or a miss.
    pub fn cache_access(kind: CacheKind, hit: bool) {
        let r = registry();
        let slot = if hit {
            &r.cache_hits[kind as usize]
        } else {
            &r.cache_misses[kind as usize]
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    /// Bulk-adds hit/miss counts for `kind` (e.g. entries retained vs.
    /// dropped by one scoped invalidation).
    pub fn cache_add(kind: CacheKind, hits: u64, misses: u64) {
        let r = registry();
        r.cache_hits[kind as usize].fetch_add(hits, Ordering::Relaxed);
        r.cache_misses[kind as usize].fetch_add(misses, Ordering::Relaxed);
    }

    /// Counts one occurrence of `event`.
    pub fn inc_event(event: Event) {
        registry().events[event as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Moves `gauge` by `delta` (two's-complement add, so paired
    /// increments and decrements cancel exactly).
    pub fn gauge_add(gauge: GaugeId, delta: i64) {
        registry().gauges[gauge as usize].fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// Adds a committed release's ε to the cumulative total.
    pub fn add_epsilon_spent(epsilon: f64) {
        let slot = &registry().epsilon_bits;
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + epsilon).to_bits();
            match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records one duration into `stage`'s histogram.
    pub fn observe_stage_ns(stage: Stage, ns: u64) {
        registry().stages[stage as usize].observe_ns(ns);
    }

    /// Milliseconds since the registry came up.
    pub fn uptime_ms() -> u64 {
        registry().start.elapsed().as_millis() as u64
    }

    /// An RAII guard timing one stage into the global histogram:
    /// construction to drop.
    #[derive(Debug)]
    pub struct Span {
        stage: Stage,
        start: Instant,
    }

    impl Span {
        /// Starts timing `stage`.
        #[must_use = "a span records its stage duration when dropped"]
        pub fn enter(stage: Stage) -> Span {
            Span {
                stage,
                start: Instant::now(),
            }
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            observe_stage_ns(self.stage, self.start.elapsed().as_nanos() as u64);
        }
    }

    /// A per-request span accumulator: every [`Trace::span`] records
    /// into the global per-stage histogram *and* appends a
    /// `(stage, ns)` entry here, so one request's breakdown can be
    /// echoed back (`request --trace`) or logged (`--slow-ms`). Entries
    /// are durations only — nothing query-dependent.
    #[derive(Debug, Default)]
    pub struct Trace {
        entries: Vec<(Stage, u64)>,
    }

    impl Trace {
        /// An empty trace.
        pub fn new() -> Trace {
            Trace::default()
        }

        /// Starts timing `stage`; the guard records on drop.
        #[must_use = "a trace span records its stage duration when dropped"]
        pub fn span(&mut self, stage: Stage) -> TraceSpan<'_> {
            TraceSpan {
                trace: self,
                stage,
                start: Instant::now(),
            }
        }

        /// Records an already-measured duration.
        pub fn record_ns(&mut self, stage: Stage, ns: u64) {
            observe_stage_ns(stage, ns);
            self.entries.push((stage, ns));
        }

        /// The recorded `(stage, ns)` entries, in recording order.
        pub fn entries(&self) -> &[(Stage, u64)] {
            &self.entries
        }

        /// Sum of every recorded duration.
        pub fn total_ns(&self) -> u64 {
            self.entries.iter().map(|(_, ns)| ns).sum()
        }
    }

    /// The guard returned by [`Trace::span`].
    #[derive(Debug)]
    pub struct TraceSpan<'a> {
        trace: &'a mut Trace,
        stage: Stage,
        start: Instant,
    }

    impl Drop for TraceSpan<'_> {
        fn drop(&mut self) {
            let ns = self.start.elapsed().as_nanos() as u64;
            self.trace.record_ns(self.stage, ns);
        }
    }

    /// A point-in-time copy of the registry, every label listed (zeros
    /// included) so the exposition shape is stable.
    pub fn snapshot() -> Snapshot {
        let r = registry();
        Snapshot {
            uptime_ms: uptime_ms(),
            requests: Op::ALL
                .iter()
                .map(|&op| (op.name(), r.requests[op as usize].load(Ordering::Relaxed)))
                .collect(),
            errors_total: r.errors.load(Ordering::Relaxed),
            caches: CacheKind::ALL
                .iter()
                .map(|&k| CacheCounters {
                    name: k.name(),
                    hits: r.cache_hits[k as usize].load(Ordering::Relaxed),
                    misses: r.cache_misses[k as usize].load(Ordering::Relaxed),
                })
                .collect(),
            events: Event::ALL
                .iter()
                .map(|&e| (e.name(), r.events[e as usize].load(Ordering::Relaxed)))
                .collect(),
            gauges: GaugeId::ALL
                .iter()
                .map(|&g| (g.name(), r.gauges[g as usize].load(Ordering::Relaxed)))
                .collect(),
            epsilon_spent: f64::from_bits(r.epsilon_bits.load(Ordering::Relaxed)),
            stages: Stage::ALL
                .iter()
                .map(|&s| {
                    let h = r.stages[s as usize].snapshot();
                    StageSnapshot {
                        stage: s.name(),
                        count: h.count(),
                        sum_ns: h.sum_ns,
                        cumulative: h.cumulative(),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(feature = "enabled")]
pub use live::{
    add_epsilon_spent, cache_access, cache_add, gauge_add, inc_error, inc_event, inc_request, init,
    observe_stage_ns, snapshot, uptime_ms, Span, Trace, TraceSpan,
};

#[cfg(not(feature = "enabled"))]
mod stub {
    use super::{CacheKind, Event, GaugeId, Op, Snapshot, Stage};
    use std::marker::PhantomData;

    /// Inert stub (the `enabled` feature is off).
    #[inline(always)]
    pub fn init() {}

    /// Inert stub (the `enabled` feature is off).
    #[inline(always)]
    pub fn inc_request(_op: Op) {}

    /// Inert stub (the `enabled` feature is off).
    #[inline(always)]
    pub fn inc_error() {}

    /// Inert stub (the `enabled` feature is off).
    #[inline(always)]
    pub fn cache_access(_kind: CacheKind, _hit: bool) {}

    /// Inert stub (the `enabled` feature is off).
    #[inline(always)]
    pub fn cache_add(_kind: CacheKind, _hits: u64, _misses: u64) {}

    /// Inert stub (the `enabled` feature is off).
    #[inline(always)]
    pub fn inc_event(_event: Event) {}

    /// Inert stub (the `enabled` feature is off).
    #[inline(always)]
    pub fn gauge_add(_gauge: GaugeId, _delta: i64) {}

    /// Inert stub (the `enabled` feature is off).
    #[inline(always)]
    pub fn add_epsilon_spent(_epsilon: f64) {}

    /// Inert stub (the `enabled` feature is off).
    #[inline(always)]
    pub fn observe_stage_ns(_stage: Stage, _ns: u64) {}

    /// Inert stub (the `enabled` feature is off): always 0.
    #[inline(always)]
    pub fn uptime_ms() -> u64 {
        0
    }

    /// Inert stub (the `enabled` feature is off): everything empty.
    #[inline(always)]
    pub fn snapshot() -> Snapshot {
        Snapshot::default()
    }

    /// Inert span: construction and drop compile to nothing.
    #[derive(Debug)]
    pub struct Span;

    impl Span {
        /// Inert stub (the `enabled` feature is off).
        #[inline(always)]
        #[must_use = "a span records its stage duration when dropped"]
        pub fn enter(_stage: Stage) -> Span {
            Span
        }
    }

    /// Inert trace: records nothing, reports nothing.
    #[derive(Debug, Default)]
    pub struct Trace;

    impl Trace {
        /// Inert stub (the `enabled` feature is off).
        #[inline(always)]
        pub fn new() -> Trace {
            Trace
        }

        /// Inert stub (the `enabled` feature is off).
        #[inline(always)]
        #[must_use = "a trace span records its stage duration when dropped"]
        pub fn span(&mut self, _stage: Stage) -> TraceSpan<'_> {
            TraceSpan(PhantomData)
        }

        /// Inert stub (the `enabled` feature is off).
        #[inline(always)]
        pub fn record_ns(&mut self, _stage: Stage, _ns: u64) {}

        /// Inert stub (the `enabled` feature is off): always empty.
        #[inline(always)]
        pub fn entries(&self) -> &[(Stage, u64)] {
            &[]
        }

        /// Inert stub (the `enabled` feature is off): always 0.
        #[inline(always)]
        pub fn total_ns(&self) -> u64 {
            0
        }
    }

    /// The inert guard returned by [`Trace::span`].
    #[derive(Debug)]
    pub struct TraceSpan<'a>(PhantomData<&'a mut Trace>);

    impl Drop for TraceSpan<'_> {
        // No-op, but keeps the stub's drop semantics (and callers that
        // end a span with an explicit `drop`) identical to the enabled
        // build.
        fn drop(&mut self) {}
    }
}

#[cfg(not(feature = "enabled"))]
pub use stub::{
    add_epsilon_spent, cache_access, cache_add, gauge_add, inc_error, inc_event, inc_request, init,
    observe_stage_ns, snapshot, uptime_ms, Span, Trace, TraceSpan,
};

/// Renders the current registry as Prometheus text exposition
/// (`render_prometheus` over [`snapshot`]).
pub fn prometheus_text() -> String {
    render_prometheus(&snapshot())
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    fn counter(snap: &Snapshot, table: &[(&'static str, u64)], _name: &str) -> u64 {
        let _ = snap;
        table.iter().map(|(_, n)| n).sum()
    }

    fn op_count(snap: &Snapshot, op: Op) -> u64 {
        snap.requests
            .iter()
            .find(|(name, _)| *name == op.name())
            .map(|&(_, n)| n)
            .expect("every op is listed")
    }

    fn cache_counters(snap: &Snapshot, kind: CacheKind) -> (u64, u64) {
        snap.caches
            .iter()
            .find(|c| c.name == kind.name())
            .map(|c| (c.hits, c.misses))
            .expect("every cache kind is listed")
    }

    #[test]
    fn counters_accumulate_and_snapshot_lists_every_label() {
        let before = snapshot();
        inc_request(Op::Budget);
        inc_request(Op::Budget);
        inc_error();
        cache_access(CacheKind::Shape, true);
        cache_add(CacheKind::Shape, 0, 3);
        inc_event(Event::WorkSteal);
        add_epsilon_spent(0.25);
        add_epsilon_spent(0.5);
        let after = snapshot();

        assert_eq!(after.requests.len(), Op::ALL.len());
        assert_eq!(after.caches.len(), CacheKind::ALL.len());
        assert_eq!(after.events.len(), Event::ALL.len());
        assert_eq!(after.gauges.len(), GaugeId::ALL.len());
        assert_eq!(after.stages.len(), Stage::ALL.len());

        assert_eq!(
            op_count(&after, Op::Budget) - op_count(&before, Op::Budget),
            2
        );
        assert!(after.errors_total > before.errors_total);
        let (h0, m0) = cache_counters(&before, CacheKind::Shape);
        let (h1, m1) = cache_counters(&after, CacheKind::Shape);
        assert_eq!((h1 - h0, m1 - m0), (1, 3));
        assert!(after.epsilon_spent >= before.epsilon_spent + 0.74);
        // Silence the helper when other tests race these totals.
        assert!(counter(&after, &after.events, "events") >= 1);
    }

    #[test]
    fn gauge_deltas_cancel() {
        let base = snapshot()
            .gauges
            .iter()
            .find(|(n, _)| *n == GaugeId::Connections.name())
            .map(|&(_, v)| v)
            .unwrap();
        gauge_add(GaugeId::Connections, 2);
        gauge_add(GaugeId::Connections, -1);
        gauge_add(GaugeId::Connections, -1);
        let now = snapshot()
            .gauges
            .iter()
            .find(|(n, _)| *n == GaugeId::Connections.name())
            .map(|&(_, v)| v)
            .unwrap();
        // Other tests never touch Connections, and paired ±deltas cancel.
        assert_eq!(now, base);
    }

    #[test]
    fn spans_and_traces_record_durations() {
        let stage_count = |snap: &Snapshot, stage: Stage| {
            snap.stages
                .iter()
                .find(|s| s.stage == stage.name())
                .map(|s| s.count)
                .unwrap()
        };
        let before = snapshot();
        {
            let _span = Span::enter(Stage::SnapshotWrite);
        }
        let mut trace = Trace::new();
        {
            let _s = trace.span(Stage::Sample);
        }
        trace.record_ns(Stage::Flush, 1_500);
        let after = snapshot();
        assert!(
            stage_count(&after, Stage::SnapshotWrite) > stage_count(&before, Stage::SnapshotWrite)
        );
        assert!(stage_count(&after, Stage::Sample) > stage_count(&before, Stage::Sample));
        assert_eq!(trace.entries().len(), 2);
        assert_eq!(trace.entries()[0].0, Stage::Sample);
        assert_eq!(trace.entries()[1], (Stage::Flush, 1_500));
        assert!(trace.total_ns() >= 1_500);
        // Histogram cumulative invariant holds in the exported snapshot.
        for s in &after.stages {
            assert_eq!(s.cumulative.last().map(|&(_, c)| c), Some(s.count));
        }
    }

    #[test]
    fn uptime_is_monotone() {
        init();
        let a = uptime_ms();
        let b = uptime_ms();
        assert!(b >= a);
    }
}
