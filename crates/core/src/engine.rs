//! The high-level release engine: query in, ε-DP noisy count out.

use dpcq_eval::{CancelToken, DeltaOutcome, Evaluator, FamilyCache, FamilyEvaluator, FamilyStats};
use dpcq_noise::{LaplaceMechanism, RawAnswer, Release, SmoothCauchyMechanism};
use dpcq_query::{ConjunctiveQuery, Policy};
use dpcq_relation::{Database, FxHashMap, RelationVersion, Value, VersionStamp};
use dpcq_sensitivity::{
    elastic_sensitivity, gs_bound, residual_sensitivity_report, RsParams, SensitivityError,
};
use rand::Rng;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which sensitivity calibrates the noise.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SensitivityMethod {
    /// Residual sensitivity (the paper's mechanism, Theorem 1.1):
    /// `O(1)`-neighborhood optimal, polynomial time. General-Cauchy noise
    /// with `β = ε/10`.
    #[default]
    Residual,
    /// Elastic sensitivity (Johnson et al.): the prior state of the art;
    /// valid but not optimal (Section 4.4). General-Cauchy noise.
    Elastic,
    /// Global sensitivity via the AGM bound evaluated at `N = |I|`
    /// (relaxed DP — the instance size is treated as public; Section 3.3).
    /// Laplace noise.
    GlobalLaplace,
}

impl SensitivityMethod {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SensitivityMethod::Residual => "residual",
            SensitivityMethod::Elastic => "elastic",
            SensitivityMethod::GlobalLaplace => "global-laplace",
        }
    }
}

/// Cap on distinct query shapes holding an engine-owned
/// [`FamilyCache`] simultaneously (each holds memoized factors, which
/// are memory-heavy on large instances).
const MAX_QUERY_CACHES: usize = 256;

impl FromStr for SensitivityMethod {
    type Err = String;

    /// Parses a method name. Round-trips [`SensitivityMethod::name`]; the
    /// short form `global` is accepted as an alias for `global-laplace`
    /// (the CLI's historical spelling).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "residual" => Ok(SensitivityMethod::Residual),
            "elastic" => Ok(SensitivityMethod::Elastic),
            "global-laplace" | "global" => Ok(SensitivityMethod::GlobalLaplace),
            other => Err(format!(
                "unknown sensitivity method `{other}` (expected residual | elastic | global-laplace)"
            )),
        }
    }
}

/// The deterministic half of a release (exact count + calibrated
/// sensitivity), awaiting its noise draw. Produced by
/// [`PrivateEngine::prepare_release`]; `sample` is cheap and
/// side-effect-free on the engine, so callers can scope RNG access
/// tightly.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingRelease {
    method: SensitivityMethod,
    epsilon: f64,
    /// The exact count, taint-typed: it can only leave this struct
    /// through a mechanism in `noise::mechanism` (see `noise::taint` and
    /// rule R1 of `dpa check`). `RawAnswer`'s `Debug` impl redacts it, so
    /// even a logged `PendingRelease` cannot leak the raw answer.
    count: RawAnswer,
    sensitivity: f64,
    stamp: VersionStamp,
}

impl PendingRelease {
    /// The sensitivity the noise will be calibrated to.
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The read-set [`VersionStamp`] the deterministic half was computed
    /// against (see [`PrivateEngine::read_set_stamp`]). A pending release
    /// — and anything derived from it, e.g. a server's cached answer — is
    /// valid exactly as long as the engine still reports this stamp for
    /// the same query and method; mutations of relations outside the
    /// read set leave it valid.
    pub fn stamp(&self) -> &VersionStamp {
        &self.stamp
    }

    /// Draws the noise and finalizes the release. Equivalent to what
    /// [`PrivateEngine::release_with_epsilon`] would have returned with
    /// the same `rng` state.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Release {
        match self.method {
            SensitivityMethod::Residual | SensitivityMethod::Elastic => {
                SmoothCauchyMechanism::new(self.epsilon).release(self.count, self.sensitivity, rng)
            }
            SensitivityMethod::GlobalLaplace => {
                LaplaceMechanism::new(self.epsilon).release(self.count, self.sensitivity, rng)
            }
        }
    }
}

/// A database bound to a privacy policy and budget, answering counting
/// CQs with calibrated noise.
///
/// The engine recomputes the sensitivity per query (the paper's setting:
/// one-shot releases; composition across queries is the caller's
/// responsibility — see the README's "multiple queries" note and the
/// paper's Section 8). Budget *accounting* across queries and principals
/// lives one layer up, in `dpcq-server`.
///
/// ## Mutation and scoped invalidation
///
/// The database is mutable through one path, [`PrivateEngine::mutate`],
/// which [`PrivateEngine::insert_tuple`] and friends wrap. Each
/// residual-sensitivity release evaluates its `T` family against an
/// engine-owned [`FamilyCache`] keyed by the query, so repeated releases
/// of the same query shape skip factor building and residual evaluation
/// entirely.
///
/// Invalidation is scoped by **per-relation version vectors** (see
/// `dpcq_relation::version`). Every release-relevant cached artifact is a
/// pure function of the relations the query's atoms mention — its *read
/// set*, derived from the query's self-join groups — so an effective
/// mutation of relation `S`:
///
/// * bumps only `S`'s [`RelationVersion`] (visible through
///   [`PrivateEngine::relation_versions`]);
/// * drops only the per-shape `FamilyCache`s whose read set contains `S`
///   — shapes over other relations keep their factors, residual values,
///   and [`PrivateEngine::family_stats`] counters;
/// * changes only the [`PrivateEngine::read_set_stamp`] of queries
///   mentioning `S`, which is what downstream result caches (e.g.
///   `dpcq-server`'s release cache) key their entries by.
///
/// Each retained `FamilyCache` also records the stamp it was built
/// against and is revalidated on reuse ([`FamilyCache::is_valid_for`]).
/// [`PrivateEngine::generation`] remains as the derived total of the
/// version vector (one tick per effective mutation) for wire
/// compatibility and coarse "did anything change" checks.
#[derive(Debug)]
pub struct PrivateEngine {
    db: Database,
    policy: Policy,
    epsilon: f64,
    /// Worker threads for the residual `T`-family (see
    /// [`RsParams::threads`]); defaults to the machine's parallelism.
    threads: usize,
    /// The database's full version vector at engine construction.
    /// Versions the engine reports are relative to it, so
    /// [`PrivateEngine::generation`] starts at 0 regardless of how the
    /// database was populated before being handed over.
    base: VersionStamp,
    /// Whether mutations invalidate per read set (the default) or drop
    /// everything (the wholesale oracle for differential testing; see
    /// [`PrivateEngine::with_wholesale_invalidation`]).
    scoped: bool,
    /// Per-query `T`-family caches, shared across releases of the same
    /// query shape; a mutation routes the entries whose read set contains
    /// the touched relation through semi-naive delta maintenance
    /// ([`FamilyCache::apply_delta`]), dropping only those that cannot be
    /// patched. Keyed by the query's canonical rendering
    /// ([`ConjunctiveQuery`]'s `Display`).
    caches: Mutex<FxHashMap<String, ShapeCache>>,
    /// The delta counters, one count per dirty shape (patched in place /
    /// dropped, for whatever reason / patched rows). They survive cache
    /// retirement, and `absorb_mutation` raises the matching
    /// `DeltaApplied`/`DeltaFallback` telemetry events beside them.
    delta_applied: AtomicU64,
    delta_fallback: AtomicU64,
    delta_rows: AtomicU64,
}

/// A portable image of one relation for durability snapshots: name,
/// arity, the **engine-relative** version counter, and every row as raw
/// integers. Produced by [`PrivateEngine::export_image`], consumed by
/// [`PrivateEngine::from_image`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationImage {
    /// Relation name.
    pub name: String,
    /// Column count (kept even when `rows` is empty, so empty relations
    /// survive a round-trip with their arity intact).
    pub arity: usize,
    /// The engine-relative version ([`PrivateEngine::relation_version`])
    /// at export time. Restoring it keeps version stamps — and therefore
    /// release-cache keys — stable across a restart.
    pub version: RelationVersion,
    /// Every tuple, one `Vec<i64>` of length `arity` per row.
    pub rows: Vec<Vec<i64>>,
}

/// A full database image for durability snapshots, in relation-name
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatabaseImage {
    /// One image per stored relation, sorted by name.
    pub relations: Vec<RelationImage>,
}

/// One query shape's cache slot: the relations it reads (for scoped
/// invalidation), the query itself (delta maintenance re-stages mutated
/// tuples against its atoms), and the stamped [`FamilyCache`] shared by
/// its releases.
#[derive(Debug)]
struct ShapeCache {
    /// Sorted relation names the shape's atoms mention.
    read_set: Vec<String>,
    /// The parsed query the cache serves (equal to the map key's
    /// rendering).
    query: ConjunctiveQuery,
    cache: Arc<FamilyCache>,
}

impl PrivateEngine {
    /// Creates an engine over `db` with the given policy and per-release
    /// privacy budget ε.
    pub fn new(db: Database, policy: Policy, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "epsilon must be positive"
        );
        let base = db.stamp_all();
        PrivateEngine {
            db,
            policy,
            epsilon,
            threads: dpcq_sensitivity::prep::default_threads(),
            base,
            scoped: true,
            caches: Mutex::new(FxHashMap::default()),
            delta_applied: AtomicU64::new(0),
            delta_fallback: AtomicU64::new(0),
            delta_rows: AtomicU64::new(0),
        }
    }

    /// Rebuilds an engine from a snapshot image, preserving the crashed
    /// instance's version counters: after recovery,
    /// [`PrivateEngine::relation_version`] reports exactly the persisted
    /// values (the base stamp is empty rather than re-zeroed at
    /// construction), so stamped cache keys taken before the crash still
    /// match. Shape caches start cold — they are derived state and are
    /// rebuilt on demand.
    pub fn from_image(image: &DatabaseImage, policy: Policy, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "epsilon must be positive"
        );
        let mut db = Database::new();
        for rel in &image.relations {
            db.create_relation(&rel.name, rel.arity);
            for row in &rel.rows {
                let vals: Vec<Value> = row.iter().copied().map(Value).collect();
                db.insert_tuple(&rel.name, &vals);
            }
        }
        // The rebuild above bumped versions incidentally; overwrite with
        // the persisted counters now that the contents are in place.
        for rel in &image.relations {
            db.restore_version(&rel.name, rel.version);
        }
        PrivateEngine {
            db,
            policy,
            epsilon,
            threads: dpcq_sensitivity::prep::default_threads(),
            base: VersionStamp::empty(),
            scoped: true,
            caches: Mutex::new(FxHashMap::default()),
            delta_applied: AtomicU64::new(0),
            delta_fallback: AtomicU64::new(0),
            delta_rows: AtomicU64::new(0),
        }
    }

    /// Exports the database for a durability snapshot: every relation's
    /// rows plus its engine-relative version, in name order.
    pub fn export_image(&self) -> DatabaseImage {
        let relations = self
            .db
            .iter()
            .map(|(name, rel)| RelationImage {
                name: name.to_string(),
                arity: rel.arity(),
                version: self.relation_version(name),
                rows: rel
                    .iter()
                    .map(|row| row.iter().map(|v| v.0).collect())
                    .collect(),
            })
            .collect();
        DatabaseImage { relations }
    }

    /// Switches the engine to **wholesale invalidation**: every effective
    /// mutation drops every cache and dirties every read-set stamp, as if
    /// all queries read all relations. Observationally this must be
    /// indistinguishable from the default scoped invalidation (it only
    /// discards more); it exists as the differential-testing oracle the
    /// scoped path is checked against, and for benchmarks quantifying
    /// what scoping saves.
    pub fn with_wholesale_invalidation(mut self) -> Self {
        self.scoped = false;
        self
    }

    /// Whether mutations invalidate per read set (`true`, the default)
    /// or wholesale (the testing oracle).
    pub fn scoped_invalidation(&self) -> bool {
        self.scoped
    }

    /// The same engine with an explicit worker-thread count for residual-
    /// sensitivity `T`-family evaluation (1 = serial; intermediates are
    /// still shared across the family's subsets).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The underlying database (non-private access, for testing and
    /// utility evaluation).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The privacy policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The per-release ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The database generation: 0 at construction, bumped by every
    /// effective mutation. Since PR 5 this is the **derived total of the
    /// per-relation version vector** (the sum of
    /// [`PrivateEngine::relation_versions`]), kept for wire compatibility
    /// and coarse change detection: two calls observing the same
    /// generation saw a byte-identical instance. The converse
    /// granularity — *which* relations changed — is what
    /// [`PrivateEngine::read_set_stamp`] exposes.
    pub fn generation(&self) -> u64 {
        self.db
            .relation_names()
            .map(|n| self.relation_version(n))
            .sum()
    }

    /// `relation`'s mutation count since engine construction (0 for
    /// untouched and unknown relations).
    pub fn relation_version(&self, relation: &str) -> RelationVersion {
        self.db
            .version_of(relation)
            .saturating_sub(self.base.version_of(relation).unwrap_or(0))
    }

    /// Every stored relation's version since engine construction, in
    /// name order — the engine's full version vector (reported by the
    /// server's `stats` op as `relation_versions`).
    pub fn relation_versions(&self) -> Vec<(String, RelationVersion)> {
        self.db
            .relation_names()
            .map(|n| (n.to_string(), self.relation_version(n)))
            .collect()
    }

    /// The relations `query`'s atoms mention (its *read set*), sorted and
    /// deduplicated — derived from the query's self-join groups. Every
    /// engine-cached artifact for the query is a pure function of these
    /// relations' contents (plus the policy, which is fixed).
    pub fn read_set(&self, query: &ConjunctiveQuery) -> Vec<String> {
        query
            .self_join_groups()
            .into_iter()
            .map(|g| g.relation)
            .collect()
    }

    /// The [`VersionStamp`] a release of `query` under `method` depends
    /// on: the version vector restricted to the query's read set — except
    /// for [`SensitivityMethod::GlobalLaplace`], whose noise scale is
    /// calibrated at `N = |I|` (the total tuple count across **all**
    /// relations), so its stamp covers the whole database. Result caches
    /// key replayable answers by this stamp: equal stamps guarantee the
    /// deterministic half of the release is byte-identical.
    ///
    /// Under [wholesale
    /// invalidation](PrivateEngine::with_wholesale_invalidation) every
    /// method stamps the whole database.
    pub fn read_set_stamp(
        &self,
        query: &ConjunctiveQuery,
        method: SensitivityMethod,
    ) -> VersionStamp {
        if !self.scoped || method == SensitivityMethod::GlobalLaplace {
            self.stamp_over(self.db.relation_names().map(str::to_string).collect())
        } else {
            self.stamp_over(self.read_set(query))
        }
    }

    /// The engine-relative stamp over `names` (absolute database
    /// versions re-based against the construction snapshot).
    fn stamp_over(&self, names: Vec<String>) -> VersionStamp {
        VersionStamp::new(names.into_iter().map(|n| {
            let v = self.relation_version(&n);
            (n, v)
        }))
    }

    /// Inserts a tuple into `relation` (created at the row's arity if
    /// absent): [`PrivateEngine::mutate`] on a batch of one, with no
    /// write-ahead hook. Returns `true` if the tuple was new; a refused
    /// tuple (wrong arity, or zero-width) changes nothing and returns
    /// `false`.
    pub fn insert_tuple(&mut self, relation: &str, row: &[Value]) -> bool {
        self.insert_tuples(relation, &[row.to_vec()]) == 1
    }

    /// Removes a tuple from `relation`: [`PrivateEngine::mutate`] on a
    /// batch of one, with no write-ahead hook. Returns `true` if it was
    /// present.
    pub fn remove_tuple(&mut self, relation: &str, row: &[Value]) -> bool {
        self.remove_tuples(relation, &[row.to_vec()]) == 1
    }

    /// Inserts a batch of tuples into `relation`: [`PrivateEngine::mutate`]
    /// with no write-ahead hook. Returns the number of *effective*
    /// inserts; a refused batch (empty, or an arity mismatch) changes
    /// nothing and counts 0.
    pub fn insert_tuples(&mut self, relation: &str, rows: &[Vec<Value>]) -> usize {
        self.mutate(relation, rows, true, |_| Ok(())).unwrap_or(0)
    }

    /// Removes a batch of tuples from `relation`: [`PrivateEngine::mutate`]
    /// with no write-ahead hook. Returns the number of effective
    /// removals; a refused batch counts 0.
    pub fn remove_tuples(&mut self, relation: &str, rows: &[Vec<Value>]) -> usize {
        self.mutate(relation, rows, false, |_| Ok(())).unwrap_or(0)
    }

    /// The one mutation path: applies `rows` to `relation` (all inserted,
    /// or all removed) under **one** cache maintenance pass, so N tuples
    /// cost one semi-naive delta per dirty shape instead of N.
    ///
    /// The batch is refused with an error message, changing nothing, when
    /// it is empty (or its tuples are zero-width) or a row's length
    /// differs from the relation's arity (the stored one, or the first
    /// row's when the relation is absent). Otherwise it is deduplicated
    /// and its no-op tuples (inserts already present, removals absent)
    /// dropped; the remaining *effective* rows, in batch order, go to
    /// `log` first — a write-ahead hook — and are applied only if it
    /// returns `Ok` (its error is returned as is). Returns the effective
    /// count: `relation`'s version advances by exactly that much, so
    /// read-set stamps agree with the same tuples mutated one at a time.
    /// `log` is not called when nothing is effective.
    pub fn mutate(
        &mut self,
        relation: &str,
        rows: &[Vec<Value>],
        insert: bool,
        log: impl FnOnce(&[Vec<Value>]) -> Result<(), String>,
    ) -> Result<usize, String> {
        let stored = self.db.relation(relation);
        let arity = stored.map_or_else(|| rows.first().map_or(0, Vec::len), |rel| rel.arity());
        if rows.is_empty() || arity == 0 {
            // The wire parser's wording for the same refusal.
            return Err("`tuples` must be non-empty".into());
        }
        if let Some(bad) = rows.iter().find(|row| row.len() != arity) {
            return Err(format!(
                "arity mismatch: `{relation}` stores {arity}-tuples, got {}",
                bad.len()
            ));
        }
        // The delta pass must see exactly the rows whose multiplicity
        // changes, or a re-insert of a present tuple would double-count.
        // Rows come from clients: keep the default (keyed) hasher.
        let mut seen = std::collections::HashSet::new();
        let effective: Vec<Vec<Value>> = rows
            .iter()
            .filter(|row| {
                seen.insert(row.as_slice()) && insert != stored.is_some_and(|rel| rel.contains(row))
            })
            .cloned()
            .collect();
        if effective.is_empty() {
            return Ok(0);
        }
        log(&effective)?;

        // Pre-mutation stamps of the dirty shapes: a cache may only be
        // patched forward from a state it is currently valid for.
        let pre: Vec<(String, VersionStamp)> = {
            let caches = self.caches.lock().expect("family cache lock poisoned");
            caches
                .iter()
                .filter(|(_, e)| e.read_set.iter().any(|r| r == relation))
                .map(|(k, e)| (k.clone(), self.stamp_over(e.read_set.clone())))
                .collect()
        };
        for row in &effective {
            if insert {
                self.db.insert_tuple(relation, row);
            } else {
                self.db.remove_tuple(relation, row);
            }
        }
        self.absorb_mutation(relation, &effective, insert, &pre);
        Ok(effective.len())
    }

    /// `relation` changed by `tuples` (all inserted or all removed):
    /// patch the dirty shapes' caches in place by semi-naive deltas,
    /// dropping only those that cannot be maintained — never seeded,
    /// stale stamp, or a comparison-materialized shape (its cache was
    /// built over a rewritten query/database the raw tuples do not map
    /// onto). Shapes over other relations are untouched — their read-set
    /// stamps are unaffected, so everything memoized for them is exact.
    fn absorb_mutation(
        &self,
        relation: &str,
        tuples: &[Vec<Value>],
        insert: bool,
        pre: &[(String, VersionStamp)],
    ) {
        if !self.scoped {
            self.caches
                .lock()
                .expect("family cache lock poisoned")
                .clear();
            return;
        }
        let mut caches = self.caches.lock().expect("family cache lock poisoned");
        for (key, pre_stamp) in pre {
            let Some(entry) = caches.get(key) else {
                continue;
            };
            let materialized = entry
                .query
                .predicates()
                .iter()
                .any(|p| p.is_comparison() && !p.variables().is_empty());
            let keep = !materialized && entry.cache.is_valid_for(pre_stamp) && {
                let post = self.stamp_over(entry.read_set.clone());
                match entry
                    .cache
                    .apply_delta(&entry.query, relation, tuples, insert, Some(post))
                {
                    DeltaOutcome::Applied { rows } => {
                        self.delta_applied.fetch_add(1, Ordering::Relaxed);
                        self.delta_rows.fetch_add(rows, Ordering::Relaxed);
                        dpcq_obs::inc_event(dpcq_obs::Event::DeltaApplied);
                        true
                    }
                    DeltaOutcome::Fallback => false,
                }
            };
            if !keep {
                self.delta_fallback.fetch_add(1, Ordering::Relaxed);
                dpcq_obs::inc_event(dpcq_obs::Event::DeltaFallback);
                caches.remove(key);
            }
        }
    }

    /// Engine-global delta-maintenance counters as
    /// `(applied, fallback, rows)`: successful in-place passes, fallbacks
    /// (wholesale drops of dirty shapes, for whatever reason), and total
    /// signed rows merged into retained factors. Unlike
    /// [`PrivateEngine::family_stats`] these survive cache retirement,
    /// so a server can report them monotonically.
    pub fn delta_stats(&self) -> (u64, u64, u64) {
        (
            self.delta_applied.load(Ordering::Relaxed),
            self.delta_fallback.load(Ordering::Relaxed),
            self.delta_rows.load(Ordering::Relaxed),
        )
    }

    /// The engine-owned `T`-family cache for `query`, created on first
    /// use and stamped with the query's current read-set versions.
    /// Mutation drops dirty shapes before anyone can observe the new
    /// stamp; on top of that, a held entry is revalidated against the
    /// current stamp here, so even an entry that somehow outlived its
    /// validity window (the map is shared behind `Arc`s) is rebuilt
    /// rather than trusted.
    ///
    /// The map is bounded: past [`MAX_QUERY_CACHES`] distinct query
    /// shapes (an adversarial or very diverse workload), new shapes get
    /// a fresh uncached `FamilyCache` per release instead of growing the
    /// map without limit — correctness is unaffected, only reuse.
    fn family_cache(&self, query: &ConjunctiveQuery) -> Arc<FamilyCache> {
        let key = query.to_string();
        let read_set = if self.scoped {
            self.read_set(query)
        } else {
            self.db.relation_names().map(str::to_string).collect()
        };
        let stamp = self.stamp_over(read_set.clone());
        let mut caches = self.caches.lock().expect("family cache lock poisoned");
        if let Some(entry) = caches.get(&key) {
            if entry.cache.is_valid_for(&stamp) {
                dpcq_obs::cache_access(dpcq_obs::CacheKind::Shape, true);
                return Arc::clone(&entry.cache);
            }
        }
        dpcq_obs::cache_access(dpcq_obs::CacheKind::Shape, false);
        let cache = Arc::new(FamilyCache::for_stamp(stamp));
        if caches.len() >= MAX_QUERY_CACHES && !caches.contains_key(&key) {
            return cache;
        }
        caches.insert(
            key,
            ShapeCache {
                read_set,
                query: query.clone(),
                cache: Arc::clone(&cache),
            },
        );
        cache
    }

    /// Cache-effectiveness counters of the engine-owned `T`-family cache
    /// for `query` (zeros if the query has not been released since the
    /// last mutation *of a relation in its read set* — mutations of other
    /// relations leave the counters, like the cache, intact). The
    /// `factor_misses` delta across two releases is the number of factors
    /// the second one actually built.
    pub fn family_stats(&self, query: &ConjunctiveQuery) -> FamilyStats {
        self.caches
            .lock()
            .expect("family cache lock poisoned")
            .get(&query.to_string())
            .map(|e| e.cache.stats())
            .unwrap_or_default()
    }

    /// The exact (non-private) count `|q(I)|` — for experiments and error
    /// measurement only. Always evaluates from scratch; the serving path
    /// uses [`PrivateEngine::counted`] instead.
    pub fn true_count(&self, query: &ConjunctiveQuery) -> Result<u128, SensitivityError> {
        Ok(Evaluator::new(query, &self.db)?.count()?)
    }

    /// `|q(I)|` through the engine-owned `T`-family cache: for a full,
    /// comparison-free query, the count is `T_E` at `E = ` all atoms
    /// (empty boundary), so it lands in the same memo store the residual
    /// pass fills — and after a mutation it is *patched* rather than
    /// recomputed. Anything the family machinery cannot cover (projected
    /// queries, materialized comparisons, zero atoms, an unscoped engine)
    /// falls back to a from-scratch [`PrivateEngine::true_count`].
    fn counted(&self, query: &ConjunctiveQuery) -> Result<u128, SensitivityError> {
        let cacheable = self.scoped
            && query.is_full()
            && query.num_atoms() > 0
            && !query
                .predicates()
                .iter()
                .any(|p| p.is_comparison() && !p.variables().is_empty());
        if !cacheable {
            return self.true_count(query);
        }
        let cache = self.family_cache(query);
        let seeds = cache
            .seed_factors()
            .filter(|s| s.len() == query.num_atoms());
        let ev = match seeds {
            Some(s) => Evaluator::with_seed_factors(query, &self.db, s)?,
            None => Evaluator::new(query, &self.db)?,
        };
        let fe = FamilyEvaluator::with_cache(&ev, cache);
        let all: Vec<usize> = (0..query.num_atoms()).collect();
        Ok(fe.t_e(&all)?)
    }

    /// Releases `|q(I)|` under ε-DP with the default (residual
    /// sensitivity) mechanism.
    pub fn release<R: Rng + ?Sized>(
        &self,
        query: &ConjunctiveQuery,
        rng: &mut R,
    ) -> Result<Release, SensitivityError> {
        self.release_with(query, SensitivityMethod::Residual, rng)
    }

    /// Releases `|q(I)|` under ε-DP with the chosen sensitivity method.
    pub fn release_with<R: Rng + ?Sized>(
        &self,
        query: &ConjunctiveQuery,
        method: SensitivityMethod,
        rng: &mut R,
    ) -> Result<Release, SensitivityError> {
        self.release_with_epsilon(query, method, self.epsilon, rng)
    }

    /// [`PrivateEngine::release_with`] at an explicit privacy budget
    /// (overriding the engine's per-release ε for this one release).
    /// The batch path splits the engine ε through here, and `dpcq-server`
    /// uses it for per-request budgets drawn from a principal's ledger.
    ///
    /// Residual-sensitivity releases evaluate against the engine-owned
    /// per-query [`FamilyCache`], so repeated releases of one query shape
    /// — at *any* ε, the `T` values are β-independent — share all factor
    /// building and residual evaluation until the next mutation.
    pub fn release_with_epsilon<R: Rng + ?Sized>(
        &self,
        query: &ConjunctiveQuery,
        method: SensitivityMethod,
        epsilon: f64,
        rng: &mut R,
    ) -> Result<Release, SensitivityError> {
        Ok(self.prepare_release(query, method, epsilon)?.sample(rng))
    }

    /// The deterministic half of a release: exact count plus calibrated
    /// sensitivity, with the noise draw deferred to
    /// [`PendingRelease::sample`]. Callers that serialize RNG access
    /// (e.g. a server sharing one seeded noise stream) prepare outside
    /// their RNG lock — the expensive evaluation — and hold the lock only
    /// for the sampling instant.
    pub fn prepare_release(
        &self,
        query: &ConjunctiveQuery,
        method: SensitivityMethod,
        epsilon: f64,
    ) -> Result<PendingRelease, SensitivityError> {
        self.prepare_release_with_cancel(query, method, epsilon, CancelToken::never())
    }

    /// [`PrivateEngine::prepare_release`] under a cooperative
    /// [`CancelToken`] — a serving deadline. The token is consulted at
    /// the residual family evaluator's class-pickup checkpoints; a trip
    /// aborts with `SensitivityError::Eval(EvalError::Cancelled)` having
    /// released no information (the elastic and global-Laplace paths run
    /// in low polynomial time and carry no checkpoints, so only residual
    /// evaluations — the ones with up-to-`2^n` residual subsets — can
    /// actually be interrupted). Work memoized before the trip stays in
    /// the engine-owned [`FamilyCache`], so a retried request resumes
    /// where the deadline struck.
    pub fn prepare_release_with_cancel(
        &self,
        query: &ConjunctiveQuery,
        method: SensitivityMethod,
        epsilon: f64,
        cancel: CancelToken,
    ) -> Result<PendingRelease, SensitivityError> {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "epsilon must be positive"
        );
        // Taint the exact count the moment it exists: from here to the
        // noise draw it travels as `RawAnswer`, which nothing outside the
        // mechanism layer can unwrap.
        let count = RawAnswer::new(self.counted(query)?);
        let sensitivity = match method {
            SensitivityMethod::Residual => {
                let beta = SmoothCauchyMechanism::new(epsilon).beta();
                residual_sensitivity_report(
                    query,
                    &self.db,
                    &self.policy,
                    &RsParams::new(beta)
                        .with_threads(self.threads)
                        .with_shared_cache(self.family_cache(query))
                        .with_cancel(cancel),
                )?
                .value
            }
            SensitivityMethod::Elastic => {
                let beta = SmoothCauchyMechanism::new(epsilon).beta();
                elastic_sensitivity(query, &self.db, &self.policy, beta)?
            }
            SensitivityMethod::GlobalLaplace => {
                let n = self.db.total_tuples() as f64;
                gs_bound(query, &self.policy).evaluate(n)
            }
        };
        Ok(PendingRelease {
            method,
            epsilon,
            count,
            sensitivity,
            stamp: self.read_set_stamp(query, method),
        })
    }

    /// Releases a batch of queries under **sequential composition**: the
    /// engine's ε is split evenly, so the whole batch is ε-DP.
    ///
    /// This is the standard-composition baseline the paper's Section 8
    /// calls out: answering `k` CQs this way costs an `O(k)` factor in
    /// per-query error; improving on it for CQs is an open problem.
    /// Same-shape queries within the batch share the engine's `T`-family
    /// caches, so only the noise (and the β-dependent decayed maximum) is
    /// recomputed per entry.
    pub fn release_batch<R: Rng + ?Sized>(
        &self,
        queries: &[&ConjunctiveQuery],
        method: SensitivityMethod,
        rng: &mut R,
    ) -> Result<Vec<Release>, SensitivityError> {
        let per_query_epsilon = self.epsilon / queries.len().max(1) as f64;
        queries
            .iter()
            .map(|q| self.release_with_epsilon(q, method, per_query_epsilon, rng))
            .collect()
    }

    /// The expected ℓ₂ error of each method on this query/instance — the
    /// quantity Table 1 compares (all three mechanisms are unbiased, so
    /// this is `√Var`).
    pub fn expected_errors(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<Vec<(SensitivityMethod, f64)>, SensitivityError> {
        let beta = self.epsilon / 10.0;
        let rs = residual_sensitivity_report(
            query,
            &self.db,
            &self.policy,
            &RsParams::new(beta)
                .with_threads(self.threads)
                .with_shared_cache(self.family_cache(query)),
        )?
        .value;
        let es = elastic_sensitivity(query, &self.db, &self.policy, beta)?;
        let gs = gs_bound(query, &self.policy).evaluate(self.db.total_tuples() as f64);
        Ok(vec![
            (SensitivityMethod::Residual, rs / beta),
            (SensitivityMethod::Elastic, es / beta),
            (
                SensitivityMethod::GlobalLaplace,
                2f64.sqrt() * gs / self.epsilon,
            ),
        ])
    }

    /// A cheap, admission-time upper-bound proxy for the work
    /// [`PrivateEngine::prepare_release`] would perform, in abstract
    /// "cost units" (a class count × factor-size bound, never a wall
    /// clock). Computable without touching the budget or evaluating
    /// anything heavier than the residual-subset closure, so a server
    /// can reject an over-ceiling request before any ε moves:
    ///
    /// * `GlobalLaplace` reads only instance cardinalities — cost is
    ///   the total row count.
    /// * `Elastic` does one polynomial pass over the atoms — cost is
    ///   `num_vars × rows`.
    /// * `Residual` evaluates one `T_E` per required residual subset,
    ///   each an FAQ evaluation bounded by the factor size — cost is
    ///   `classes × num_vars × rows`. The class count is exact (the
    ///   `required_subsets` closure) while the private-atom count stays
    ///   small; past [`EXACT_COST_ATOMS`] atoms enumerating the subsets
    ///   would itself be the 2^n blow-up we are guarding against, so
    ///   the estimate saturates at the `2^n` bound instead.
    pub fn estimate_release_cost(
        &self,
        query: &ConjunctiveQuery,
        method: SensitivityMethod,
    ) -> u128 {
        let width = query.num_vars().max(1) as u128;
        let rows: u128 = query
            .atoms()
            .iter()
            .map(|a| self.db.relation(&a.relation).map_or(0, |r| r.len()) as u128)
            .sum();
        let unit = width.saturating_mul(rows.max(1));
        match method {
            SensitivityMethod::GlobalLaplace => rows.max(1),
            SensitivityMethod::Elastic => unit,
            SensitivityMethod::Residual => {
                let n = self.policy.num_private_atoms(query);
                let classes = if n <= EXACT_COST_ATOMS {
                    dpcq_sensitivity::prep::required_subsets(query, &self.policy)
                        .len()
                        .max(1) as u128
                } else {
                    1u128.checked_shl(n as u32).unwrap_or(u128::MAX)
                };
                classes.saturating_mul(unit)
            }
        }
    }
}

/// Private-atom count above which [`PrivateEngine::estimate_release_cost`]
/// stops enumerating the residual-subset closure and saturates at `2^n`.
const EXACT_COST_ATOMS: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use dpcq_query::parse_query;
    use dpcq_relation::Value;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sym_db() -> Database {
        let mut db = Database::new();
        for (u, v) in [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)] {
            db.insert_tuple("Edge", &[Value(u), Value(v)]);
            db.insert_tuple("Edge", &[Value(v), Value(u)]);
        }
        db
    }

    fn triangle() -> ConjunctiveQuery {
        parse_query("Q(*) :- Edge(x1,x2), Edge(x2,x3), Edge(x1,x3), x1 != x2, x2 != x3, x1 != x3")
            .unwrap()
    }

    #[test]
    fn tripped_cancel_token_aborts_prepare_before_any_spend() {
        let engine = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        let q = triangle();
        let expired = CancelToken::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_secs(1),
        );
        let err = engine
            .prepare_release_with_cancel(&q, SensitivityMethod::Residual, 1.0, expired)
            .unwrap_err();
        assert!(matches!(
            err,
            SensitivityError::Eval(dpcq_eval::EvalError::Cancelled)
        ));
        // A live token on the same engine still completes: the abort left
        // nothing behind that poisons a retry.
        let pending = engine
            .prepare_release_with_cancel(&q, SensitivityMethod::Residual, 1.0, CancelToken::never())
            .unwrap();
        assert!(pending.sensitivity.is_finite());
    }

    #[test]
    fn cost_estimates_order_methods_by_work() {
        let engine = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        let q = triangle();
        let gl = engine.estimate_release_cost(&q, SensitivityMethod::GlobalLaplace);
        let es = engine.estimate_release_cost(&q, SensitivityMethod::Elastic);
        let rs = engine.estimate_release_cost(&q, SensitivityMethod::Residual);
        assert!(gl >= 1);
        // Elastic scales the row mass by width; residual multiplies on the
        // class count — each tier dominates the previous one.
        assert!(es >= gl);
        assert!(rs > es);
        // The triangle has 3 private atoms → 7 non-empty residual subsets.
        assert_eq!(rs, es * 7);
    }

    #[test]
    fn cost_estimate_grows_with_the_instance() {
        let q = triangle();
        let small = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        let mut big_db = sym_db();
        for (u, v) in [(5, 6), (6, 7), (5, 7)] {
            big_db.insert_tuple("Edge", &[Value(u), Value(v)]);
            big_db.insert_tuple("Edge", &[Value(v), Value(u)]);
        }
        let big = PrivateEngine::new(big_db, Policy::all_private(), 1.0);
        for m in [
            SensitivityMethod::GlobalLaplace,
            SensitivityMethod::Elastic,
            SensitivityMethod::Residual,
        ] {
            assert!(big.estimate_release_cost(&q, m) > small.estimate_release_cost(&q, m));
        }
    }

    #[test]
    fn true_count_and_release_roundtrip() {
        let engine = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        let q = triangle();
        // Two triangles (1,2,3) and (2,3,4) → CQ count 12.
        assert_eq!(engine.true_count(&q).unwrap(), 12);
        let mut rng = StdRng::seed_from_u64(1);
        let r = engine.release(&q, &mut rng).unwrap();
        assert!(r.expected_error > 0.0);
        assert!(r.value.get().is_finite());
        assert_eq!(r.epsilon, 1.0);
    }

    #[test]
    fn releases_are_deterministic_given_seed() {
        let engine = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        let q = triangle();
        let a = engine.release(&q, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = engine.release(&q, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn image_round_trip_preserves_contents_versions_and_stamps() {
        let mut engine = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        let q = triangle();
        // Mutate so the version vector is non-trivial before export.
        assert!(engine.insert_tuple("Edge", &[Value(90), Value(91)]));
        assert!(engine.remove_tuple("Edge", &[Value(90), Value(91)]));
        let stamp = engine.read_set_stamp(&q, SensitivityMethod::Residual);

        let image = engine.export_image();
        let recovered = PrivateEngine::from_image(&image, Policy::all_private(), 1.0);
        assert_eq!(recovered.database(), engine.database());
        assert_eq!(recovered.relation_versions(), engine.relation_versions());
        assert_eq!(recovered.generation(), engine.generation());
        // Cache keys built from stamps before the crash still match.
        assert_eq!(
            recovered.read_set_stamp(&q, SensitivityMethod::Residual),
            stamp
        );
        // Releases still work and versions keep rising from where they were.
        let v = recovered.relation_version("Edge");
        let mut recovered = recovered;
        assert!(recovered.insert_tuple("Edge", &[Value(92), Value(93)]));
        assert_eq!(recovered.relation_version("Edge"), v + 1);
        let r = recovered
            .release(&q, &mut StdRng::seed_from_u64(13))
            .unwrap();
        assert!(r.value.get().is_finite());
    }

    #[test]
    fn image_keeps_empty_relations_and_their_arity() {
        let mut db = Database::new();
        db.create_relation("Empty", 3);
        db.insert_tuple("Full", &[Value(1)]);
        let engine = PrivateEngine::new(db, Policy::all_private(), 1.0);
        let image = engine.export_image();
        assert_eq!(image.relations.len(), 2);
        let recovered = PrivateEngine::from_image(&image, Policy::all_private(), 1.0);
        let empty = recovered.database().relation("Empty").unwrap();
        assert_eq!((empty.arity(), empty.len()), (3, 0));
        assert_eq!(recovered.database(), engine.database());
    }

    #[test]
    fn method_names_and_errors_ordered() {
        let engine = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        let q = triangle();
        let errs = engine.expected_errors(&q).unwrap();
        assert_eq!(errs.len(), 3);
        let rs = errs[0].1;
        let es = errs[1].1;
        // The paper's headline: RS error ≤ ES error (often far smaller).
        assert!(rs <= es, "RS {rs} > ES {es}");
        assert_eq!(errs[0].0.name(), "residual");
    }

    #[test]
    fn all_methods_release() {
        let engine = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        let q = triangle();
        let mut rng = StdRng::seed_from_u64(3);
        for m in [
            SensitivityMethod::Residual,
            SensitivityMethod::Elastic,
            SensitivityMethod::GlobalLaplace,
        ] {
            let r = engine.release_with(&q, m, &mut rng).unwrap();
            assert!(r.value.get().is_finite(), "{m:?}");
            assert!(r.sensitivity >= 0.0);
        }
    }

    #[test]
    fn batch_release_splits_the_budget() {
        let engine = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        let q1 = triangle();
        let q2 = parse_query("Q(*) :- Edge(x, y)").unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let batch = engine
            .release_batch(&[&q1, &q2], SensitivityMethod::Residual, &mut rng)
            .unwrap();
        assert_eq!(batch.len(), 2);
        for r in &batch {
            assert_eq!(r.epsilon, 0.5);
        }
        // Halving ε both rescales the noise and recomputes RS at β = ε/10,
        // so each batched release is strictly noisier than a solo one.
        let solo = engine.release(&q1, &mut StdRng::seed_from_u64(12)).unwrap();
        assert!(batch[0].expected_error > solo.expected_error);
        assert!(engine
            .release_batch(&[], SensitivityMethod::Residual, &mut rng)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn public_only_policy_gives_zero_noise() {
        let engine = PrivateEngine::new(sym_db(), Policy::private(Vec::<String>::new()), 1.0);
        let q = triangle();
        let mut rng = StdRng::seed_from_u64(4);
        let r = engine.release(&q, &mut rng).unwrap();
        assert_eq!(r.value.get(), 12.0);
        assert_eq!(r.expected_error, 0.0);
    }

    #[test]
    fn thread_count_plumbs_through_without_changing_results() {
        let q = triangle();
        let serial = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0).with_threads(1);
        let parallel = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0).with_threads(4);
        assert_eq!(serial.threads(), 1);
        assert_eq!(parallel.threads(), 4);
        let a = serial.release(&q, &mut StdRng::seed_from_u64(21)).unwrap();
        let b = parallel
            .release(&q, &mut StdRng::seed_from_u64(21))
            .unwrap();
        // Same sensitivity, same noise stream: identical releases.
        assert_eq!(a, b);
    }

    #[test]
    fn sensitivity_method_from_str_roundtrips_name() {
        for m in [
            SensitivityMethod::Residual,
            SensitivityMethod::Elastic,
            SensitivityMethod::GlobalLaplace,
        ] {
            assert_eq!(m.name().parse::<SensitivityMethod>().unwrap(), m);
        }
        // CLI alias.
        assert_eq!(
            "global".parse::<SensitivityMethod>().unwrap(),
            SensitivityMethod::GlobalLaplace
        );
        let err = "residualish".parse::<SensitivityMethod>().unwrap_err();
        assert!(err.contains("residualish"), "{err}");
        assert!("".parse::<SensitivityMethod>().is_err());
        assert!("RESIDUAL".parse::<SensitivityMethod>().is_err());
    }

    #[test]
    fn second_release_reuses_the_family_cache() {
        // The acceptance check for the engine-owned store: the second
        // release of a same-shape query builds zero new factors and
        // computes zero new residual values.
        let engine = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        let q = triangle();
        let mut rng = StdRng::seed_from_u64(31);
        engine.release(&q, &mut rng).unwrap();
        let first = engine.family_stats(&q);
        assert!(first.factor_misses > 0, "stats {first:?}");
        assert!(first.values_computed > 0, "stats {first:?}");
        engine.release(&q, &mut rng).unwrap();
        let second = engine.family_stats(&q);
        assert_eq!(second.factor_misses, first.factor_misses);
        assert_eq!(second.values_computed, first.values_computed);
        assert!(second.value_hits > first.value_hits);
        // A *different* ε still reuses the β-independent T values.
        engine
            .release_with_epsilon(&q, SensitivityMethod::Residual, 0.25, &mut rng)
            .unwrap();
        assert_eq!(engine.family_stats(&q).factor_misses, first.factor_misses);
    }

    #[test]
    fn mutation_bumps_generation_and_patches_caches() {
        let mut engine = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        let q = triangle();
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.true_count(&q).unwrap(), 12);
        engine.release(&q, &mut StdRng::seed_from_u64(1)).unwrap();
        let warmed = engine.family_stats(&q);
        assert!(warmed.values_computed > 0);

        // A no-op insert (duplicate tuple) must not touch anything.
        assert!(!engine.insert_tuple("Edge", &[Value(1), Value(2)]));
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.family_stats(&q), warmed);

        // An effective insert bumps the generation and *patches* the
        // shape's cache in place: memoized factors survive (no new
        // factor misses), only the residual value cache is rebuilt.
        assert!(engine.insert_tuple("Edge", &[Value(1), Value(4)]));
        assert!(engine.insert_tuple("Edge", &[Value(4), Value(1)]));
        assert_eq!(engine.generation(), 2);
        let patched = engine.family_stats(&q);
        assert_eq!(engine.delta_stats().0, 2, "stats {patched:?}");
        assert_eq!(patched.factor_misses, warmed.factor_misses);
        assert_eq!(patched.values_computed, 0, "stats {patched:?}");
        // Adding {1,4} completes K4: 4 triangles × 6 orderings.
        assert_eq!(engine.true_count(&q).unwrap(), 24);
        engine.release(&q, &mut StdRng::seed_from_u64(2)).unwrap();
        assert!(engine.family_stats(&q).values_computed > 0);

        // Removal reverts the count, again by an in-place delta.
        assert!(engine.remove_tuple("Edge", &[Value(1), Value(4)]));
        assert!(engine.remove_tuple("Edge", &[Value(4), Value(1)]));
        assert!(!engine.remove_tuple("Edge", &[Value(9), Value(9)]));
        assert_eq!(engine.generation(), 4);
        assert_eq!(engine.true_count(&q).unwrap(), 12);
        assert_eq!(engine.delta_stats(), (4, 0, engine.delta_stats().2));

        // The patched engine is observationally identical to one built
        // fresh over the (equal) final database.
        let fresh = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        assert_eq!(
            engine.release(&q, &mut StdRng::seed_from_u64(7)).unwrap(),
            fresh.release(&q, &mut StdRng::seed_from_u64(7)).unwrap(),
        );
    }

    /// A database over two unrelated relations: `Edge` (the triangle
    /// query's read set) and `Tag`, which no triangle release touches.
    fn two_relation_db() -> Database {
        let mut db = sym_db();
        for v in [10, 20, 30] {
            db.insert_tuple("Tag", &[Value(v), Value(v + 1)]);
        }
        db
    }

    #[test]
    fn unrelated_mutation_retains_family_caches_and_stats() {
        // The PR-4 behavior this fixes: any effective mutation bumped the
        // generation AND dropped every cache, even for relations no
        // registered query mentions. Scoped invalidation must keep the
        // triangle shape's counters (and memoized work) across `Tag`
        // mutations.
        let mut engine = PrivateEngine::new(two_relation_db(), Policy::all_private(), 1.0);
        let q = triangle();
        engine.release(&q, &mut StdRng::seed_from_u64(1)).unwrap();
        let warmed = engine.family_stats(&q);
        assert!(warmed.factor_misses > 0 && warmed.values_computed > 0);

        assert!(engine.insert_tuple("Tag", &[Value(40), Value(41)]));
        assert!(engine.remove_tuple("Tag", &[Value(40), Value(41)]));
        assert_eq!(engine.generation(), 2, "mutations still tick the total");
        assert_eq!(
            engine.family_stats(&q),
            warmed,
            "Tag mutations must not touch the Edge-only shape"
        );

        // And the retained cache is actually *used*: the next release
        // builds zero new factors and computes zero new residuals.
        engine.release(&q, &mut StdRng::seed_from_u64(2)).unwrap();
        let after = engine.family_stats(&q);
        assert_eq!(after.factor_misses, warmed.factor_misses);
        assert_eq!(after.values_computed, warmed.values_computed);
        assert!(after.value_hits > warmed.value_hits);

        // A read-set mutation is absorbed as an in-place delta: the
        // memoized factors survive, the residual value cache is rebuilt.
        assert!(engine.insert_tuple("Edge", &[Value(8), Value(9)]));
        let after_delta = engine.family_stats(&q);
        assert_eq!(engine.delta_stats().0, 1, "stats {after_delta:?}");
        assert_eq!(after_delta.factor_misses, warmed.factor_misses);
        assert_eq!(after_delta.values_computed, 0);
    }

    #[test]
    fn relation_versions_and_read_set_stamps() {
        let mut engine = PrivateEngine::new(two_relation_db(), Policy::all_private(), 1.0);
        let q = triangle();
        assert_eq!(engine.read_set(&q), vec!["Edge".to_string()]);
        assert_eq!(
            engine.relation_versions(),
            vec![("Edge".to_string(), 0), ("Tag".to_string(), 0)]
        );

        let before = engine.read_set_stamp(&q, SensitivityMethod::Residual);
        assert_eq!(before.to_string(), "{Edge@0}");
        assert!(engine.insert_tuple("Tag", &[Value(50), Value(51)]));
        // Residual/elastic stamps cover only the read set…
        assert_eq!(
            engine.read_set_stamp(&q, SensitivityMethod::Residual),
            before
        );
        assert_eq!(
            engine.read_set_stamp(&q, SensitivityMethod::Elastic),
            before
        );
        // …but GlobalLaplace calibrates at N = |I|, which any relation
        // moves, so its stamp spans the whole database.
        let gl = engine.read_set_stamp(&q, SensitivityMethod::GlobalLaplace);
        assert_eq!(gl.to_string(), "{Edge@0, Tag@1}");
        assert!(engine.insert_tuple("Edge", &[Value(7), Value(8)]));
        assert_ne!(
            engine.read_set_stamp(&q, SensitivityMethod::Residual),
            before
        );
        assert_eq!(
            engine.relation_versions(),
            vec![("Edge".to_string(), 1), ("Tag".to_string(), 1)]
        );
        assert_eq!(engine.generation(), 2);
    }

    #[test]
    fn pending_release_carries_its_stamp() {
        let engine = PrivateEngine::new(two_relation_db(), Policy::all_private(), 1.0);
        let q = triangle();
        let pending = engine
            .prepare_release(&q, SensitivityMethod::Residual, 1.0)
            .unwrap();
        assert_eq!(
            pending.stamp(),
            &engine.read_set_stamp(&q, SensitivityMethod::Residual)
        );
        assert!(pending.stamp().mentions("Edge"));
        assert!(!pending.stamp().mentions("Tag"));
    }

    #[test]
    fn wholesale_oracle_drops_everything_but_agrees_observationally() {
        let mut scoped = PrivateEngine::new(two_relation_db(), Policy::all_private(), 1.0);
        let mut wholesale = PrivateEngine::new(two_relation_db(), Policy::all_private(), 1.0)
            .with_wholesale_invalidation();
        assert!(scoped.scoped_invalidation());
        assert!(!wholesale.scoped_invalidation());
        let q = triangle();
        for e in [&scoped, &wholesale] {
            e.release(&q, &mut StdRng::seed_from_u64(3)).unwrap();
        }
        assert!(scoped.insert_tuple("Tag", &[Value(60), Value(61)]));
        assert!(wholesale.insert_tuple("Tag", &[Value(60), Value(61)]));
        // The oracle forgot the unrelated shape; the scoped engine kept it.
        assert_eq!(wholesale.family_stats(&q), FamilyStats::default());
        assert!(scoped.family_stats(&q).values_computed > 0);
        // Observational equivalence: identical releases either way.
        let a = scoped.release(&q, &mut StdRng::seed_from_u64(4)).unwrap();
        let b = wholesale
            .release(&q, &mut StdRng::seed_from_u64(4))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn generation_starts_at_zero_over_prepopulated_databases() {
        // sym_db() is built through versioned Database mutations; the
        // engine re-bases at construction so its generation is 0.
        let engine = PrivateEngine::new(sym_db(), Policy::all_private(), 1.0);
        assert_eq!(engine.generation(), 0);
        assert!(engine.relation_versions().iter().all(|(_, v)| *v == 0));
    }

    #[test]
    fn unknown_relation_surfaces_as_error() {
        let engine = PrivateEngine::new(Database::new(), Policy::all_private(), 1.0);
        let q = triangle();
        assert!(engine.true_count(&q).is_err());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(engine.release(&q, &mut rng).is_err());
    }
}
