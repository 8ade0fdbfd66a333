//! Shared-intermediate evaluation of whole `T`-families.
//!
//! Residual sensitivity (paper Eqs. (19)–(21)) needs `T_F(I)` for every
//! subset `F = [n] − E − E'` — up to `2^n` residual queries per release.
//! Evaluating each subset independently repeats enormous amounts of work:
//! the subsets of a family overlap heavily, so the same base factors, the
//! same filtered atom factors, and the same partial eliminations are
//! rebuilt over and over. [`FamilyEvaluator`] answers the whole family
//! through two layers of sharing:
//!
//! 1. **A factor memo store** ([`FactorStore`]). Every intermediate factor
//!    the bucket-elimination engine produces is a *pure function* of
//!    `(atom subset, retained variables, semiring, applied predicates,
//!    column-merge partition)`: it equals
//!    `π^Σ_keep (σ_preds (⋈_{i ∈ atoms} Fᵢ))` in the chosen semiring,
//!    regardless of the order in which variables were eliminated — semiring
//!    aggregations commute, and the engine only drops a variable once
//!    nothing else (factor or pending predicate) mentions it. That tuple
//!    is therefore a sound memo key ([`Sig`]); the store maps it to an
//!    `Arc<Factor>` behind a sharded mutex so base atom factors, filtered
//!    atoms, and common sub-eliminations are computed once and shared
//!    across subsets *and* across worker threads. (Column *order* of a
//!    cached factor can differ from what a caller would have produced
//!    locally; every consumer resolves columns by `VarId`, so only the
//!    content matters.)
//!
//! 2. **A residual-isomorphism value cache.** Two subsets whose residual
//!    queries are isomorphic — identical atoms/boundary/predicates/
//!    projection up to a variable renaming — have equal `T` values on the
//!    same database. Self-join families are full of such twins (all six
//!    single-atom residuals of the 4-clique query are one class). Each
//!    subset is keyed by a canonical serialization of its residual
//!    ([`canonical_subset_key`]), minimized over atom orderings within
//!    same-relation groups, and only one representative per class is
//!    evaluated. The key additionally exploits *relation column
//!    symmetries*: when the stored relation is invariant under a column
//!    permutation (checked exactly, e.g. a symmetric edge relation with
//!    `R = Rᵀ`), atoms may be rewritten through that permutation, which
//!    collapses e.g. the out-star / in-star / path two-atom residuals of
//!    the triangle query into a single class on undirected graphs.
//!
//! [`FamilyEvaluator::t_family`] combines both layers with **work-stealing
//! parallelism**: the isomorphism classes are sorted by estimated cost
//! (width · base rows, largest first) and worker threads pull the next
//! class off a shared atomic index, so no thread strands behind a chunk of
//! expensive subsets the way a fixed chunking would.
//!
//! Under both layers sits the columnar factor kernel (see
//! [`crate::factor`]): all subsets of a family evaluate against one frozen
//! evaluation domain, memoized `Arc<Factor>`s carry their retained join
//! indexes and cached weight orders across subsets *and* threads, and each
//! worker reuses its own thread-local scratch arena — so the steady state
//! of a family evaluation probes shared indexes instead of rebuilding
//! them and allocates only the factors it actually retains.

use crate::cancel::CancelToken;
use crate::delta::{sig_delta, stage_atom_delta, SigDelta, StagedDelta};
use crate::domain::Domain;
use crate::error::EvalError;
use crate::evaluator::Evaluator;
use crate::factor::{Factor, Semiring};
use dpcq_query::{ConjunctiveQuery, Predicate, Term, VarId};
use dpcq_relation::{FxHashMap, Value, VersionStamp};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards in a [`FactorStore`].
const SHARDS: usize = 16;

/// Cap on the atom-ordering search when canonicalizing a subset: families
/// with larger self-join groups fall back to the (still sound) identity
/// ordering, which only collapses syntactically identical residuals.
const MAX_CANON_ORDERINGS: usize = 1440;

/// Cap on the total serialization count (atom orderings × per-atom column
/// permutations); above it, column symmetries are ignored for the subset.
const MAX_CANON_SERIALIZATIONS: usize = 8192;

/// Largest relation arity for which column symmetries are searched
/// (`arity!` permutations are checked exactly against the stored rows).
const MAX_SYM_ARITY: usize = 3;

/// Memoization key of one intermediate factor: the factor equals
/// `π^Σ_keep (σ_preds (⋈_{i ∈ atoms} Fᵢ))` with atom columns merged per
/// `rep`, which determines its content completely (see the module docs for
/// why this is sound).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Sig {
    /// Sorted indices of the base atoms joined into this factor.
    pub atoms: Vec<u32>,
    /// Sorted ids of the variables the factor retains.
    pub keep: Vec<u32>,
    /// Whether aggregation runs in the Boolean semiring.
    pub boolean: bool,
    /// The predicates applied so far, in canonical (`Ord`) order.
    pub preds: Vec<Predicate>,
    /// The column-merge partition restricted to the atoms' original
    /// variables: sorted `(var, representative)` pairs with
    /// `var ≠ representative`; empty for the identity partition.
    pub rep: Vec<(u32, u32)>,
}

/// A factor tagged with the provenance that determines its content —
/// enough to build the [`Sig`] of anything derived from it.
pub(crate) struct TF {
    /// The factor (shared with the memo store when one is active).
    pub f: Arc<Factor>,
    /// Sorted base atom indices this factor derives from.
    pub atoms: Vec<u32>,
    /// Canonically sorted predicates already applied.
    pub preds: Vec<Predicate>,
}

/// The partition `rep` restricted to `vars`, as sorted non-identity pairs.
pub(crate) fn restrict_rep(rep: &[usize], vars: &[VarId]) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = vars
        .iter()
        .filter(|v| rep[v.0] != v.0)
        .map(|v| (v.0 as u32, rep[v.0] as u32))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// A sharded signature → factor cache. Lookups lock only one shard, and
/// misses compute *outside* the lock (two threads racing on the same
/// signature may duplicate work, but never serialize unrelated lookups
/// behind a long join).
#[derive(Debug)]
pub struct FactorStore {
    shards: Vec<Mutex<FxHashMap<Sig, Arc<Factor>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for FactorStore {
    fn default() -> Self {
        FactorStore::new()
    }
}

impl FactorStore {
    /// An empty store.
    pub fn new() -> Self {
        FactorStore {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, sig: &Sig) -> &Mutex<FxHashMap<Sig, Arc<Factor>>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        sig.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// The cached factor for `sig`, computing and inserting it on a miss.
    pub(crate) fn get_or_compute(&self, sig: Sig, compute: impl FnOnce() -> Factor) -> Arc<Factor> {
        let shard = self.shard(&sig);
        if let Some(f) = shard.lock().expect("factor cache lock poisoned").get(&sig) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            dpcq_obs::cache_access(dpcq_obs::CacheKind::Factor, true);
            return Arc::clone(f);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        dpcq_obs::cache_access(dpcq_obs::CacheKind::Factor, false);
        let f = {
            let _span = dpcq_obs::Span::enter(dpcq_obs::Stage::FactorBuild);
            Arc::new(compute())
        };
        let mut guard = shard.lock().expect("factor cache lock poisoned");
        Arc::clone(guard.entry(sig).or_insert(f))
    }

    /// `(hits, misses)` so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Builds a factor through the optional memo store: with `None` the
/// signature is never constructed and the factor is computed directly.
pub(crate) fn cached(
    memo: Option<&FactorStore>,
    sig: impl FnOnce() -> Sig,
    compute: impl FnOnce() -> Factor,
) -> Arc<Factor> {
    match memo {
        None => Arc::new(compute()),
        Some(store) => store.get_or_compute(sig(), compute),
    }
}

/// Cache-effectiveness counters of a [`FamilyEvaluator`] /
/// [`FamilyCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FamilyStats {
    /// Intermediate-factor cache hits.
    pub factor_hits: u64,
    /// Intermediate-factor cache misses (factors actually computed).
    pub factor_misses: u64,
    /// Distinct residual values computed (isomorphism classes evaluated).
    pub values_computed: u64,
    /// `T` lookups answered from the isomorphism value cache.
    pub value_hits: u64,
}

/// The outcome of [`FamilyCache::apply_delta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The cache was patched in place (possibly evicting some entries)
    /// and is valid for the post-mutation instance.
    Applied {
        /// Signed rows merged into memoized factors.
        rows: u64,
    },
    /// The cache could not be maintained incrementally (never seeded, or
    /// query shape mismatch); the owner must retire it.
    Fallback,
}

/// The delta-maintenance base state: the per-atom seed factors and the
/// shared patch [`Domain`] every retained factor's codes are consistent
/// with. Recorded on first use by an evaluator, patched in lockstep with
/// the memo store by [`FamilyCache::apply_delta`].
#[derive(Debug)]
struct DeltaSeeds {
    /// Pre-predicate base factor per query atom (what `Evaluator::new`
    /// builds), in the patch domain.
    atoms: Vec<Arc<Factor>>,
    /// The evolving shared code domain: factors retained earlier carry
    /// prefixes of it, so codes compare consistently across all of them.
    domain: Arc<Domain>,
}

/// The shareable cache state of a [`FamilyEvaluator`]: the intermediate-
/// factor memo store plus the residual-isomorphism value cache.
///
/// Both caches are pure functions of `(query, read-set contents)`: a
/// [`Sig`] keys a factor by query structure only, a canonical subset key
/// determines a `T` value only together with the instance it was computed
/// on, and both depend on the instance **only through the relations the
/// query's atoms mention** (its *read set* — atom factors, boundary
/// counts, and the column symmetries folded into the canonical keys are
/// all built from those relations alone). A `FamilyCache` may therefore
/// be reused across evaluators — and hence across releases — **while the
/// query and the read-set relations are byte-identical**; mutations of
/// other relations are irrelevant to it.
///
/// [`FamilyCache::for_stamp`] records the read set's
/// [`VersionStamp`] at build time so owners can *revalidate* a shared
/// `Arc` cache ([`FamilyCache::is_valid_for`]) instead of unconditionally
/// rebuilding: `PrivateEngine` keeps one stamped cache per query shape,
/// drops a shape only when a mutation touches its read set, and checks
/// the stamp again on every reuse as a second line of defense.
///
/// ## Reuse after unrelated mutations: the domain reconcile path
///
/// A cache retained across a mutation of an *unrelated* relation is
/// content-valid, but its memoized factors carry the frozen code
/// [`Domain`](crate::domain) of the evaluator that built them — and a
/// *fresh* evaluator over the mutated database interns a (possibly
/// larger) domain that includes any newly inserted values. The two meet
/// inside the columnar kernel: a join between factors with different
/// domains merges them and re-encodes one side once (see
/// `Factor::join_core`), so cached factors combine with newly built ones
/// transparently. Cached `T` *values* are plain numbers and need no
/// reconciliation at all.
#[derive(Debug, Default)]
pub struct FamilyCache {
    store: FactorStore,
    values: Mutex<FxHashMap<Vec<u64>, u128>>,
    value_hits: AtomicU64,
    /// The read-set stamp the cache is valid for (`None` for caches
    /// whose validity is managed entirely by the caller, e.g. β sweeps
    /// over one immutable database). Advanced by
    /// [`FamilyCache::apply_delta`] when a mutation is absorbed in place.
    stamp: Mutex<Option<VersionStamp>>,
    /// Delta-maintenance base state, recorded by the first evaluator that
    /// uses the cache (see [`FamilyCache::apply_delta`]).
    seeds: Mutex<Option<DeltaSeeds>>,
}

impl FamilyCache {
    /// An empty cache with no recorded stamp: the caller owns validity
    /// (it must not reuse the cache after any read-set relation changed).
    pub fn new() -> Self {
        FamilyCache::default()
    }

    /// An empty cache recording the read-set [`VersionStamp`] it is about
    /// to be filled against, enabling [`FamilyCache::is_valid_for`]
    /// revalidation on later reuse.
    pub fn for_stamp(stamp: VersionStamp) -> Self {
        FamilyCache {
            stamp: Mutex::new(Some(stamp)),
            ..FamilyCache::default()
        }
    }

    /// The stamp the cache is currently valid for, if any.
    pub fn stamp(&self) -> Option<VersionStamp> {
        self.stamp.lock().expect("stamp lock poisoned").clone()
    }

    /// Whether the cache may be reused against a database whose read set
    /// currently stamps as `current`: true iff the cache recorded a stamp
    /// and it matches. Unstamped caches always report `false` here —
    /// their owners opted into manual validity management and cannot be
    /// revalidated mechanically.
    pub fn is_valid_for(&self, current: &VersionStamp) -> bool {
        self.stamp.lock().expect("stamp lock poisoned").as_ref() == Some(current)
    }

    /// Records the delta-maintenance seeds from an evaluator's base atom
    /// factors, once: the first evaluator to use the cache donates its
    /// per-atom factors and frozen domain as the patch base. Later
    /// evaluators over the identical read set build byte-identical
    /// factors (interning is deterministic), so first-wins is safe.
    pub(crate) fn maybe_seed(&self, ev: &Evaluator<'_>) {
        let n = ev.query().num_atoms();
        if n == 0 {
            return;
        }
        let mut guard = self.seeds.lock().expect("delta seed lock poisoned");
        if guard.is_some() {
            return;
        }
        let atoms: Vec<Arc<Factor>> = (0..n).map(|i| ev.atom_factor_arc(i)).collect();
        let domain = Arc::clone(atoms[0].domain());
        *guard = Some(DeltaSeeds { atoms, domain });
    }

    /// The current per-atom seed factors, if the cache has been seeded —
    /// the base a post-delta evaluator must be built from (fresh staging
    /// over the mutated database may intern a differently ordered domain,
    /// which would not be code-compatible with the patched factors).
    pub fn seed_factors(&self) -> Option<Vec<Arc<Factor>>> {
        self.seeds
            .lock()
            .expect("delta seed lock poisoned")
            .as_ref()
            .map(|s| s.atoms.clone())
    }

    /// Absorbs a batch mutation of `relation` (all `tuples` inserted, or
    /// all removed, per `insert`) into the cached state **in place**:
    /// seed atom factors and every memoized intermediate factor are
    /// patched copy-on-write by their semi-naive deltas (see
    /// [`crate::delta`]), entries whose delta would cost more than a
    /// rebuild are evicted for lazy recomputation, and the residual value
    /// cache is cleared (individual `T` values are cheap to re-derive
    /// from the patched factors). On success the cache's stamp becomes
    /// `new_stamp` and the cache is exactly what a rebuild against the
    /// mutated read set would have produced.
    ///
    /// [`DeltaOutcome::Fallback`] (never seeded, query-shape mismatch, or
    /// a seed patch failure) leaves the cache **untouched**; the owner
    /// must retire it and rebuild wholesale.
    ///
    /// `tuples` must be deduplicated and *effective* (inserts absent
    /// before the batch, removes present before it) — the engine's
    /// mutation path guarantees this; a non-effective remove fails the
    /// seed patch and falls back, a non-effective insert would
    /// double-count.
    ///
    /// Deltas operate strictly pre-noise: only factor and `T`-value state
    /// is touched, never `RawAnswer`/`Released` (see `docs/INVARIANTS.md`).
    pub fn apply_delta(
        &self,
        query: &ConjunctiveQuery,
        relation: &str,
        tuples: &[Vec<Value>],
        insert: bool,
        new_stamp: Option<VersionStamp>,
    ) -> DeltaOutcome {
        let _span = dpcq_obs::Span::enter(dpcq_obs::Stage::DeltaApply);
        let mut seeds_guard = self.seeds.lock().expect("delta seed lock poisoned");
        let seeds = match seeds_guard.as_mut() {
            Some(s) if s.atoms.len() == query.num_atoms() => s,
            _ => return DeltaOutcome::Fallback,
        };

        // Stage the batch against each atom over a copy of the patch
        // domain (append-only interning keeps existing codes stable).
        let mut domain = (*seeds.domain).clone();
        let mut staged: Vec<Option<StagedDelta>> = Vec::with_capacity(seeds.atoms.len());
        for (i, atom) in query.atoms().iter().enumerate() {
            if atom.relation == relation {
                let (vars, codes, weights) = stage_atom_delta(query, i, tuples, &mut domain);
                staged.push((!weights.is_empty()).then_some((vars, codes, weights)));
            } else {
                staged.push(None);
            }
        }
        if staged.iter().all(Option::is_none) {
            // The batch is invisible to every atom (absorbed by constant
            // filters / repeated-variable constraints): all cached
            // content — including `T` values — is already current.
            *self.stamp.lock().expect("stamp lock poisoned") = new_stamp;
            return DeltaOutcome::Applied { rows: 0 };
        }

        let grown = domain.values().len() > seeds.domain.values().len();
        let domain = if grown {
            Arc::new(domain)
        } else {
            Arc::clone(&seeds.domain)
        };

        // Per-atom delta factors: ordinary non-negative Counting factors
        // (the sign lives in the subset expansion / seed patch).
        let atom_deltas: Vec<Option<Arc<Factor>>> = staged
            .into_iter()
            .map(|s| {
                s.map(|(vars, codes, weights)| {
                    Arc::new(Factor::from_coded(
                        vars,
                        Arc::clone(&domain),
                        codes,
                        weights,
                        Semiring::Counting,
                    ))
                })
            })
            .collect();

        // Patch the seeds first: a failure here (a remove of a tuple the
        // seed does not hold, or weight overflow) must leave the cache
        // untouched, so nothing is committed until every seed patched.
        let sign: i128 = if insert { 1 } else { -1 };
        let mut new_atoms: Vec<Arc<Factor>> = Vec::with_capacity(seeds.atoms.len());
        let mut total_rows: u64 = 0;
        for (old, delta) in seeds.atoms.iter().zip(&atom_deltas) {
            let old_rewrapped;
            let old: &Factor = if grown {
                old_rewrapped = old.with_domain(Arc::clone(&domain));
                &old_rewrapped
            } else {
                old
            };
            match delta {
                None => new_atoms.push(Arc::new(old.clone())),
                Some(d) => {
                    let mut rows: Vec<(Box<[u32]>, i128)> = Vec::with_capacity(d.len());
                    for r in 0..d.len() {
                        let Ok(w) = i128::try_from(d.weight(r)) else {
                            return DeltaOutcome::Fallback;
                        };
                        rows.push((d.row_codes(r).into(), sign * w));
                    }
                    if old.vars() != d.vars() {
                        return DeltaOutcome::Fallback;
                    }
                    match old.patch_signed(&rows, Arc::clone(&domain)) {
                        Some(f) => {
                            total_rows += rows.len() as u64;
                            new_atoms.push(Arc::new(f));
                        }
                        None => return DeltaOutcome::Fallback,
                    }
                }
            }
        }

        // From here on failures are per-entry evictions, never wholesale:
        // an evicted entry rebuilds lazily from the patched seeds, which
        // is consistent because a `Sig` fully determines its content.
        let old_atoms: Vec<Arc<Factor>> = if grown {
            seeds
                .atoms
                .iter()
                .map(|f| Arc::new(f.with_domain(Arc::clone(&domain))))
                .collect()
        } else {
            seeds.atoms.clone()
        };
        for shard in &self.store.shards {
            let mut guard = shard.lock().expect("factor cache lock poisoned");
            let sigs: Vec<Sig> = guard.keys().cloned().collect();
            for sig in sigs {
                let stored = Arc::clone(&guard[&sig]);
                match sig_delta(query, &sig, &stored, &old_atoms, &atom_deltas, insert) {
                    SigDelta::Unaffected => {
                        if grown {
                            guard.insert(sig, Arc::new(stored.with_domain(Arc::clone(&domain))));
                        }
                    }
                    SigDelta::Patch(rows) => {
                        match stored.patch_signed(&rows, Arc::clone(&domain)) {
                            Some(f) => {
                                total_rows += rows.len() as u64;
                                guard.insert(sig, Arc::new(f));
                            }
                            None => {
                                guard.remove(&sig);
                            }
                        }
                    }
                    SigDelta::Evict => {
                        guard.remove(&sig);
                    }
                }
            }
        }

        seeds.atoms = new_atoms;
        seeds.domain = Arc::clone(&domain);
        drop(seeds_guard);
        // Residual values are instance-dependent scalars; recomputing them
        // from the patched factors is cheap relative to guessing which
        // isomorphism classes a delta reaches.
        self.values
            .lock()
            .expect("value cache lock poisoned")
            .clear();
        *self.stamp.lock().expect("stamp lock poisoned") = new_stamp;
        DeltaOutcome::Applied { rows: total_rows }
    }

    /// Cache-effectiveness counters accumulated over every evaluator that
    /// shared this cache.
    pub fn stats(&self) -> FamilyStats {
        let (factor_hits, factor_misses) = self.store.counters();
        FamilyStats {
            factor_hits,
            factor_misses,
            values_computed: self.values.lock().expect("value cache lock poisoned").len() as u64,
            value_hits: self.value_hits.load(Ordering::Relaxed),
        }
    }
}

/// Evaluates `T_F` for whole subset families with shared intermediates and
/// work-stealing parallelism. See the module docs for the design.
#[derive(Debug)]
pub struct FamilyEvaluator<'e> {
    ev: &'e Evaluator<'e>,
    cache: Arc<FamilyCache>,
    /// Per-atom column permutations under which the atom's stored
    /// relation is invariant (always at least the identity).
    syms: Vec<Vec<Vec<u8>>>,
}

impl<'e> FamilyEvaluator<'e> {
    /// Wraps an evaluator with fresh (empty) caches. Detects each stored
    /// relation's column symmetries once (exact row-set checks) so the
    /// isomorphism keys can exploit e.g. symmetric edge relations.
    pub fn new(ev: &'e Evaluator<'e>) -> Self {
        FamilyEvaluator::with_cache(ev, Arc::new(FamilyCache::new()))
    }

    /// Wraps an evaluator around an existing [`FamilyCache`], so several
    /// evaluations over the **same query and identical read-set
    /// relations** — e.g. repeated releases or a β sweep — share one memo
    /// store and value cache. Factors cached by a previous evaluator
    /// carry their own code domain, and the kernel reconciles foreign
    /// domains at join time, so reuse across evaluator instances (even
    /// across mutations of relations the query does not mention) is
    /// transparent; see [`FamilyCache`] for the reconcile path.
    ///
    /// Reusing a cache after a **read-set** relation changed is unsound
    /// (stale factors and `T` values would be served); owners either drop
    /// the cache when such a mutation happens or revalidate its recorded
    /// stamp with [`FamilyCache::is_valid_for`].
    pub fn with_cache(ev: &'e Evaluator<'e>, cache: Arc<FamilyCache>) -> Self {
        cache.maybe_seed(ev);
        FamilyEvaluator {
            syms: column_symmetries(ev.query(), ev.database()),
            ev,
            cache,
        }
    }

    /// The wrapped evaluator.
    pub fn evaluator(&self) -> &Evaluator<'e> {
        self.ev
    }

    /// The cache this evaluator reads and fills.
    pub fn cache(&self) -> &Arc<FamilyCache> {
        &self.cache
    }

    /// `T_E(I)` for one subset, sharing intermediates with every previous
    /// call on this `FamilyEvaluator`.
    pub fn t_e(&self, subset: &[usize]) -> Result<u128, EvalError> {
        let key = canonical_subset_key(self.ev.query(), subset, &self.syms);
        self.t_e_keyed(key, subset)
    }

    /// [`FamilyEvaluator::t_e`] with the canonical key already computed
    /// (`t_family` derives keys while grouping classes; recomputing the
    /// ordering minimization per representative would double that work).
    fn t_e_keyed(&self, key: Vec<u64>, subset: &[usize]) -> Result<u128, EvalError> {
        if let Some(&v) = self
            .cache
            .values
            .lock()
            .expect("value cache lock poisoned")
            .get(&key)
        {
            self.cache.value_hits.fetch_add(1, Ordering::Relaxed);
            dpcq_obs::cache_access(dpcq_obs::CacheKind::Value, true);
            return Ok(v);
        }
        dpcq_obs::cache_access(dpcq_obs::CacheKind::Value, false);
        let v = self.ev.t_e_memo(Some(&self.cache.store), subset)?;
        self.cache
            .values
            .lock()
            .expect("value cache lock poisoned")
            .insert(key, v);
        Ok(v)
    }

    /// `T_F(I)` for every subset in `family`, returned in the family's
    /// (sorted) iteration order.
    ///
    /// Isomorphic subsets are grouped and evaluated once; classes are
    /// processed largest-estimated-cost first by `threads` work-stealing
    /// workers (`threads ≤ 1`, or a single class, runs serially). The
    /// empty family yields an empty result.
    pub fn t_family(
        &self,
        family: &BTreeSet<Vec<usize>>,
        threads: usize,
    ) -> Result<Vec<(Vec<usize>, u128)>, EvalError> {
        self.t_family_with_cancel(family, threads, CancelToken::never())
    }

    /// [`FamilyEvaluator::t_family`] under a cooperative [`CancelToken`]:
    /// the token is checked before each isomorphism class is picked up
    /// (serially and by every work-stealing worker), and a trip surfaces
    /// as [`EvalError::Cancelled`]. Everything memoized before the trip
    /// stays in the shared cache, so a retry resumes rather than
    /// restarts.
    pub fn t_family_with_cancel(
        &self,
        family: &BTreeSet<Vec<usize>>,
        threads: usize,
        cancel: CancelToken,
    ) -> Result<Vec<(Vec<usize>, u128)>, EvalError> {
        let subsets: Vec<&Vec<usize>> = family.iter().collect();
        if subsets.is_empty() {
            return Ok(Vec::new());
        }

        // Group isomorphic residuals; each class evaluates once, reusing
        // the key computed here for its value-cache entry.
        let mut class_of_key: FxHashMap<Vec<u64>, usize> = FxHashMap::default();
        let mut classes: Vec<Vec<usize>> = Vec::new();
        let mut class_keys: Vec<Vec<u64>> = Vec::new();
        for (i, s) in subsets.iter().enumerate() {
            let key = canonical_subset_key(self.ev.query(), s, &self.syms);
            match class_of_key.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => classes[*e.get()].push(i),
                std::collections::hash_map::Entry::Vacant(e) => {
                    class_keys.push(e.key().clone());
                    e.insert(classes.len());
                    classes.push(vec![i]);
                }
            }
        }

        // Largest estimated cost first, so work-stealing never strands a
        // worker behind one expensive class picked up last.
        let mut order: Vec<usize> = (0..classes.len()).collect();
        order.sort_by_key(|&ci| {
            let rep = subsets[classes[ci][0]];
            std::cmp::Reverse((self.estimated_cost(rep), ci))
        });

        let threads = threads.clamp(1, classes.len());
        let results: Mutex<Vec<Option<Result<u128, EvalError>>>> =
            Mutex::new(vec![None; classes.len()]);
        if threads <= 1 {
            for &ci in &order {
                cancel.check().inspect_err(|_| {
                    dpcq_obs::inc_event(dpcq_obs::Event::CancelTrip);
                })?;
                let v = self.t_e_keyed(class_keys[ci].clone(), subsets[classes[ci][0]]);
                results.lock().expect("result lock poisoned")[ci] = Some(v);
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        // Deadline checkpoint: a tripped token stops every
                        // worker before its next class pickup; classes
                        // already in flight run to completion (and stay
                        // cached).
                        if cancel.is_cancelled() {
                            break;
                        }
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= order.len() {
                            break;
                        }
                        dpcq_obs::inc_event(dpcq_obs::Event::WorkSteal);
                        let ci = order[k];
                        let v = self.t_e_keyed(class_keys[ci].clone(), subsets[classes[ci][0]]);
                        results.lock().expect("result lock poisoned")[ci] = Some(v);
                    });
                }
            });
        }

        let results = results.into_inner().expect("result lock poisoned");
        let mut value_of: Vec<Option<u128>> = vec![None; subsets.len()];
        for (ci, members) in classes.iter().enumerate() {
            // A `None` slot means a worker observed the cancellation after
            // this class was handed out but before anyone evaluated it.
            let v = results[ci]
                .clone()
                .ok_or(EvalError::Cancelled)
                .inspect_err(|_| dpcq_obs::inc_event(dpcq_obs::Event::CancelTrip))??;
            for &m in members {
                value_of[m] = Some(v);
            }
        }
        Ok(subsets
            .into_iter()
            .zip(value_of)
            .map(|(s, v)| (s.clone(), v.expect("every subset belongs to a class")))
            .collect())
    }

    /// Cache-effectiveness counters (of the underlying [`FamilyCache`],
    /// accumulated across every evaluator sharing it).
    pub fn stats(&self) -> FamilyStats {
        self.cache.stats()
    }

    /// Crude per-subset cost estimate used only for scheduling:
    /// residual width · total base rows.
    fn estimated_cost(&self, subset: &[usize]) -> u128 {
        let width = self.ev.query().subset_vars(subset).len() as u128;
        let rows: u128 = subset
            .iter()
            .map(|&i| self.ev.atom_factor(i).len() as u128)
            .sum();
        width.max(1).saturating_mul(rows.max(1))
    }
}

// --- canonical residual serialization -----------------------------------

const TAG_ATOM: u64 = u64::MAX;
const TAG_VAR: u64 = 0;
const TAG_CONST: u64 = 1;

/// All permutations of `items`.
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (k, &first) in items.iter().enumerate() {
        let mut rest: Vec<usize> = items.to_vec();
        rest.remove(k);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

/// Per-atom column permutations under which the atom's stored relation is
/// invariant as a row set (always at least the identity; the search is
/// limited to arity ≤ [`MAX_SYM_ARITY`]). Rewriting an atom's term list
/// through such a permutation does not change the constraint the atom
/// expresses, so the canonicalization may minimize over these rewrites —
/// on a symmetric edge relation this identifies `Edge(x,y)` with
/// `Edge(y,x)`.
fn column_symmetries(q: &ConjunctiveQuery, db: &dpcq_relation::Database) -> Vec<Vec<Vec<u8>>> {
    let mut by_relation: FxHashMap<&str, Vec<Vec<u8>>> = FxHashMap::default();
    q.atoms()
        .iter()
        .map(|atom| {
            by_relation
                .entry(atom.relation.as_str())
                .or_insert_with(|| {
                    let arity = atom.arity();
                    let identity: Vec<u8> = (0..arity as u8).collect();
                    let Some(rel) = db.relation(&atom.relation) else {
                        return vec![identity];
                    };
                    if arity > MAX_SYM_ARITY || rel.arity() != arity {
                        return vec![identity];
                    }
                    let cols: Vec<usize> = (0..arity).collect();
                    let mut perms = Vec::new();
                    let mut buf = vec![dpcq_relation::Value::default(); arity];
                    for p in permutations(&cols) {
                        let invariant = rel.iter().all(|row| {
                            for (slot, &c) in buf.iter_mut().zip(&p) {
                                *slot = row[c];
                            }
                            rel.contains(&buf)
                        });
                        if invariant {
                            perms.push(p.iter().map(|&c| c as u8).collect());
                        }
                    }
                    perms
                })
                .clone()
        })
        .collect()
}

/// A canonical token stream describing the residual query on `subset` —
/// its atoms, boundary, projected output, and contained predicates — up to
/// a renaming of variables and column-symmetric atom rewrites. Equal keys
/// imply isomorphic residuals, hence equal `T` values on the same
/// database (the converse need not hold; a missed isomorphism only costs
/// a duplicate evaluation).
///
/// The stream is self-delimiting (every variable-length section is length-
/// prefixed), and the variable renaming is minimized over all orderings of
/// atoms within same-relation groups (capped at [`MAX_CANON_ORDERINGS`]
/// orderings, beyond which the identity ordering is used) combined with
/// the atoms' relation column symmetries in `syms` (the combination is
/// capped at [`MAX_CANON_SERIALIZATIONS`], beyond which only orderings
/// are searched).
pub(crate) fn canonical_subset_key(
    q: &ConjunctiveQuery,
    subset: &[usize],
    syms: &[Vec<Vec<u8>>],
) -> Vec<u64> {
    // Stable relation ids: the first atom index carrying the name.
    let rel_id = |i: usize| -> u64 {
        let name = &q.atoms()[i].relation;
        q.atoms()
            .iter()
            .position(|a| &a.relation == name)
            .expect("atom's own relation occurs in the query") as u64
    };

    // Same-relation groups, ordered by relation id.
    let mut sorted: Vec<usize> = subset.to_vec();
    sorted.sort_unstable();
    let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
    for &i in &sorted {
        let r = rel_id(i);
        match groups.iter_mut().find(|(g, _)| *g == r) {
            Some((_, v)) => v.push(i),
            None => groups.push((r, vec![i])),
        }
    }
    groups.sort_by_key(|(r, _)| *r);

    let boundary = q.boundary(subset);
    let output = q.residual_output(subset);
    let preds = q.contained_predicates(subset);

    // `flips[k]` selects the column permutation applied to the k-th atom
    // of the ordering (an index into that atom's symmetry list).
    let serialize = |ordering: &[usize], flips: &[usize]| -> Vec<u64> {
        let mut canon: Vec<Option<u32>> = vec![None; q.num_vars()];
        let mut next = 0u32;
        let mut out: Vec<u64> = Vec::with_capacity(8 + 4 * ordering.len());
        out.push(ordering.len() as u64);
        for (k, &i) in ordering.iter().enumerate() {
            let atom = &q.atoms()[i];
            let perm: &[u8] = &syms[i][flips.get(k).copied().unwrap_or(0)];
            out.push(TAG_ATOM);
            out.push(rel_id(i));
            out.push(atom.terms.len() as u64);
            for &c in perm {
                match &atom.terms[c as usize] {
                    Term::Var(v) => {
                        let id = *canon[v.0].get_or_insert_with(|| {
                            let id = next;
                            next += 1;
                            id
                        });
                        out.push(TAG_VAR);
                        out.push(id as u64);
                    }
                    Term::Const(c) => {
                        out.push(TAG_CONST);
                        out.push(c.0 as u64);
                    }
                }
            }
        }
        let canon_id = |v: &VarId| -> u64 {
            canon[v.0].expect("boundary/output/predicate var occurs in the subset") as u64
        };
        let mut b: Vec<u64> = boundary.iter().map(canon_id).collect();
        b.sort_unstable();
        out.push(b.len() as u64);
        out.extend(b);
        match &output {
            None => out.push(u64::MAX),
            Some(o) => {
                let mut ids: Vec<u64> = o.iter().map(canon_id).collect();
                ids.sort_unstable();
                ids.dedup();
                out.push(ids.len() as u64);
                out.extend(ids);
            }
        }
        let term_tok = |t: &Term| -> [u64; 2] {
            match t {
                Term::Var(v) => [TAG_VAR, canon_id(v)],
                Term::Const(c) => [TAG_CONST, c.0 as u64],
            }
        };
        let mut ps: Vec<[u64; 5]> = preds
            .iter()
            .map(|p| {
                let l = term_tok(&p.lhs);
                let r = term_tok(&p.rhs);
                // Orientation-normalize: `a op b` ≡ `b op.flip() a`.
                let fwd = [p.op as u64, l[0], l[1], r[0], r[1]];
                let rev = [p.op.flip() as u64, r[0], r[1], l[0], l[1]];
                fwd.min(rev)
            })
            .collect();
        ps.sort_unstable();
        out.push(ps.len() as u64);
        for p in ps {
            out.extend(p);
        }
        out
    };

    let orderings_count: usize = groups
        .iter()
        .map(|(_, g)| (1..=g.len()).product::<usize>())
        .try_fold(1usize, |a, b: usize| a.checked_mul(b))
        .unwrap_or(usize::MAX);
    if orderings_count > MAX_CANON_ORDERINGS {
        return serialize(&sorted, &[]);
    }
    let flip_count: usize = sorted
        .iter()
        .map(|&i| syms[i].len())
        .try_fold(1usize, |a, b| a.checked_mul(b))
        .unwrap_or(usize::MAX);
    let search_flips = orderings_count
        .checked_mul(flip_count)
        .is_some_and(|n| n <= MAX_CANON_SERIALIZATIONS);
    if orderings_count <= 1 && !search_flips {
        return serialize(&sorted, &[]);
    }

    let mut best: Option<Vec<u64>> = None;
    for ordering in group_orderings(&groups) {
        // Odometer over the per-atom column-permutation choices (a single
        // all-identity pass when the flip search is capped out).
        let radixes: Vec<usize> = if search_flips {
            ordering.iter().map(|&i| syms[i].len()).collect()
        } else {
            vec![1; ordering.len()]
        };
        let mut flips = vec![0usize; ordering.len()];
        loop {
            let key = serialize(&ordering, &flips);
            if best.as_ref().is_none_or(|b| key < *b) {
                best = Some(key);
            }
            let mut pos = 0;
            loop {
                if pos == flips.len() {
                    break;
                }
                flips[pos] += 1;
                if flips[pos] < radixes[pos] {
                    break;
                }
                flips[pos] = 0;
                pos += 1;
            }
            if pos == flips.len() {
                break;
            }
        }
    }
    best.expect("at least one ordering exists")
}

/// All concatenations of per-group permutations, groups kept in order.
fn group_orderings(groups: &[(u64, Vec<usize>)]) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    for (_, g) in groups {
        let g_perms = permutations(g);
        let mut grown = Vec::with_capacity(out.len() * g_perms.len());
        for prefix in &out {
            for p in &g_perms {
                let mut o = prefix.clone();
                o.extend_from_slice(p);
                grown.push(o);
            }
        }
        out = grown;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcq_query::parse_query;
    use dpcq_relation::{Database, Value};

    fn k4_db() -> Database {
        let mut db = Database::new();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    db.insert_tuple("Edge", &[Value(i), Value(j)]);
                }
            }
        }
        db
    }

    /// Identity-only column symmetries (what an asymmetric db yields).
    fn id_syms(q: &dpcq_query::ConjunctiveQuery) -> Vec<Vec<Vec<u8>>> {
        q.atoms()
            .iter()
            .map(|a| vec![(0..a.arity() as u8).collect()])
            .collect()
    }

    #[test]
    fn canonical_key_collapses_isomorphic_singletons() {
        let q = parse_query("Q(*) :- Edge(a,b), Edge(b,c), Edge(a,c)").unwrap();
        let s = id_syms(&q);
        let k0 = canonical_subset_key(&q, &[0], &s);
        let k1 = canonical_subset_key(&q, &[1], &s);
        let k2 = canonical_subset_key(&q, &[2], &s);
        // Every single-atom residual has boundary = both vars: one class.
        assert_eq!(k0, k1);
        assert_eq!(k1, k2);
    }

    #[test]
    fn canonical_key_distinguishes_orientation() {
        // Path a→b→c with keep {a,c} vs out-star: different directed
        // shapes, different keys — unless the relation is symmetric.
        let q = parse_query("Q(*) :- Edge(a,b), Edge(b,c), Edge(a,c)").unwrap();
        let s = id_syms(&q);
        let path = canonical_subset_key(&q, &[0, 1], &s); // Edge(a,b),Edge(b,c)
        let star = canonical_subset_key(&q, &[0, 2], &s); // Edge(a,b),Edge(a,c)
        assert_ne!(path, star);
    }

    #[test]
    fn symmetric_relation_collapses_orientation_classes() {
        // On a symmetric edge relation the path / out-star / in-star pair
        // residuals of the triangle are all "two edges sharing a vertex,
        // keep the far endpoints": one class.
        let q = parse_query("Q(*) :- Edge(a,b), Edge(b,c), Edge(a,c)").unwrap();
        let db = k4_db(); // symmetric by construction
        let syms = column_symmetries(&q, &db);
        assert!(syms.iter().all(|s| s.len() == 2), "swap detected");
        let k01 = canonical_subset_key(&q, &[0, 1], &syms);
        let k02 = canonical_subset_key(&q, &[0, 2], &syms);
        let k12 = canonical_subset_key(&q, &[1, 2], &syms);
        assert_eq!(k01, k02);
        assert_eq!(k02, k12);
        // An asymmetric instance must not collapse them.
        let mut directed = Database::new();
        directed.insert_tuple("Edge", &[Value(1), Value(2)]);
        let dsyms = column_symmetries(&q, &directed);
        assert!(dsyms.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn canonical_key_collapses_four_clique_pairs() {
        // 4-clique query: Edge(xi,xj) for i<j. The "out-out" pairs
        // {(x1,x2),(x1,x3)} and {(x2,x3),(x2,x4)} are isomorphic even
        // without column symmetries.
        let q = parse_query(
            "Q(*) :- Edge(x1,x2), Edge(x1,x3), Edge(x1,x4), Edge(x2,x3), Edge(x2,x4), Edge(x3,x4)",
        )
        .unwrap();
        let s = id_syms(&q);
        let a = canonical_subset_key(&q, &[0, 1], &s); // (x1,x2),(x1,x3)
        let b = canonical_subset_key(&q, &[3, 4], &s); // (x2,x3),(x2,x4)
        assert_eq!(a, b);
    }

    #[test]
    fn family_matches_per_subset_evaluator() {
        let q = parse_query("Q(*) :- Edge(a,b), Edge(b,c), Edge(a,c)").unwrap();
        let db = k4_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        let fam: BTreeSet<Vec<usize>> = [
            vec![],
            vec![0],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
        ]
        .into_iter()
        .collect();
        let fe = FamilyEvaluator::new(&ev);
        for threads in [1, 4] {
            let got = fe.t_family(&fam, threads).unwrap();
            assert_eq!(got.len(), fam.len());
            for (s, v) in &got {
                assert_eq!(*v, ev.t_e(s).unwrap(), "subset {s:?}");
            }
        }
        let stats = fe.stats();
        // 7 subsets collapse to ≤ 5 classes (∅, singletons, 3 pair shapes)
        // and the second t_family call is answered from the value cache.
        assert!(stats.values_computed <= 5, "stats {stats:?}");
        assert!(stats.value_hits >= stats.values_computed, "stats {stats:?}");
    }

    #[test]
    fn cache_shared_across_evaluator_instances() {
        // The engine-owned-store scenario: a second release builds a fresh
        // Evaluator over the *identical* database and answers the whole
        // family from the shared cache without recomputing anything.
        let q = parse_query("Q(*) :- Edge(a,b), Edge(b,c), Edge(a,c)").unwrap();
        let db = k4_db();
        let fam: BTreeSet<Vec<usize>> = [vec![], vec![0], vec![1], vec![2], vec![0, 1], vec![0, 2]]
            .into_iter()
            .collect();
        let cache = Arc::new(FamilyCache::new());
        let first = {
            let ev = Evaluator::new(&q, &db).unwrap();
            let fe = FamilyEvaluator::with_cache(&ev, Arc::clone(&cache));
            fe.t_family(&fam, 1).unwrap()
        };
        let after_first = cache.stats();
        assert!(after_first.factor_misses > 0);
        assert!(after_first.values_computed > 0);
        let second = {
            let ev = Evaluator::new(&q, &db).unwrap();
            let fe = FamilyEvaluator::with_cache(&ev, Arc::clone(&cache));
            fe.t_family(&fam, 1).unwrap()
        };
        assert_eq!(first, second);
        let after_second = cache.stats();
        // No new residual values, no new factors: pure cache replay.
        assert_eq!(after_second.values_computed, after_first.values_computed);
        assert_eq!(after_second.factor_misses, after_first.factor_misses);
        assert!(after_second.value_hits > after_first.value_hits);
    }

    #[test]
    fn apply_delta_matches_rebuild_for_insert_and_remove() {
        let q = parse_query("Q(*) :- Edge(a,b), Edge(b,c), Edge(a,c)").unwrap();
        let mut db = k4_db();
        let fam: BTreeSet<Vec<usize>> = [
            vec![],
            vec![0],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
            vec![0, 1, 2],
        ]
        .into_iter()
        .collect();
        let cache = Arc::new(FamilyCache::new());
        {
            let ev = Evaluator::new(&q, &db).unwrap();
            let fe = FamilyEvaluator::with_cache(&ev, Arc::clone(&cache));
            fe.t_family(&fam, 1).unwrap();
        }
        // Insert a batch introducing a brand-new domain value (4), then
        // remove it again: both directions must agree with a rebuild.
        let batch = vec![vec![Value(4), Value(0)], vec![Value(0), Value(4)]];
        for (round, insert) in [(0, true), (1, false)] {
            for t in &batch {
                if insert {
                    db.insert_tuple("Edge", t);
                } else {
                    db.remove_tuple("Edge", t);
                }
            }
            let out = cache.apply_delta(&q, "Edge", &batch, insert, None);
            assert!(
                matches!(out, DeltaOutcome::Applied { rows } if rows > 0),
                "round {round}: {out:?}"
            );
            let seeds = cache.seed_factors().unwrap();
            let ev = Evaluator::with_seed_factors(&q, &db, seeds).unwrap();
            let fe = FamilyEvaluator::with_cache(&ev, Arc::clone(&cache));
            let fresh = Evaluator::new(&q, &db).unwrap();
            for s in &fam {
                assert_eq!(
                    fe.t_e(s).unwrap(),
                    fresh.t_e(s).unwrap(),
                    "round {round}, subset {s:?}"
                );
            }
        }
    }

    #[test]
    fn stamped_cache_revalidates_only_against_its_own_stamp() {
        let stamp = |pairs: &[(&str, u64)]| {
            VersionStamp::new(pairs.iter().map(|&(n, v)| (n.to_string(), v)))
        };
        let built_at = stamp(&[("Edge", 3)]);
        let cache = FamilyCache::for_stamp(built_at.clone());
        assert_eq!(cache.stamp(), Some(built_at.clone()));
        assert!(cache.is_valid_for(&built_at));
        // Any movement of a read-set relation retires the cache…
        assert!(!cache.is_valid_for(&stamp(&[("Edge", 4)])));
        // …and so does a different read set, even at equal versions.
        assert!(!cache.is_valid_for(&stamp(&[("Edge", 3), ("S", 0)])));
        // Unstamped caches opt out of mechanical revalidation.
        let manual = FamilyCache::new();
        assert_eq!(manual.stamp(), None);
        assert!(!manual.is_valid_for(&built_at));
    }

    #[test]
    fn tripped_token_cancels_before_any_class_is_evaluated() {
        let q = parse_query("Q(*) :- Edge(a,b), Edge(b,c), Edge(a,c)").unwrap();
        let db = k4_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        let fam: BTreeSet<Vec<usize>> = [vec![], vec![0], vec![0, 1]].into_iter().collect();
        let fe = FamilyEvaluator::new(&ev);
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        for threads in [1, 4] {
            assert_eq!(
                fe.t_family_with_cancel(&fam, threads, expired),
                Err(EvalError::Cancelled),
                "threads = {threads}"
            );
        }
        assert_eq!(fe.stats().values_computed, 0, "no class was picked up");
        // A live token behaves exactly like plain `t_family`, and the
        // cancelled attempts left the cache usable.
        let got = fe
            .t_family_with_cancel(&fam, 2, CancelToken::never())
            .unwrap();
        assert_eq!(got, fe.t_family(&fam, 1).unwrap());
    }

    #[test]
    fn empty_family_is_empty() {
        let q = parse_query("Q(*) :- Edge(a,b)").unwrap();
        let db = k4_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        let fe = FamilyEvaluator::new(&ev);
        assert!(fe.t_family(&BTreeSet::new(), 8).unwrap().is_empty());
    }

    #[test]
    fn factor_store_shares_across_subsets() {
        let q = parse_query(
            "Q(*) :- Edge(x1,x2), Edge(x1,x3), Edge(x1,x4), Edge(x2,x3), Edge(x2,x4), Edge(x3,x4)",
        )
        .unwrap();
        let db = k4_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        // Two overlapping 4-atom subsets eliminate the same bucket
        // (atoms {0,1,2} summing out x1): the second evaluation must hit.
        // Drive the store directly — through `FamilyEvaluator::t_e` these
        // two subsets are isomorphic and the value cache would answer
        // before the factor store is ever consulted.
        let store = FactorStore::new();
        let a = ev.t_e_memo(Some(&store), &[0, 1, 2, 3]).unwrap();
        let b = ev.t_e_memo(Some(&store), &[0, 1, 2, 4]).unwrap();
        assert_eq!(a, ev.t_e(&[0, 1, 2, 3]).unwrap());
        assert_eq!(b, ev.t_e(&[0, 1, 2, 4]).unwrap());
        let (hits, misses) = store.counters();
        assert!(hits > 0, "hits {hits}, misses {misses}");
    }

    #[test]
    fn projected_queries_key_on_output() {
        let q_full = parse_query("Q(*) :- Edge(a,b), Edge(b,c)").unwrap();
        let q_proj = parse_query("Q(a) :- Edge(a,b), Edge(b,c)").unwrap();
        let kf = canonical_subset_key(&q_full, &[0], &id_syms(&q_full));
        let kp = canonical_subset_key(&q_proj, &[0], &id_syms(&q_proj));
        assert_ne!(kf, kp);
    }
}
