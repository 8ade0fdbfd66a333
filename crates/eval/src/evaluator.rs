//! The FAQ-style bucket-elimination engine.
//!
//! [`Evaluator`] binds a [`ConjunctiveQuery`] to a [`Database`] and answers
//! the two questions the sensitivity machinery asks (Sections 3.1, 5, 6):
//!
//! * `|q(I)|` — the query's result size ([`Evaluator::count`]);
//! * `T_E(I) = max_t |q_E(I) ⋈ t|` — the maximum boundary multiplicity of a
//!   residual query ([`Evaluator::t_e`]), in the projected (distinct-count)
//!   form when the query is non-full.
//!
//! The engine eliminates non-boundary variables one bucket at a time,
//! joining the factors that contain the chosen variable and summing it out
//! in the appropriate semiring. Predicates are applied as soon as all of
//! their variables coexist in a factor; the bucket is *widened* (extra
//! factors pulled in) when a predicate would otherwise lose its last
//! variable, so predicate filters are never dropped silently. Predicates
//! not contained in the residual's variables are handled per Corollary 5.1:
//! inequalities are always satisfiable across the boundary and are dropped
//! exactly; *comparisons* would be unsound to drop, so the engine refuses
//! them (materialize via [`crate::active_domain`] first).
//!
//! The final `max` over the boundary is computed by a branch-and-bound
//! search over the remaining factors (sorted by weight, pruned by the
//! product of per-factor maxima) instead of materializing their join —
//! residuals of disconnected patterns otherwise force huge cross products
//! whose maximum is trivial.

use crate::domain::Domain;
use crate::error::EvalError;
use crate::factor::{vars_mask, Factor, Semiring};
use crate::family::{cached, restrict_rep, FactorStore, Sig, TF};
use dpcq_query::{ConjunctiveQuery, Predicate, Term, VarId};
use dpcq_relation::{Database, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A query bound to a database instance, ready to evaluate counts and
/// residual boundary multiplicities.
#[derive(Debug)]
pub struct Evaluator<'a> {
    query: &'a ConjunctiveQuery,
    db: &'a Database,
    /// Base factor per atom (no predicates applied), built once and shared
    /// (`Arc`) with residual evaluations instead of cloned into them.
    atom_factors: Vec<Arc<Factor>>,
}

impl<'a> Evaluator<'a> {
    /// Binds `query` to `db`, validating that every referenced relation
    /// exists with the right arity and materializing per-atom base factors.
    ///
    /// Every value appearing in any atom's rows is interned into one
    /// evaluation-scoped [`Domain`], frozen here and shared by every
    /// factor this evaluator (and any [`crate::FamilyEvaluator`] over it)
    /// will ever derive — the code-compressed kernel's single value map.
    pub fn new(query: &'a ConjunctiveQuery, db: &'a Database) -> Result<Self, EvalError> {
        let mut domain = Domain::new();
        let mut staged: Vec<(Vec<VarId>, Vec<u32>, Vec<u128>)> =
            Vec::with_capacity(query.num_atoms());
        for atom in query.atoms() {
            let rel = db
                .relation(&atom.relation)
                .ok_or_else(|| EvalError::UnknownRelation {
                    relation: atom.relation.clone(),
                })?;
            if rel.arity() != atom.arity() {
                return Err(EvalError::ArityMismatch {
                    relation: atom.relation.clone(),
                    atom_arity: atom.arity(),
                    relation_arity: rel.arity(),
                });
            }
            let vars = atom.variables();
            // Column slot of each term, resolved once ahead of the row
            // loop (a per-row `position()` scan shows up in profiles).
            let slots: Vec<Option<usize>> = atom
                .terms
                .iter()
                .map(|t| {
                    t.as_var()
                        .map(|v| vars.iter().position(|w| *w == v).expect("var interned"))
                })
                .collect();
            let mut codes: Vec<u32> = Vec::with_capacity(rel.len() * vars.len());
            let mut weights: Vec<u128> = Vec::with_capacity(rel.len());
            let mut bound: Vec<Option<Value>> = vec![None; vars.len()];
            'rows: for row in rel.iter() {
                bound.fill(None);
                for ((term, &val), slot) in atom.terms.iter().zip(row).zip(&slots) {
                    match term {
                        Term::Const(c) => {
                            if *c != val {
                                continue 'rows;
                            }
                        }
                        Term::Var(_) => {
                            let slot = slot.expect("variable term has a slot");
                            match bound[slot] {
                                None => bound[slot] = Some(val),
                                Some(prev) if prev != val => continue 'rows,
                                Some(_) => {}
                            }
                        }
                    }
                }
                for b in &bound {
                    codes.push(domain.intern(b.expect("all bound")));
                }
                weights.push(1);
            }
            staged.push((vars, codes, weights));
        }
        let domain = Arc::new(domain);
        let atom_factors = staged
            .into_iter()
            .map(|(vars, codes, weights)| {
                Arc::new(Factor::from_coded(
                    vars,
                    Arc::clone(&domain),
                    codes,
                    weights,
                    Semiring::Counting,
                ))
            })
            .collect();
        Ok(Evaluator {
            query,
            db,
            atom_factors,
        })
    }

    /// Binds `query` to `db` around already-built per-atom base factors —
    /// the delta-maintenance path: after `FamilyCache::apply_delta`
    /// patched the retained factors, the next evaluator must reuse them
    /// (and their patch domain) rather than re-stage from the relations,
    /// both to skip the O(instance) rebuild and because a fresh staging
    /// pass over the mutated database may intern codes in a different
    /// order than the append-only patch domain.
    ///
    /// The caller asserts that `atom_factors` equals what
    /// [`Evaluator::new`] would have built for `(query, db)` (same
    /// content; the column order of atom `i` is always
    /// `query.atoms()[i].variables()`, which both paths preserve).
    pub fn with_seed_factors(
        query: &'a ConjunctiveQuery,
        db: &'a Database,
        atom_factors: Vec<Arc<Factor>>,
    ) -> Result<Self, EvalError> {
        assert_eq!(
            atom_factors.len(),
            query.num_atoms(),
            "one seed factor per query atom"
        );
        debug_assert!(atom_factors
            .iter()
            .zip(query.atoms())
            .all(|(f, a)| f.vars() == a.variables()));
        Ok(Evaluator {
            query,
            db,
            atom_factors,
        })
    }

    /// The bound query.
    pub fn query(&self) -> &ConjunctiveQuery {
        self.query
    }

    /// The bound database.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// The base factor of atom `i` (constants filtered, repeated variables
    /// unified; no predicates applied). Used by statistics consumers such
    /// as elastic sensitivity's maximum-frequency computation.
    pub fn atom_factor(&self, i: usize) -> &Factor {
        self.atom_factors[i].as_ref()
    }

    /// The base factor of atom `i` as a shareable handle.
    pub(crate) fn atom_factor_arc(&self, i: usize) -> Arc<Factor> {
        Arc::clone(&self.atom_factors[i])
    }

    /// `|q(I)|`: the number of results of the (possibly projected) query,
    /// with all predicates applied.
    pub fn count(&self) -> Result<u128, EvalError> {
        let all: Vec<usize> = (0..self.query.num_atoms()).collect();
        match self.query.projection() {
            None => {
                // Inequality predicates: inclusion–exclusion keeps the
                // aggregation width low (safe here regardless of
                // connectivity — the boundary is empty, so every term
                // reduces to scalars).
                if let Some(c) = self.t_e_inclusion_exclusion(None, &all, &BTreeSet::new()) {
                    return Ok(c);
                }
                let f = self.residual_factor(None, &all, &BTreeSet::new(), false)?;
                Ok(f.scalar())
            }
            Some(o) => {
                let keep: BTreeSet<VarId> = o.iter().copied().collect();
                let f = self.residual_factor(None, &all, &keep, true)?;
                let drop: Vec<VarId> = keep.into_iter().collect();
                Ok(f.eliminate(&drop, Semiring::Counting).scalar())
            }
        }
    }

    /// `T_E(I)` for the residual query on `subset = E` (atom indices).
    ///
    /// For full queries this is the paper's Section 3.1 definition; for
    /// non-full queries the projected variant of Section 6
    /// (`max_t |π_{o_E}(q_E(I) ⋈ t)|`). Predicates are handled per
    /// Section 5 (see the module docs).
    pub fn t_e(&self, subset: &[usize]) -> Result<u128, EvalError> {
        self.t_e_memo(None, subset)
    }

    /// [`Evaluator::t_e`] with an optional shared-intermediate store (the
    /// family-evaluation entry point, see [`crate::family`]).
    pub(crate) fn t_e_memo(
        &self,
        memo: Option<&FactorStore>,
        subset: &[usize],
    ) -> Result<u128, EvalError> {
        if subset.is_empty() {
            return Ok(1); // T_∅ = 1 by convention
        }
        self.check_comparisons(subset)?;
        if self.query.residual_output(subset).is_some() {
            return Ok(self.boundary_factor_memo(memo, subset)?.max_annotation());
        }
        let boundary: BTreeSet<VarId> = self.query.boundary(subset).into_iter().collect();
        // Connected residuals whose predicates are inequalities evaluate
        // through inclusion–exclusion: each term is a predicate-free FAQ
        // with fused aggregation, keeping the width low (no bucket
        // widening, no materialized predicate joins).
        if self.query.subset_connected(subset) {
            if let Some(max) = self.t_e_inclusion_exclusion(memo, subset, &boundary) {
                return Ok(max);
            }
        }
        let (factors, pending) = self.eliminate_to_keep(memo, subset, &boundary, false)?;
        if let Some(max) = max_product(&factors, &pending, self.query.num_vars()) {
            return Ok(max);
        }
        // Branch-and-bound exceeded its node budget (adversarial shapes);
        // fall back to the materialized join.
        Ok(finalize_join(factors, pending, Semiring::Counting).max_annotation())
    }

    /// Inclusion–exclusion over inequality predicates:
    /// `count[all ≠ hold] = Σ_{S ⊆ preds} (−1)^{|S|} count[equalities S]`,
    /// where each term merges the equated variables and evaluates a
    /// predicate-free counting FAQ (fast: fused join-eliminate, no
    /// widening). Returns `None` when the residual's contained predicates
    /// are not all binary inequalities (or there are too many of them), in
    /// which case the caller uses the direct path.
    fn t_e_inclusion_exclusion(
        &self,
        memo: Option<&FactorStore>,
        subset: &[usize],
        boundary: &BTreeSet<VarId>,
    ) -> Option<u128> {
        const MAX_IE_PREDS: usize = 14;
        let contained = self.query.contained_predicates(subset);
        let mut ie_pairs: Vec<(usize, usize)> = Vec::new();
        let mut single: Vec<Predicate> = Vec::new();
        for p in contained {
            let vars = p.variables();
            match vars.len() {
                0 | 1 => single.push(p),
                2 if p.is_inequality() => ie_pairs.push((vars[0].0, vars[1].0)),
                _ => return None,
            }
        }
        if ie_pairs.len() > MAX_IE_PREDS {
            return None;
        }

        // Base factors with the single-variable filters applied; atoms
        // without applicable filters are shared, not cloned, and filtered
        // atoms are memoized across the family.
        let base: Vec<TF> = subset
            .iter()
            .map(|&i| {
                let af = self.atom_factor(i);
                let mut applicable: Vec<Predicate> = single
                    .iter()
                    .filter(|p| p.variables().iter().all(|v| af.mentions(*v)))
                    .copied()
                    .collect();
                if applicable.is_empty() {
                    return TF {
                        f: self.atom_factor_arc(i),
                        atoms: vec![i as u32],
                        preds: Vec::new(),
                    };
                }
                applicable.sort_unstable();
                let f = cached(
                    memo,
                    || Sig {
                        atoms: vec![i as u32],
                        keep: var_ids_sorted(af.vars()),
                        boolean: false,
                        preds: applicable.clone(),
                        rep: Vec::new(),
                    },
                    || {
                        let mut f = af.clone();
                        f.filter(&applicable);
                        f
                    },
                );
                TF {
                    f,
                    atoms: vec![i as u32],
                    preds: applicable,
                }
            })
            .collect();

        let nv = self.query.num_vars();
        let boundary_vec: Vec<VarId> = boundary.iter().copied().collect();
        // Boundary valuations key on dictionary codes: every factor of this
        // evaluation shares one domain, so code tuples identify value
        // tuples across all inclusion–exclusion terms.
        let mut acc: dpcq_relation::FxHashMap<Box<[u32]>, i128> =
            dpcq_relation::FxHashMap::default();
        let mut key_buf: Vec<u32> = vec![0; boundary_vec.len()];

        // Distinct predicate subsets can induce the same variable
        // partition; their signed contributions collapse to one Möbius
        // coefficient per partition (at most Bell(#vars) partitions vs
        // 2^κ subsets — a large saving for the all-pairs-distinct
        // pattern queries). Enumerate subsets cheaply, then evaluate each
        // partition once.
        fn find(rep: &mut [usize], x: usize) -> usize {
            if rep[x] != x {
                let r = find(rep, rep[x]);
                rep[x] = r;
            }
            rep[x]
        }
        // Canonical ingredients of the per-partition *final* signature:
        // the joined-and-boundary-aggregated term below is itself a
        // `Sig` (join the subset's atoms, filter the applied predicates,
        // merge per `rep`, eliminate to the boundary representatives).
        let mut atoms_key: Vec<u32> = subset.iter().map(|&i| i as u32).collect();
        atoms_key.sort_unstable();
        let mut applied_preds: Vec<Predicate> = base
            .iter()
            .flat_map(|tf| tf.preds.iter().copied())
            .collect();
        applied_preds.sort_unstable();
        applied_preds.dedup();
        let subset_vars: Vec<VarId> = self.query.subset_vars(subset).into_iter().collect();

        let mut partitions: dpcq_relation::FxHashMap<Vec<usize>, i128> =
            dpcq_relation::FxHashMap::default();
        for mask in 0u32..(1 << ie_pairs.len()) {
            let mut rep: Vec<usize> = (0..nv).collect();
            for (bit, &(a, b)) in ie_pairs.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    let (ra, rb) = (find(&mut rep, a), find(&mut rep, b));
                    let (lo, hi) = (ra.min(rb), ra.max(rb));
                    rep[hi] = lo;
                }
            }
            for x in 0..nv {
                find(&mut rep, x);
            }
            let sign: i128 = if mask.count_ones() % 2 == 0 { 1 } else { -1 };
            *partitions.entry(rep).or_insert(0) += sign;
        }

        let single_partition = partitions.len() == 1;
        for (rep, coeff) in partitions {
            if coeff == 0 {
                continue;
            }
            let identity = rep.iter().enumerate().all(|(i, &r)| i == r);
            let factors: Vec<TF> = base
                .iter()
                .map(|tf| {
                    let avars = self.query.atoms()[tf.atoms[0] as usize].variables();
                    let rpairs = restrict_rep(&rep, &avars);
                    if rpairs.is_empty() {
                        // The partition is the identity on this atom's
                        // columns: share the (possibly filtered) base.
                        return TF {
                            f: Arc::clone(&tf.f),
                            atoms: tf.atoms.clone(),
                            preds: tf.preds.clone(),
                        };
                    }
                    let f = cached(
                        memo,
                        || {
                            let mut keep: Vec<u32> =
                                avars.iter().map(|v| rep[v.0] as u32).collect();
                            keep.sort_unstable();
                            keep.dedup();
                            Sig {
                                atoms: tf.atoms.clone(),
                                keep,
                                boolean: false,
                                preds: tf.preds.clone(),
                                rep: rpairs.clone(),
                            }
                        },
                        || tf.f.merge_columns(&rep, Semiring::Counting),
                    );
                    TF {
                        f,
                        atoms: tf.atoms.clone(),
                        preds: tf.preds.clone(),
                    }
                })
                .collect();
            let keep: BTreeSet<VarId> = boundary_vec.iter().map(|b| VarId(rep[b.0])).collect();
            let reduced = eliminate_pure(
                memo,
                factors,
                &keep,
                Semiring::Counting,
                if identity { None } else { Some(&rep) },
                self.query,
            );
            let fs: Vec<Arc<Factor>> = reduced.into_iter().map(|t| t.f).collect();
            // The joined, boundary-aggregated term is itself a `Sig`:
            // memoize it so re-deriving a `T` value over a warm store —
            // in particular after a delta pass, which patches this entry
            // like any other — costs a lookup plus a scan of boundary
            // rows instead of a re-join of the residual.
            let term = cached(
                memo,
                || Sig {
                    atoms: atoms_key.clone(),
                    keep: keep.iter().map(|v| v.0 as u32).collect(),
                    boolean: false,
                    preds: applied_preds.clone(),
                    rep: restrict_rep(&rep, &subset_vars),
                },
                || {
                    let combined = join_all(&fs, Semiring::Counting);
                    let drop: Vec<VarId> = combined
                        .vars()
                        .iter()
                        .copied()
                        .filter(|v| !keep.contains(v))
                        .collect();
                    combined.eliminate(&drop, Semiring::Counting)
                },
            );

            if single_partition && coeff == 1 {
                // No surviving inclusion–exclusion terms (e.g. a
                // predicate-free subset): the term already aggregates one
                // row per boundary valuation, so `T` is its max weight —
                // skip the signed hash-map accumulation entirely.
                let max = (0..term.len()).map(|i| term.weight(i)).max().unwrap_or(0);
                return Some(max);
            }

            let positions: Vec<usize> = boundary_vec
                .iter()
                .map(|b| {
                    term.vars()
                        .iter()
                        .position(|v| *v == VarId(rep[b.0]))
                        .expect("boundary representative appears in aggregated term")
                })
                .collect();
            for i in 0..term.len() {
                let row = term.row_codes(i);
                for (slot, &p) in key_buf.iter_mut().zip(&positions) {
                    *slot = row[p];
                }
                let w = i128::try_from(term.weight(i)).expect("count fits in i128");
                *acc.entry(key_buf.clone().into_boxed_slice()).or_insert(0) += coeff * w;
            }
        }

        let max = acc.values().copied().max().unwrap_or(0);
        debug_assert!(
            acc.values().all(|&v| v >= 0),
            "inclusion-exclusion produced a negative count"
        );
        Some(max.max(0) as u128)
    }

    /// The boundary count factor behind `T_E`: one row per boundary
    /// valuation `t` with annotation `|q_E(I) ⋈ t|` (projected counts for
    /// non-full queries). `T_E` is its maximum annotation; the paper's
    /// witness `t_E(I)` is its argmax.
    pub fn boundary_factor(&self, subset: &[usize]) -> Result<Factor, EvalError> {
        self.boundary_factor_memo(None, subset)
    }

    /// [`Evaluator::boundary_factor`] with an optional shared store.
    fn boundary_factor_memo(
        &self,
        memo: Option<&FactorStore>,
        subset: &[usize],
    ) -> Result<Factor, EvalError> {
        if subset.is_empty() {
            return Ok(Factor::unit());
        }
        self.check_comparisons(subset)?;
        let boundary: BTreeSet<VarId> = self.query.boundary(subset).into_iter().collect();
        match self.query.residual_output(subset) {
            None => self.residual_factor(memo, subset, &boundary, false),
            Some(o) => {
                let mut keep = boundary.clone();
                keep.extend(o.iter().copied());
                let f = self.residual_factor(memo, subset, &keep, true)?;
                if o.is_empty() {
                    // π_∅ of a non-empty set is {⟨⟩}: annotation 1 per
                    // boundary valuation that has any completion.
                    return Ok(f.to_boolean());
                }
                let drop: Vec<VarId> = o
                    .iter()
                    .copied()
                    .filter(|v| !boundary.contains(v))
                    .collect();
                Ok(f.eliminate(&drop, Semiring::Counting))
            }
        }
    }

    /// Refuses comparison predicates that span the residual boundary
    /// (Section 5.2: they must be materialized, not dropped).
    fn check_comparisons(&self, subset: &[usize]) -> Result<(), EvalError> {
        let vars = self.query.subset_vars(subset);
        for p in self.query.predicates() {
            if p.is_comparison() && !p.variables().iter().all(|v| vars.contains(v)) {
                return Err(EvalError::UncontainedComparison {
                    predicate: p.display(|v| self.query.var_name(v)).to_string(),
                });
            }
        }
        Ok(())
    }

    /// Fully materialized residual factor over `keep`.
    fn residual_factor(
        &self,
        memo: Option<&FactorStore>,
        subset: &[usize],
        keep: &BTreeSet<VarId>,
        distinct: bool,
    ) -> Result<Factor, EvalError> {
        let semiring = if distinct {
            Semiring::Boolean
        } else {
            Semiring::Counting
        };
        let (factors, pending) = self.eliminate_to_keep(memo, subset, keep, distinct)?;
        Ok(finalize_join(factors, pending, semiring))
    }

    /// Core bucket elimination: evaluates the join of `subset`'s atoms,
    /// applying all predicates contained in `var(q_subset)`, eliminating
    /// every variable outside `keep`. Returns the remaining factors (over
    /// subsets of `keep`) and the still-pending predicates (whose
    /// variables are all in `keep`).
    ///
    /// `distinct` selects the Boolean semiring for the inner elimination
    /// (set semantics — used by the projected queries of Section 6).
    fn eliminate_to_keep(
        &self,
        memo: Option<&FactorStore>,
        subset: &[usize],
        keep: &BTreeSet<VarId>,
        distinct: bool,
    ) -> Result<(Vec<TF>, Vec<Predicate>), EvalError> {
        let semiring = if distinct {
            Semiring::Boolean
        } else {
            Semiring::Counting
        };
        let boolean = semiring == Semiring::Boolean;
        let mut pending: Vec<Predicate> = self.query.contained_predicates(subset);
        let mut factors: Vec<TF> = Vec::with_capacity(subset.len());
        for &i in subset {
            let af = self.atom_factor(i);
            let mut applicable = take_applicable(&mut pending, af.vars());
            if applicable.is_empty() {
                factors.push(TF {
                    f: self.atom_factor_arc(i),
                    atoms: vec![i as u32],
                    preds: Vec::new(),
                });
                continue;
            }
            applicable.sort_unstable();
            let f = cached(
                memo,
                || Sig {
                    atoms: vec![i as u32],
                    keep: var_ids_sorted(af.vars()),
                    boolean,
                    preds: applicable.clone(),
                    rep: Vec::new(),
                },
                || {
                    let mut f = af.clone();
                    f.filter(&applicable);
                    f
                },
            );
            factors.push(TF {
                f,
                atoms: vec![i as u32],
                preds: applicable,
            });
        }

        let mut elim: BTreeSet<VarId> = self
            .query
            .subset_vars(subset)
            .into_iter()
            .filter(|v| !keep.contains(v))
            .collect();

        while let Some(v) = pick_elimination_var(&elim, &factors) {
            // Gather every factor containing v, then widen so each pending
            // predicate mentioning v has all its variables present.
            let mut in_bucket: Vec<bool> = factors.iter().map(|t| t.f.mentions(v)).collect();
            loop {
                let covered: BTreeSet<VarId> = factors
                    .iter()
                    .zip(&in_bucket)
                    .filter(|(_, &inb)| inb)
                    .flat_map(|(t, _)| t.f.vars().iter().copied())
                    .collect();
                let mut widened = false;
                for p in pending.iter().filter(|p| p.variables().contains(&v)) {
                    for pv in p.variables() {
                        if !covered.contains(&pv) {
                            let j = factors
                                .iter()
                                .enumerate()
                                .position(|(j, t)| !in_bucket[j] && t.f.mentions(pv))
                                .expect("predicate var bound by some atom of the subset");
                            in_bucket[j] = true;
                            widened = true;
                        }
                    }
                }
                if !widened {
                    break;
                }
            }

            // Split the bucket off, leaving the others in place.
            let mut bucket: Vec<TF> = Vec::new();
            let mut rest: Vec<TF> = Vec::new();
            for (t, inb) in factors.drain(..).zip(in_bucket) {
                if inb {
                    bucket.push(t);
                } else {
                    rest.push(t);
                }
            }
            // The joined factor's variable set (the union) is known before
            // joining, so predicate routing, the dead-variable set, and
            // the memo signature can all be derived up front — a cache hit
            // skips the join entirely.
            let joined_vars: Vec<VarId> = bucket
                .iter()
                .flat_map(|t| t.f.vars().iter().copied())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut applicable = take_applicable(&mut pending, &joined_vars);
            applicable.sort_unstable();

            // Variables that die with this bucket: not kept, not referenced
            // by any remaining factor or pending predicate.
            let dead: Vec<VarId> = joined_vars
                .iter()
                .copied()
                .filter(|u| {
                    elim.contains(u)
                        && !rest.iter().any(|t| t.f.mentions(*u))
                        && !pending.iter().any(|p| p.variables().contains(u))
                })
                .collect();
            debug_assert!(dead.contains(&v), "progress: v must be eliminable");

            let atoms = union_atoms(&bucket);
            let preds = union_preds(&bucket, &applicable);
            let f = cached(
                memo,
                || Sig {
                    atoms: atoms.clone(),
                    keep: joined_vars
                        .iter()
                        .filter(|u| !dead.contains(u))
                        .map(|u| u.0 as u32)
                        .collect(),
                    boolean,
                    preds: preds.clone(),
                    rep: Vec::new(),
                },
                || {
                    // Join smallest factors first to keep intermediates
                    // small.
                    let mut fs: Vec<Arc<Factor>> =
                        bucket.iter().map(|t| Arc::clone(&t.f)).collect();
                    fs.sort_by_key(|f| f.len());
                    let mut joined = unshare(join_all(&fs, semiring));
                    joined.filter(&applicable);
                    joined.eliminate(&dead, semiring)
                },
            );
            for u in dead {
                elim.remove(&u);
            }
            rest.push(TF { f, atoms, preds });
            factors = rest;
        }
        Ok((factors, pending))
    }
}

/// Sorted ids of a variable list (memo-signature component).
fn var_ids_sorted(vars: &[VarId]) -> Vec<u32> {
    let mut ids: Vec<u32> = vars.iter().map(|v| v.0 as u32).collect();
    ids.sort_unstable();
    ids
}

/// The sorted union of the tagged factors' base atoms.
fn union_atoms(bucket: &[TF]) -> Vec<u32> {
    let mut atoms: Vec<u32> = bucket
        .iter()
        .flat_map(|t| t.atoms.iter().copied())
        .collect();
    atoms.sort_unstable();
    atoms.dedup();
    atoms
}

/// The canonically sorted, deduplicated union of applied predicates
/// (the inclusion–exclusion path applies a single-variable filter to
/// every atom mentioning its variable, so inputs can repeat a predicate;
/// deduplicating keeps the memo key canonical).
fn union_preds(bucket: &[TF], extra: &[Predicate]) -> Vec<Predicate> {
    let mut preds: Vec<Predicate> = bucket
        .iter()
        .flat_map(|t| t.preds.iter().copied())
        .chain(extra.iter().copied())
        .collect();
    preds.sort_unstable();
    preds.dedup();
    preds
}

/// Predicate-free bucket elimination with fused aggregation: repeatedly
/// joins the factors containing the cheapest elimination variable and
/// drops every variable that dies with the bucket *during the final join*
/// (the intermediate join is never materialized). Used by the
/// inclusion–exclusion terms, which carry no pending predicates by
/// construction; `rep` is the IE term's column-merge partition (`None`
/// for the identity), threaded into the memo signatures.
fn eliminate_pure(
    memo: Option<&FactorStore>,
    mut factors: Vec<TF>,
    keep: &BTreeSet<VarId>,
    semiring: Semiring,
    rep: Option<&[usize]>,
    query: &ConjunctiveQuery,
) -> Vec<TF> {
    let boolean = semiring == Semiring::Boolean;
    let mut elim: BTreeSet<VarId> = factors
        .iter()
        .flat_map(|t| t.f.vars().iter().copied())
        .filter(|v| !keep.contains(v))
        .collect();
    while let Some(v) = pick_elimination_var(&elim, &factors) {
        let mut bucket: Vec<TF> = Vec::new();
        let mut rest: Vec<TF> = Vec::new();
        for t in factors.drain(..) {
            if t.f.mentions(v) {
                bucket.push(t);
            } else {
                rest.push(t);
            }
        }
        let dead: Vec<VarId> = bucket
            .iter()
            .flat_map(|t| t.f.vars().iter().copied())
            .filter(|u| elim.contains(u) && !rest.iter().any(|t| t.f.mentions(*u)))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let atoms = union_atoms(&bucket);
        let preds = union_preds(&bucket, &[]);
        let f = cached(
            memo,
            || {
                let mut keep_ids: Vec<u32> = bucket
                    .iter()
                    .flat_map(|t| t.f.vars().iter().copied())
                    .filter(|u| !dead.contains(u))
                    .map(|u| u.0 as u32)
                    .collect();
                keep_ids.sort_unstable();
                keep_ids.dedup();
                // Restrict the partition to the atoms' original columns:
                // two IE terms agreeing there share the factor.
                let rep_pairs = rep
                    .map(|r| {
                        let orig: Vec<VarId> = atoms
                            .iter()
                            .flat_map(|&i| query.atoms()[i as usize].variables())
                            .collect();
                        restrict_rep(r, &orig)
                    })
                    .unwrap_or_default();
                Sig {
                    atoms: atoms.clone(),
                    keep: keep_ids,
                    boolean,
                    preds: preds.clone(),
                    rep: rep_pairs,
                }
            },
            || {
                let mut fs: Vec<Arc<Factor>> = bucket.iter().map(|t| Arc::clone(&t.f)).collect();
                fs.sort_by_key(|f| f.len());
                match fs.len() {
                    1 => fs[0].eliminate(&dead, semiring),
                    n => {
                        // Fuse the elimination into the final (largest)
                        // join so the intermediate never materializes.
                        let prefix = join_all(&fs[..n - 1], semiring);
                        prefix.join_eliminate(&fs[n - 1], &dead, semiring)
                    }
                }
            },
        );
        for u in dead {
            elim.remove(&u);
        }
        rest.push(TF { f, atoms, preds });
        factors = rest;
    }
    factors
}

/// Joins the remaining factors (cross products if disconnected) and
/// applies the leftover predicates.
fn finalize_join(factors: Vec<TF>, mut pending: Vec<Predicate>, semiring: Semiring) -> Factor {
    let mut fs: Vec<Arc<Factor>> = factors.into_iter().map(|t| t.f).collect();
    fs.sort_by_key(|f| f.len());
    let mut result = unshare(join_all(&fs, semiring));
    let applicable = take_applicable(&mut pending, result.vars());
    result.filter(&applicable);
    debug_assert!(
        pending.is_empty(),
        "all contained predicates must have been applied"
    );
    result
}

/// Joins the factors left to right (the unit factor for an empty list; a
/// shared handle to the single factor for one). Callers pre-sort when a
/// smallest-first order matters.
fn join_all(fs: &[Arc<Factor>], semiring: Semiring) -> Arc<Factor> {
    match fs.len() {
        0 => Arc::new(Factor::unit()),
        1 => Arc::clone(&fs[0]),
        _ => {
            let mut acc = fs[0].join(&fs[1], semiring);
            for f in &fs[2..] {
                acc = acc.join(f, semiring);
            }
            Arc::new(acc)
        }
    }
}

/// An owned factor out of a possibly-shared handle (clones only when the
/// factor is genuinely shared, e.g. a single-element [`join_all`]).
fn unshare(f: Arc<Factor>) -> Factor {
    Arc::try_unwrap(f).unwrap_or_else(|shared| (*shared).clone())
}

/// Node budget for the final-stage branch-and-bound (rows examined);
/// beyond this the caller falls back to the materialized join.
const MAX_PRODUCT_NODE_BUDGET: u64 = 50_000_000;

/// `max over joint rows of Π weights`, subject to shared-variable
/// consistency and the pending predicates — without materializing the
/// join. Factors' rows are visited in descending weight order, pruned by
/// the product of the remaining factors' maxima; the search achieves the
/// global upper bound immediately on typical boundary factors and on
/// cross products of set-like factors.
///
/// Returns `None` if the node budget is exhausted.
fn max_product(factors: &[TF], preds: &[Predicate], num_vars: usize) -> Option<u128> {
    if factors.is_empty() {
        return Some(1); // the unit factor; pending preds are var-free here
    }
    if factors.iter().any(|t| t.f.is_empty()) {
        return Some(0);
    }
    // Fast path: a single factor with no predicates left.
    if factors.len() == 1 && preds.is_empty() {
        return Some(factors[0].f.max_annotation());
    }
    // Descending-weight orders are cached per factor, so shared factors
    // sort once across every branch-and-bound that visits them.
    let orders: Vec<&[u32]> = factors.iter().map(|t| t.f.rows_by_weight_desc()).collect();
    // suffix_max[i] = Π_{j ≥ i} max weight of factor j.
    let mut suffix_max = vec![1u128; factors.len() + 1];
    for i in (0..factors.len()).rev() {
        suffix_max[i] = suffix_max[i + 1].checked_mul(factors[i].f.max_annotation())?;
    }
    // The search binds dictionary codes (single-word equality); the
    // factors of one evaluation share a domain *up to prefix extension*
    // (delta maintenance grows the patch domain append-only, so factors
    // retained earlier carry prefixes of the longest one). Codes agree
    // wherever they overlap; decode through the longest domain so every
    // code resolves.
    let domain = factors
        .iter()
        .map(|t| t.f.domain())
        .max_by_key(|d| d.values().len())
        .expect("non-empty factor list");
    debug_assert!(
        factors.iter().all(|t| {
            let d = t.f.domain();
            domain.values()[..d.values().len()] == *d.values()
        }),
        "max_product factor domains must be prefix-consistent"
    );

    struct Search<'s> {
        factors: &'s [TF],
        orders: &'s [&'s [u32]],
        suffix_max: &'s [u128],
        preds: &'s [Predicate],
        domain: &'s crate::domain::Domain,
        bound: Vec<Option<u32>>,
        best: u128,
        nodes: u64,
    }

    impl Search<'_> {
        /// Returns `false` when the node budget is exhausted.
        fn recurse(&mut self, i: usize, acc: u128) -> bool {
            if i == self.factors.len() {
                self.best = self.best.max(acc);
                return true;
            }
            if acc.saturating_mul(self.suffix_max[i]) <= self.best {
                return true; // cannot improve
            }
            let factor = self.factors[i].f.as_ref();
            let vars = factor.vars().to_vec();
            'rows: for &ri in self.orders[i] {
                self.nodes += 1;
                if self.nodes > MAX_PRODUCT_NODE_BUDGET {
                    return false;
                }
                let ri = ri as usize;
                let w = factor.weight(ri);
                // Rows are weight-sorted: once even this row cannot beat
                // `best`, no later row can.
                if acc.saturating_mul(w).saturating_mul(self.suffix_max[i + 1]) <= self.best {
                    break;
                }
                let row = factor.row_codes(ri);
                let mut newly: Vec<VarId> = Vec::new();
                for (v, &code) in vars.iter().zip(row) {
                    match self.bound[v.0] {
                        None => {
                            self.bound[v.0] = Some(code);
                            newly.push(*v);
                        }
                        Some(prev) if prev != code => {
                            for u in newly.drain(..) {
                                self.bound[u.0] = None;
                            }
                            continue 'rows;
                        }
                        Some(_) => {}
                    }
                }
                // Predicates that just became fully bound.
                let ok = self.preds.iter().all(|p| {
                    let pv = p.variables();
                    if !pv.iter().any(|v| newly.contains(v)) {
                        return true; // checked earlier or not yet bound
                    }
                    if pv.iter().any(|v| self.bound[v.0].is_none()) {
                        return true; // not yet fully bound
                    }
                    p.eval(|v| self.domain.value(self.bound[v.0].expect("checked bound")))
                });
                let go_on = !ok || self.recurse(i + 1, acc.checked_mul(w).expect("count overflow"));
                for u in newly {
                    self.bound[u.0] = None;
                }
                if !go_on {
                    return false;
                }
            }
            true
        }
    }

    let mut search = Search {
        factors,
        orders: &orders,
        suffix_max: &suffix_max,
        preds,
        domain,
        bound: vec![None; num_vars],
        best: 0,
        nodes: 0,
    };
    search.recurse(0, 1).then_some(search.best)
}

/// Removes and returns the predicates whose variables are all columns of a
/// factor with variable list `vars` (bitset membership tests, with a
/// linear-scan fallback for variable ids past the mask width).
fn take_applicable(pending: &mut Vec<Predicate>, vars: &[VarId]) -> Vec<Predicate> {
    if pending.is_empty() {
        return Vec::new();
    }
    let mask = vars_mask(vars);
    let contains = |v: &VarId| {
        if v.0 < 128 {
            mask & (1u128 << v.0) != 0
        } else {
            vars.contains(v)
        }
    };
    let mut applicable = Vec::new();
    pending.retain(|p| {
        if p.variables().iter().all(contains) {
            applicable.push(*p);
            false
        } else {
            true
        }
    });
    applicable
}

/// Chooses the next variable to eliminate: the one whose bucket (factors
/// mentioning it) is cheapest by total row count. Returns `None` when no
/// elimination variable remains.
fn pick_elimination_var(elim: &BTreeSet<VarId>, factors: &[TF]) -> Option<VarId> {
    elim.iter().copied().min_by_key(|&v| {
        let cost: usize = factors
            .iter()
            .filter(|t| t.f.mentions(v))
            .map(|t| t.f.len())
            .sum();
        (cost, v.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcq_query::{parse_query, CqBuilder};
    use dpcq_relation::vals;

    fn path_db() -> Database {
        // Edge = {(1,2),(2,3),(3,4),(1,3)}
        let mut db = Database::new();
        for e in [[1, 2], [2, 3], [3, 4], [1, 3]] {
            db.insert_tuple("Edge", &[Value(e[0]), Value(e[1])]);
        }
        db
    }

    #[test]
    fn count_single_atom() {
        let q = parse_query("Q(*) :- Edge(x, y)").unwrap();
        let db = path_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.count().unwrap(), 4);
    }

    #[test]
    fn count_two_hop_paths() {
        // 1->2->3, 2->3->4, 1->3->4: three 2-paths.
        let q = parse_query("Q(*) :- Edge(x, y), Edge(y, z)").unwrap();
        let db = path_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.count().unwrap(), 3);
    }

    #[test]
    fn count_with_inequality() {
        let q = parse_query("Q(*) :- Edge(x, y), Edge(y, z), x != z").unwrap();
        let db = path_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.count().unwrap(), 3); // no 2-cycles in this instance
    }

    #[test]
    fn count_projected() {
        // Distinct sources of 2-paths: {1, 2}.
        let q = parse_query("Q(x) :- Edge(x, y), Edge(y, z)").unwrap();
        let db = path_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.count().unwrap(), 2);
    }

    #[test]
    fn count_with_constant_atom() {
        let q = parse_query("Q(*) :- Edge(1, y)").unwrap();
        let db = path_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.count().unwrap(), 2); // (1,2) and (1,3)
    }

    #[test]
    fn count_repeated_var_atom() {
        let mut db = path_db();
        db.insert_tuple("Edge", &vals![5, 5]);
        let q = parse_query("Q(*) :- Edge(x, x)").unwrap();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.count().unwrap(), 1);
    }

    #[test]
    fn te_of_empty_subset_is_one() {
        let q = parse_query("Q(*) :- Edge(x, y)").unwrap();
        let db = path_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.t_e(&[]).unwrap(), 1);
    }

    #[test]
    fn te_single_atom_is_max_degree() {
        // q = Edge(x,y) ⋈ Edge(y,z); E = {0}: boundary {y} (shared with
        // atom 1). T_E = max over y of #x with (x,y) ∈ Edge = max in-degree.
        let q = parse_query("Q(*) :- Edge(x, y), Edge(y, z)").unwrap();
        let db = path_db(); // in-degrees: 2:1, 3:2, 4:1
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.t_e(&[0]).unwrap(), 2);
        // E = {1}: boundary {y}; max out-degree = 2 (node 1).
        assert_eq!(ev.t_e(&[1]).unwrap(), 2);
    }

    #[test]
    fn te_full_subset_has_empty_boundary() {
        let q = parse_query("Q(*) :- Edge(x, y), Edge(y, z)").unwrap();
        let db = path_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        // Boundary empty: T = |q(I)| = 3.
        assert_eq!(ev.t_e(&[0, 1]).unwrap(), 3);
    }

    #[test]
    fn uncontained_comparison_is_refused() {
        let q = parse_query("Q(*) :- Edge(x, y), Edge(y, z), x < z").unwrap();
        let db = path_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        // Full count is fine (all predicate vars present).
        assert_eq!(ev.count().unwrap(), 3);
        // Residual on atom 0 loses z: comparison spans the boundary.
        assert!(matches!(
            ev.t_e(&[0]).unwrap_err(),
            EvalError::UncontainedComparison { .. }
        ));
    }

    #[test]
    fn uncontained_inequality_is_dropped_exactly() {
        let q = parse_query("Q(*) :- Edge(x, y), Edge(y, z), x != z").unwrap();
        let db = path_db();
        let ev = Evaluator::new(&q, &db).unwrap();
        // Corollary 5.1: T on atom 0 ignores x != z (z free over Z).
        assert_eq!(ev.t_e(&[0]).unwrap(), 2);
    }

    #[test]
    fn projected_te_counts_distinct() {
        // q = π_x (Edge(x,y) ⋈ Edge(y,z)); E = {0}: o_E = {x}, ∂ = {y}.
        // T = max over y of #distinct x with (x,y) ∈ Edge.
        let mut db = path_db();
        db.insert_tuple("Edge", &vals![2, 4]); // in-neighbors of 4: {3, 2}
        let q = parse_query("Q(x) :- Edge(x, y), Edge(y, z)").unwrap();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.t_e(&[0]).unwrap(), 2);
        // E = {1}: o_E = {} (x not in atom 1), ∂ = {y}: T = 1 (π_∅ of a
        // non-empty set is the empty tuple).
        assert_eq!(ev.t_e(&[1]).unwrap(), 1);
    }

    #[test]
    fn unknown_relation_and_arity_errors() {
        let q = parse_query("Q(*) :- Nope(x, y)").unwrap();
        let db = path_db();
        assert!(matches!(
            Evaluator::new(&q, &db).unwrap_err(),
            EvalError::UnknownRelation { .. }
        ));
        let q2 = parse_query("Q(*) :- Edge(x, y, z)").unwrap();
        assert!(matches!(
            Evaluator::new(&q2, &db).unwrap_err(),
            EvalError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn triangle_count_on_k4() {
        // Complete directed graph on 4 vertices (no self-loops): every
        // ordered triple of distinct vertices forms a directed triangle,
        // so the CQ count is 4·3·2 = 24.
        let mut db = Database::new();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    db.insert_tuple("Edge", &[Value(i), Value(j)]);
                }
            }
        }
        let q = parse_query(
            "Q(*) :- Edge(x1,x2), Edge(x2,x3), Edge(x1,x3), x1 != x2, x2 != x3, x1 != x3",
        )
        .unwrap();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.count().unwrap(), 24);
    }

    #[test]
    fn disconnected_query_is_cross_product() {
        let mut db = Database::new();
        db.insert_tuple("R", &vals![1]);
        db.insert_tuple("R", &vals![2]);
        db.insert_tuple("S", &vals![7]);
        let q = parse_query("Q(*) :- R(x), S(y)").unwrap();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.count().unwrap(), 2);
    }

    #[test]
    fn predicate_spanning_disconnected_atoms() {
        let mut db = Database::new();
        db.insert_tuple("R", &vals![1]);
        db.insert_tuple("R", &vals![7]);
        db.insert_tuple("S", &vals![7]);
        let q = parse_query("Q(*) :- R(x), S(y), x != y").unwrap();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.count().unwrap(), 1);
    }

    #[test]
    fn empty_relation_gives_zero() {
        let mut db = Database::new();
        db.create_relation("Edge", 2);
        let q = parse_query("Q(*) :- Edge(x, y), Edge(y, z)").unwrap();
        let ev = Evaluator::new(&q, &db).unwrap();
        assert_eq!(ev.count().unwrap(), 0);
        assert_eq!(ev.t_e(&[0]).unwrap(), 0);
    }

    #[test]
    fn four_clique_te_values() {
        // Triangle query on the symmetric K4.
        let mut db = Database::new();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    db.insert_tuple("Edge", &[Value(i), Value(j)]);
                }
            }
        }
        let mut b = CqBuilder::new();
        let (x1, x2, x3) = (b.var("x1"), b.var("x2"), b.var("x3"));
        b.atom("Edge", [x1, x2]);
        b.atom("Edge", [x2, x3]);
        b.atom("Edge", [x1, x3]);
        let q = b.build().unwrap();
        let ev = Evaluator::new(&q, &db).unwrap();
        // E = {1,2}: residual Edge(x2,x3) ⋈ Edge(x1,x3), boundary {x1,x2};
        // at x1 = x2 every out-neighbor of x1 joins: T = 3.
        assert_eq!(ev.t_e(&[1, 2]).unwrap(), 3);
        // Single-atom residual: boundary is both of its vars: T = 1.
        assert_eq!(ev.t_e(&[0]).unwrap(), 1);
    }

    #[test]
    fn disconnected_residual_with_cross_predicates() {
        // T over two disconnected atoms whose boundary is everything:
        // the value is 1 iff a predicate-satisfying combination exists
        // (exercises the branch-and-bound final stage).
        let mut db = Database::new();
        db.insert_tuple("R", &vals![1]);
        db.insert_tuple("S", &vals![1]);
        db.insert_tuple("T", &vals![1]);
        db.insert_tuple("T", &vals![2]);
        let q = parse_query("Q(*) :- R(x), S(y), T(x), T(y), x != y").unwrap();
        let ev = Evaluator::new(&q, &db).unwrap();
        // Subset {0,1} = R(x), S(y): boundary {x,y}; contained pred x != y
        // kills the only combination (1,1) ⇒ T = 0.
        assert_eq!(ev.t_e(&[0, 1]).unwrap(), 0);
        // Without the predicate constraint, subset {2,3} = T(x), T(y):
        // combinations (1,2) or (2,1) satisfy x != y ⇒ T = 1.
        assert_eq!(ev.t_e(&[2, 3]).unwrap(), 1);
    }

    #[test]
    fn max_product_matches_materialized_join() {
        // Randomized: B&B max equals max annotation of the real join.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..40 {
            let mut db = Database::new();
            for _ in 0..12 {
                db.insert_tuple(
                    "A",
                    &[Value(rng.gen_range(0..4)), Value(rng.gen_range(0..4))],
                );
                db.insert_tuple(
                    "B",
                    &[Value(rng.gen_range(0..4)), Value(rng.gen_range(0..4))],
                );
                db.insert_tuple("C", &[Value(rng.gen_range(0..4))]);
            }
            let q = parse_query("Q(*) :- A(x, y), B(z, w), C(z), x != w").unwrap();
            let ev = Evaluator::new(&q, &db).unwrap();
            // Subset {0,1}: A and B disconnected, boundary = all vars.
            let via_bb = ev.t_e(&[0, 1]).unwrap();
            let via_join = ev.boundary_factor(&[0, 1]).unwrap().max_annotation();
            assert_eq!(via_bb, via_join, "trial {trial}");
            // Subset {1,2}: connected via z.
            let via_bb2 = ev.t_e(&[1, 2]).unwrap();
            let via_join2 = ev.boundary_factor(&[1, 2]).unwrap().max_annotation();
            assert_eq!(via_bb2, via_join2, "trial {trial}");
        }
    }
}
