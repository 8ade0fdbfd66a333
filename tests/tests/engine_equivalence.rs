//! Property tests: the FAQ engine (bucket elimination + inclusion–
//! exclusion + branch-and-bound) agrees with the naive nested-loop
//! evaluator on random instances, for counts and for `T_E` on every atom
//! subset; and the Section 5.2 comparison materialization agrees with a
//! brute-force `T_E` of the original query where a comparison spans the
//! residual boundary.

use dpcq::eval::{naive, Evaluator};
use dpcq::query::analysis::{nonempty_subsets, subsets};
use dpcq::query::{parse_query, ConjunctiveQuery, Term, VarId};
use dpcq::relation::{Database, Value};
use proptest::prelude::*;
use std::collections::HashMap;

/// A pool of structurally diverse queries over a binary relation `E` and a
/// unary relation `U`.
fn query_pool() -> Vec<&'static str> {
    vec![
        "Q(*) :- E(x, y)",
        "Q(*) :- E(x, y), E(y, z)",
        "Q(*) :- E(x, y), E(y, z), x != z",
        "Q(*) :- E(x, y), E(y, z), x != y, y != z, x != z",
        "Q(*) :- E(x1,x2), E(x2,x3), E(x1,x3), x1 != x2, x2 != x3, x1 != x3",
        "Q(*) :- E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x1), x1 != x3, x2 != x4",
        "Q(*) :- E(x, y), U(y)",
        "Q(*) :- E(x, y), U(x), U(y), x != y",
        "Q(*) :- E(x, x)",
        "Q(*) :- E(x, y), E(y, x)",
        "Q(x) :- E(x, y), E(y, z)",
        "Q(x, z) :- E(x, y), E(y, z), x != z",
        "Q(y) :- E(x, y), U(x)",
        "Q(*) :- E(x, y), x < y",
        "Q(*) :- E(x, y), E(y, z), x < y, y < z",
        "Q(*) :- E(1, y), E(y, z)",
    ]
}

fn arb_db() -> impl Strategy<Value = Database> {
    (
        prop::collection::vec((0i64..6, 0i64..6), 0..14),
        prop::collection::vec(0i64..6, 0..6),
    )
        .prop_map(|(edges, unary)| {
            let mut db = Database::new();
            db.create_relation("E", 2);
            db.create_relation("U", 1);
            for (a, b) in edges {
                db.insert_tuple("E", &[Value(a), Value(b)]);
            }
            for a in unary {
                db.insert_tuple("U", &[Value(a)]);
            }
            db
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counts_match_naive(db in arb_db(), qi in 0usize..16) {
        let q = parse_query(query_pool()[qi]).unwrap();
        let ev = Evaluator::new(&q, &db).unwrap();
        prop_assert_eq!(ev.count().unwrap(), naive::count(&q, &db).unwrap());
    }

    #[test]
    fn te_matches_naive_on_all_subsets(db in arb_db(), qi in 0usize..13) {
        // Queries 13..16 contain comparisons, whose boundary-spanning
        // residuals are (correctly) refused pre-materialization; counts
        // for them are covered above, `T_E` by the brute-force test below.
        let q = parse_query(query_pool()[qi]).unwrap();
        let ev = Evaluator::new(&q, &db).unwrap();
        let n = q.num_atoms();
        for subset in subsets(&(0..n).collect::<Vec<_>>()) {
            prop_assert_eq!(
                ev.t_e(&subset).unwrap(),
                naive::t_e(&q, &db, &subset).unwrap(),
                "query {} subset {:?}", query_pool()[qi], subset
            );
        }
    }

    #[test]
    fn boundary_factor_max_equals_te(db in arb_db(), qi in 0usize..13) {
        // The materialized boundary factor and the B&B/IE paths must agree.
        let q = parse_query(query_pool()[qi]).unwrap();
        let ev = Evaluator::new(&q, &db).unwrap();
        let n = q.num_atoms();
        for subset in subsets(&(0..n).collect::<Vec<_>>()) {
            prop_assert_eq!(
                ev.t_e(&subset).unwrap(),
                ev.boundary_factor(&subset).unwrap().max_annotation().max(
                    u128::from(subset.is_empty())
                ),
                "subset {:?}", subset
            );
        }
    }

    #[test]
    fn materialized_comparisons_preserve_counts(db in arb_db(), qi in 13usize..16) {
        let q = parse_query(query_pool()[qi]).unwrap();
        let (q2, db2, _) =
            dpcq::eval::active_domain::materialize_comparisons(&q, &db, 4096).unwrap();
        let a = Evaluator::new(&q, &db).unwrap().count().unwrap();
        let b = Evaluator::new(&q2, &db2).unwrap().count().unwrap();
        prop_assert_eq!(a, b);
    }
}

/// The pool's comparison queries plus two whose comparison spans every
/// single-atom residual boundary.
fn comparison_pool() -> Vec<&'static str> {
    vec![
        query_pool()[13],
        query_pool()[14],
        "Q(*) :- E(x, y), E(y, z), x < z",
        "Q(*) :- E(x, y), E(y, z), x <= z",
    ]
}

/// `T_E(I)` of a full query with predicates, straight from the paper's
/// definition and independent of the engine: enumerate the residual
/// valuations of `E`, give each *free* predicate variable (one no atom of
/// `E` binds) every integer in `[min − k, max + k]` (`k` free variables,
/// `min`/`max` the extreme active values), count the valuations that
/// satisfy every predicate per boundary valuation, and take the maximum
/// over groups and assignments. The window is exact over ℤ: any
/// satisfying assignment keeps its order relations to the active values
/// and to the other free variables when compressed into it.
fn brute_te(q: &ConjunctiveQuery, db: &Database, subset: &[usize]) -> u128 {
    assert!(q.is_full() && !subset.is_empty());
    let mut valuations: Vec<Vec<Option<Value>>> = vec![vec![None; q.num_vars()]];
    for &i in subset {
        let atom = &q.atoms()[i];
        let rel = db.relation(&atom.relation).expect("relation exists");
        let mut next = Vec::new();
        for val in &valuations {
            'rows: for row in rel.iter() {
                let mut val = val.clone();
                for (term, &v) in atom.terms.iter().zip(row) {
                    let slot = match *term {
                        Term::Const(c) if c == v => continue,
                        Term::Const(_) => continue 'rows,
                        Term::Var(x) => &mut val[x.index()],
                    };
                    match *slot {
                        Some(bound) if bound != v => continue 'rows,
                        _ => *slot = Some(v),
                    }
                }
                next.push(val);
            }
        }
        valuations = next;
    }

    let bound = q.subset_vars(subset);
    let mut free: Vec<VarId> = q
        .predicates()
        .iter()
        .flat_map(|p| p.variables())
        .filter(|v| !bound.contains(v))
        .collect();
    free.sort_unstable();
    free.dedup();
    let k = free.len() as i64;
    let active = db.active_values();
    let (lo, hi) = match (active.first(), active.last()) {
        (Some(min), Some(max)) => (min.0 - k, max.0 + k),
        _ => (0, k),
    };

    let boundary = q.boundary(subset);
    let mut best = 0u128;
    let mut assignment = vec![lo; free.len()];
    loop {
        let mut groups: HashMap<Vec<Value>, u128> = HashMap::new();
        for val in &valuations {
            let lookup = |x: VarId| match val[x.index()] {
                Some(v) => v,
                None => Value(assignment[free.iter().position(|&f| f == x).unwrap()]),
            };
            if q.predicates().iter().all(|p| p.eval(lookup)) {
                let key = boundary.iter().map(|&x| lookup(x)).collect();
                *groups.entry(key).or_default() += 1;
            }
        }
        best = best.max(groups.into_values().max().unwrap_or(0));
        // Next assignment in the odometer over the window.
        let Some(i) = assignment.iter().position(|&a| a < hi) else {
            return best;
        };
        assignment[i] += 1;
        assignment[..i].fill(lo);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn materialized_te_matches_brute_force_definition(db in arb_db()) {
        // The Section 5.2 rewrite, checked against `T_E` of the *original*
        // query where a comparison spans the residual boundary: the
        // materialized comparison atoms are public and join every residual.
        for text in comparison_pool() {
            let q = parse_query(text).unwrap();
            let (q2, db2, added) =
                dpcq::eval::active_domain::materialize_comparisons(&q, &db, 4096).unwrap();
            let ev = Evaluator::new(&q2, &db2).unwrap();
            let public: Vec<usize> = (0..q2.num_atoms())
                .filter(|&i| added.contains(&q2.atoms()[i].relation))
                .collect();
            for subset in nonempty_subsets(&(0..q.num_atoms()).collect::<Vec<_>>()) {
                let mut rewritten = subset.clone();
                rewritten.extend(&public);
                prop_assert_eq!(
                    ev.t_e(&rewritten).unwrap(),
                    brute_te(&q, &db, &subset),
                    "query {} subset {:?}", text, subset
                );
            }
        }
    }
}
