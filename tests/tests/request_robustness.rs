//! Robustness of the in-process API: arbitrary `Request` values — not
//! wire text, so the protocol parser's validation is bypassed — sent
//! through `Server::handle` never panic the server, and the budget
//! ledgers stay exact after every request: `spent + remaining ==
//! budget`, and `spent` is the ε-sum of the principal's fresh
//! (`cached: false`) releases.
//!
//! The generated values cover ε of 0, negative, NaN, ±∞, tiny and the
//! floor `MIN_EPSILON`;
//! deadlines of 0 and `u64::MAX`; unparseable queries and unknown
//! relations; empty and duplicate batches; empty, ragged and zero-width
//! tuples; and the budget, stats, metrics and shutdown ops. The proptest
//! stand-in does not shrink: a failing case prints its case number and
//! inputs, and the case stream is seeded from the test's name, so a rerun
//! replays it exactly.

use dpcq::prelude::*;
use dpcq::SensitivityMethod;
use dpcq_server::{ReleaseRequest, Request, Response, Server, ServerConfig};
use proptest::prelude::*;
use std::collections::HashMap;

const BUDGET: f64 = 3.0;
const PRINCIPALS: [&str; 3] = ["alice", "bob", ""];
const QUERIES: [&str; 7] = [
    "Q(*) :- Edge(x, y)",
    "Q(*) :- Edge(x, y), Edge(y, z), x != z",
    "Q(*) :- Edge(x, y), Edge(y, z), x < z",
    "Q(x) :- Edge(x, y), Edge(y, z)",
    "Q(*) :- Ghost(x, y)",
    "Q(*) :- not datalog ???",
    "",
];
const EPSILONS: [Option<f64>; 13] = [
    None,
    Some(0.0),
    Some(-0.5),
    Some(f64::NAN),
    Some(f64::INFINITY),
    Some(f64::NEG_INFINITY),
    Some(f64::MIN_POSITIVE),
    Some(5e-324),
    Some(1e-9),
    Some(dpcq_server::MIN_EPSILON),
    Some(0.25),
    Some(0.5),
    Some(1e308),
];
const DEADLINES: [Option<u64>; 4] = [None, Some(0), Some(u64::MAX), Some(60_000)];
const METHODS: [SensitivityMethod; 3] = [
    SensitivityMethod::Residual,
    SensitivityMethod::Elastic,
    SensitivityMethod::GlobalLaplace,
];
const RELATIONS: [&str; 4] = ["Edge", "Node", "Ghost", ""];
const IDS: [Option<i64>; 4] = [None, Some(0), Some(i64::MIN), Some(i64::MAX)];

fn arb_release() -> impl Strategy<Value = ReleaseRequest> {
    (
        (0usize..4, 0usize..3, 0usize..7),
        (0usize..3, 0usize..13, 0usize..4, 0usize..2),
    )
        .prop_map(
            |((id, who, query), (method, eps, deadline, trace))| ReleaseRequest {
                id: IDS[id],
                principal: PRINCIPALS[who].to_string(),
                query: QUERIES[query].to_string(),
                method: METHODS[method],
                epsilon: EPSILONS[eps],
                deadline_ms: DEADLINES[deadline],
                trace: trace == 1,
            },
        )
}

/// Tuples of width 0 to 3 over a small value range plus the `i64`
/// extremes: the width varies per tuple, so batches are ragged.
fn arb_tuple() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(prop_oneof![0i64..6, Just(i64::MIN), Just(i64::MAX)], 0..4)
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        arb_release().prop_map(Request::Release),
        prop::collection::vec(arb_release(), 0..4)
            .prop_map(|requests| Request::Batch { id: None, requests }),
        (arb_release(), 2usize..4).prop_map(|(r, n)| Request::Batch {
            id: Some(1),
            requests: vec![r; n],
        }),
        (0usize..4, arb_tuple(), 0usize..2).prop_map(|(rel, tuple, insert)| {
            let relation = RELATIONS[rel].to_string();
            if insert == 1 {
                Request::Insert {
                    id: None,
                    relation,
                    tuple,
                }
            } else {
                Request::Remove {
                    id: None,
                    relation,
                    tuple,
                }
            }
        }),
        (
            0usize..4,
            prop::collection::vec(arb_tuple(), 0..4),
            0usize..2
        )
            .prop_map(|(rel, tuples, insert)| Request::MutateBatch {
                id: None,
                relation: RELATIONS[rel].to_string(),
                tuples,
                insert: insert == 1,
            }),
        (0usize..3).prop_map(|who| Request::Budget {
            id: None,
            principal: PRINCIPALS[who].to_string(),
        }),
        Just(Request::Stats { id: None }),
        Just(Request::Metrics { id: None }),
        Just(Request::Shutdown { id: None }),
    ]
}

fn test_server() -> Server {
    let mut db = Database::new();
    for (u, v) in [(1, 2), (2, 3), (1, 3), (3, 4)] {
        db.insert_tuple("Edge", &[Value(u), Value(v)]);
        db.insert_tuple("Edge", &[Value(v), Value(u)]);
    }
    db.insert_tuple("Node", &[Value(1)]);
    Server::new(
        PrivateEngine::new(db, Policy::all_private(), 1.0).with_threads(1),
        ServerConfig {
            default_epsilon: 0.1,
            default_budget: BUDGET,
            seed: Some(7),
            ..ServerConfig::default()
        },
    )
}

/// The ε a response committed to `principal`'s ledger: a fresh release
/// spends its ε, a cache replay or an error spends nothing.
fn fresh_spend(response: &Response) -> f64 {
    match response {
        Response::Release {
            release,
            cached: false,
            ..
        } => release.epsilon,
        _ => 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_requests_never_panic_and_keep_ledgers_exact(
        requests in prop::collection::vec(arb_request(), 1..16)
    ) {
        let server = test_server();
        let mut model: HashMap<&str, f64> = PRINCIPALS.iter().map(|p| (*p, 0.0)).collect();
        for request in requests {
            let releases: Vec<ReleaseRequest> = match &request {
                Request::Release(r) => vec![r.clone()],
                Request::Batch { requests, .. } => requests.clone(),
                _ => Vec::new(),
            };
            let response = server.handle(request);
            let responses = match response {
                Response::Batch { responses, .. } => responses,
                single => vec![single],
            };
            for (r, response) in releases.iter().zip(&responses) {
                let who = PRINCIPALS
                    .iter()
                    .find(|p| **p == r.principal)
                    .expect("generated principal");
                *model.get_mut(who).expect("modelled principal") += fresh_spend(response);
            }
            for p in PRINCIPALS {
                let ledger = server.budget();
                let (budget, spent, remaining) =
                    (ledger.budget(p), ledger.spent(p), ledger.remaining(p));
                prop_assert_eq!(budget, BUDGET);
                prop_assert!(
                    (spent + remaining - budget).abs() < 1e-9,
                    "principal {:?}: spent {} + remaining {} != budget {}",
                    p, spent, remaining, budget
                );
                prop_assert!(
                    (spent - model[p]).abs() < 1e-9,
                    "principal {:?}: spent {} but fresh releases sum to {}",
                    p, spent, model[p]
                );
            }
        }
    }
}
