//! WAL recovery edge cases, workspace level: a durable server runs a
//! random op stream (releases, single-tuple mutations, and batches with
//! repeated and no-op tuples) while a model tracks the durable-relevant state
//! (committed spend, relation versions, live cache entries) at every WAL
//! record boundary. The suite then simulates a crash after *every*
//! record — copying the snapshot plus a WAL prefix into a fresh
//! directory, including torn-tail variants with a partial trailing
//! record — recovers a server from it, and checks the restored state
//! against the checkpoint exactly: spend bit-for-bit, versions equal,
//! and every checkpointed cache entry replaying bit-identically.

use dpcq::prelude::*;
use dpcq_server::durability::{SNAPSHOT_FILE, WAL_FILE};
use dpcq_server::{ReleaseRequest, Request, Response, Server, ServerConfig};
use dpcq_store::Wal;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};

/// One step of the random workload.
#[derive(Debug, Clone)]
enum Op {
    /// Release `query` (index into QUERIES) for `principal` at `epsilon`.
    Release {
        query: usize,
        principal: &'static str,
        epsilon: f64,
    },
    /// Insert or remove a tuple in `R` or `S`.
    Mutate {
        insert: bool,
        relation: &'static str,
        tuple: [i64; 2],
    },
    /// Insert or remove a batch of tuples in `R` or `S`; batches may
    /// repeat a tuple and hold no-op tuples.
    MutateBatch {
        insert: bool,
        relation: &'static str,
        tuples: Vec<[i64; 2]>,
    },
}

/// Query pool: each reads exactly one relation, so the model's
/// invalidation rule ("mutating X drops entries whose query reads X")
/// matches the server's read-set-scoped invalidation.
const QUERIES: [&str; 3] = ["Q(*) :- R(x,y)", "Q(*) :- R(x,y), R(y,z)", "Q(*) :- S(x,y)"];

fn query_reads(query: usize) -> &'static str {
    if QUERIES[query].contains("R(") {
        "R"
    } else {
        "S"
    }
}

fn initial_rows() -> Vec<(&'static str, [i64; 2])> {
    vec![
        ("R", [1, 2]),
        ("R", [2, 3]),
        ("R", [1, 3]),
        ("S", [10, 20]),
        ("S", [20, 30]),
    ]
}

fn initial_db() -> Database {
    let mut db = Database::new();
    for (rel, [u, v]) in initial_rows() {
        db.insert_tuple(rel, &[Value(u), Value(v)]);
    }
    db
}

fn fresh_engine() -> PrivateEngine {
    PrivateEngine::new(initial_db(), Policy::all_private(), 1.0).with_threads(1)
}

fn recover(dir: &Path, seed: u64) -> Server {
    Server::recover(
        fresh_engine(),
        ServerConfig {
            default_epsilon: 1.0,
            default_budget: f64::INFINITY,
            seed: Some(seed),
            ..ServerConfig::default()
        },
        dir,
    )
    .expect("recover")
}

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dpcq-wal-recovery-{}-{tag}-{n}",
        std::process::id()
    ))
}

/// Durable-relevant state at one WAL record count.
#[derive(Debug, Clone, PartialEq)]
struct Checkpoint {
    /// `committed_spend_snapshot` of the live server.
    spend: Vec<(String, f64)>,
    /// Per-relation version vector from `stats`.
    versions: Vec<(String, u64)>,
    /// Live cache entries: (query index, ε bits) → released value bits.
    cache: BTreeMap<(usize, u64), u64>,
}

/// Committed spend with zero-spent ledgers dropped: merely *looking* at
/// a budget (a cache-hit response reports `remaining`) creates an empty
/// ledger, which is observable in the snapshot but not durable state.
fn committed_spend(server: &Server) -> Vec<(String, f64)> {
    server
        .budget()
        .committed_spend_snapshot()
        .into_iter()
        .filter(|(_, spent)| *spent != 0.0)
        .collect()
}

fn live_versions(server: &Server) -> Vec<(String, u64)> {
    let stats = server.handle(Request::Stats { id: None });
    let Response::Stats {
        relation_versions, ..
    } = stats
    else {
        panic!("{stats:?}")
    };
    relation_versions
}

fn live_wal_records(server: &Server) -> u64 {
    let stats = server.handle(Request::Stats { id: None });
    let Response::Stats {
        durability: Some(d),
        ..
    } = stats
    else {
        panic!("{stats:?}")
    };
    d.wal_records
}

/// Byte offsets of WAL record boundaries (prefix lengths), from the
/// on-disk framing: `[u32 len][u32 crc][u64 seq][payload]`.
fn record_boundaries(wal_bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![0];
    let mut at = 0usize;
    while wal_bytes.len() - at >= 16 {
        let len = u32::from_le_bytes([
            wal_bytes[at],
            wal_bytes[at + 1],
            wal_bytes[at + 2],
            wal_bytes[at + 3],
        ]) as usize;
        if wal_bytes.len() - at < 16 + len {
            break;
        }
        at += 16 + len;
        boundaries.push(at);
    }
    boundaries
}

/// Copies the snapshot plus `wal_prefix` bytes of the WAL into a fresh
/// directory — the on-disk image a crash at that point leaves behind.
fn crash_image(src: &Path, wal_bytes: &[u8], wal_prefix: usize, tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).expect("mk crash dir");
    std::fs::copy(src.join(SNAPSHOT_FILE), dir.join(SNAPSHOT_FILE)).expect("copy snapshot");
    std::fs::write(dir.join(WAL_FILE), &wal_bytes[..wal_prefix]).expect("write wal prefix");
    dir
}

fn check_recovery(dir: &Path, expected: &Checkpoint, context: &str) {
    let server = recover(dir, 0xC0FFEE);
    assert_eq!(
        committed_spend(&server),
        expected.spend,
        "{context}: restored spend must equal the committed spend exactly"
    );
    assert_eq!(live_versions(&server), expected.versions, "{context}");
    for (&(query, eps_bits), &value_bits) in &expected.cache {
        let resp = server.handle(Request::Release(ReleaseRequest {
            id: None,
            principal: "replay-probe".into(),
            query: QUERIES[query].into(),
            method: SensitivityMethod::Residual,
            epsilon: Some(f64::from_bits(eps_bits)),
            deadline_ms: None,
            trace: false,
        }));
        let Response::Release {
            release,
            cached: true,
            ..
        } = resp
        else {
            panic!(
                "{context}: entry for {:?} not replayed: {resp:?}",
                QUERIES[query]
            )
        };
        assert_eq!(
            release.value.get().to_bits(),
            value_bits,
            "{context}: replay must be bit-identical"
        );
    }
    // Replays are post-processing: the ledger never moved.
    assert_eq!(
        committed_spend(&server),
        expected.spend,
        "{context}: replays must be free"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// Applies a mutation to the model database, returning how many tuples
/// were effective: a repeated or no-op tuple counts nothing, so a single
/// op and a batch of one count alike.
fn apply(
    db: &mut HashSet<(&'static str, [i64; 2])>,
    insert: bool,
    relation: &'static str,
    tuples: &[[i64; 2]],
) -> usize {
    tuples
        .iter()
        .filter(|&&tuple| {
            if insert {
                db.insert((relation, tuple))
            } else {
                db.remove(&(relation, tuple))
            }
        })
        .count()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0..QUERIES.len(),
            prop_oneof![Just("alice"), Just("bob")],
            prop_oneof![Just(0.25f64), Just(0.5f64)],
        )
            .prop_map(|(query, principal, epsilon)| Op::Release {
                query,
                principal,
                epsilon,
            }),
        (
            prop_oneof![Just(true), Just(false)],
            prop_oneof![Just("R"), Just("S")],
            (1i64..=3, 1i64..=3),
        )
            .prop_map(|(insert, relation, (u, v))| Op::Mutate {
                insert,
                relation,
                tuple: [u, v],
            }),
        (
            prop_oneof![Just(true), Just(false)],
            prop_oneof![Just("R"), Just("S")],
            proptest::collection::vec((1i64..=3, 1i64..=3), 1..5),
            prop_oneof![Just(true), Just(false)],
        )
            .prop_map(|(insert, relation, tuples, repeat_first)| {
                let mut tuples: Vec<[i64; 2]> = tuples.into_iter().map(|(u, v)| [u, v]).collect();
                if repeat_first {
                    tuples.push(tuples[0]);
                }
                Op::MutateBatch {
                    insert,
                    relation,
                    tuples,
                }
            }),
    ]
}

proptest! {
    // Each case replays a full op stream and then recovers once per WAL
    // record (plus torn-tail variants), so a handful of cases already
    // exercises hundreds of recoveries.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recovery_matches_the_live_state_at_every_wal_record(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        seed in 0u64..1000,
    ) {
        let dir = temp_dir("live");
        let server = recover(&dir, seed);

        // Model of the durable-relevant state, checkpointed per record.
        let mut db: HashSet<(&str, [i64; 2])> = initial_rows().into_iter().collect();
        let mut cache: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        let mut checkpoints: BTreeMap<u64, Checkpoint> = BTreeMap::new();
        let mut checkpoint = |server: &Server, cache: &BTreeMap<(usize, u64), u64>| {
            checkpoints.insert(
                live_wal_records(server),
                Checkpoint {
                    spend: committed_spend(server),
                    versions: live_versions(server),
                    cache: cache.clone(),
                },
            );
        };
        checkpoint(&server, &cache);

        for op in &ops {
            match *op {
                Op::Release { query, principal, epsilon } => {
                    let resp = server.handle(Request::Release(ReleaseRequest {
                        id: None,
                        principal: principal.into(),
                        query: QUERIES[query].into(),
                        method: SensitivityMethod::Residual,
                        epsilon: Some(epsilon),
                        deadline_ms: None,
                        trace: false,
                    }));
                    let Response::Release { release, .. } = resp else {
                        panic!("{resp:?}")
                    };
                    cache.insert(
                        (query, epsilon.to_bits()),
                        release.value.get().to_bits(),
                    );
                }
                Op::Mutate { insert, relation, tuple } => {
                    let request = if insert {
                        Request::Insert { id: None, relation: relation.into(), tuple: tuple.to_vec() }
                    } else {
                        Request::Remove { id: None, relation: relation.into(), tuple: tuple.to_vec() }
                    };
                    let resp = server.handle(request);
                    let Response::Updated { changed, .. } = resp else {
                        panic!("{resp:?}")
                    };
                    let effective = apply(&mut db, insert, relation, &[tuple]);
                    prop_assert_eq!(changed, effective > 0, "{:?}", op);
                    if effective > 0 {
                        cache.retain(|&(query, _), _| query_reads(query) != relation);
                    }
                }
                Op::MutateBatch { insert, relation, ref tuples } => {
                    let resp = server.handle(Request::MutateBatch {
                        id: None,
                        relation: relation.into(),
                        tuples: tuples.iter().map(|t| t.to_vec()).collect(),
                        insert,
                    });
                    let Response::UpdatedBatch { changed, .. } = resp else {
                        panic!("{resp:?}")
                    };
                    let effective = apply(&mut db, insert, relation, tuples);
                    prop_assert_eq!(changed, effective, "{:?}", op);
                    if effective > 0 {
                        cache.retain(|&(query, _), _| query_reads(query) != relation);
                    }
                }
            }
            checkpoint(&server, &cache);
        }
        drop(server);

        let wal_bytes = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
        let boundaries = record_boundaries(&wal_bytes);
        prop_assert_eq!(
            boundaries.len() as u64 - 1,
            *checkpoints.keys().last().expect("final checkpoint"),
            "boundary scan must agree with the server's record count"
        );
        // Cross-check the hand scan against the store's own reader.
        {
            let copy = crash_image(&dir, &wal_bytes, wal_bytes.len(), "crosscheck");
            let (wal, recovery) = Wal::open(&copy.join(WAL_FILE)).expect("wal open");
            prop_assert!(!recovery.truncated_tail);
            prop_assert_eq!(wal.records(), boundaries.len() as u64 - 1);
            std::fs::remove_dir_all(&copy).ok();
        }

        for (k, &prefix) in boundaries.iter().enumerate() {
            let expected = &checkpoints[&(k as u64)];
            // Crash exactly at the record boundary.
            let image = crash_image(&dir, &wal_bytes, prefix, "cut");
            check_recovery(&image, expected, &format!("after record {k}"));
            // Torn tail: a partial next record must be dropped, landing
            // on the same state.
            let torn = (wal_bytes.len() - prefix).min(7);
            if torn > 0 {
                let image = crash_image(&dir, &wal_bytes, prefix + torn, "torn");
                check_recovery(&image, expected, &format!("torn tail after record {k}"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
