//! The server's durable state: record schema, snapshot image, and the
//! [`Durability`] handle gluing [`dpcq_store`]'s WAL + snapshot
//! primitives to the serving layer.
//!
//! ## What is logged (and what deliberately is not)
//!
//! Exactly two events reach the log, both *after* the in-memory operation
//! is decided and *before* the response flushes:
//!
//! * [`DurableRecord::Release`] — one committed release: the principal's
//!   ε debit **and** the cache entry (key + noisy value as raw bits), in
//!   a single record. Bundling them makes the commit/cache pair atomic
//!   under crashes: either the spend and the replayable answer both
//!   survive, or neither does — there is no window where budget was paid
//!   but the published answer is lost (which would force a second,
//!   privacy-degrading noise draw for the same query).
//! * [`DurableRecord::BatchMutation`] — one mutation, single-tuple or
//!   batch: its *effective* tuples only (deduplicated, no-ops dropped,
//!   as decided by `PrivateEngine::mutate`). No-op mutations are not
//!   logged, so replay performs exactly the version bumps the crashed
//!   instance performed and version stamps — hence release-cache keys —
//!   are reproduced bit-for-bit.
//!
//! Tag 2, the single-tuple mutation record older servers wrote, is
//! decode-only: it reads back as a one-tuple `BatchMutation`, which
//! replays through the same engine path, so existing data directories
//! recover unchanged.
//!
//! Reservations and refunds stay in-memory: a reservation that never
//! committed produced no output, so dropping it at a crash *is* the
//! refund. Cache hits are pure post-processing and never logged.
//!
//! ## Snapshots
//!
//! A [`Snapshot`] is a full image — committed spend, database (with
//! per-relation versions), live cache entries — plus the WAL sequence
//! number it covers (`last_seq`). It is written atomically (temp file +
//! rename + directory fsync) and only then is the log truncated; a crash
//! between the two leaves WAL records with `seq ≤ last_seq`, which
//! recovery filters out. Sequence numbers are never reused.

use crate::cache::ReleaseKey;
use dpcq::noise::Release;
use dpcq::relation::VersionStamp;
use dpcq::{DatabaseImage, RelationImage, SensitivityMethod};
use dpcq_store::{snapshot, ByteReader, ByteWriter, CodecError, Wal};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// WAL file name inside the data directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Records appended since the last snapshot that trigger a new one.
/// Bounds replay work after a crash to one snapshot load plus at most
/// this many records.
pub const SNAPSHOT_INTERVAL: u64 = 256;

const SNAPSHOT_MAGIC: &[u8; 8] = b"DPCQSNAP";
const SNAPSHOT_VERSION: u32 = 1;

const TAG_RELEASE: u8 = 1;
/// Decode-only: the single-tuple mutation record of older servers.
const TAG_MUTATION: u8 = 2;
const TAG_BATCH_MUTATION: u8 = 3;

/// One durable event, encoded as one WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableRecord {
    /// A committed release: the ledger debit and the cache entry, atomic.
    Release {
        /// Whose budget was debited (by the key's ε).
        principal: String,
        /// The cache key the answer is replayable under.
        key: ReleaseKey,
        /// The published answer; its noisy value replays bit-identically.
        release: Release,
    },
    /// One mutation (a single-tuple op is a batch of one): N *effective*
    /// same-direction tuples applied to one relation as a single logical
    /// event. Logged as one record so replay re-applies the batch through
    /// the same engine path (one cache-maintenance pass) the live server
    /// used — the resulting versions match the live run tick-for-tick
    /// because only effective tuples are logged.
    BatchMutation {
        /// `true` for insert, `false` for remove.
        insert: bool,
        /// The mutated relation.
        relation: String,
        /// The effective tuples, in application order.
        tuples: Vec<Vec<i64>>,
    },
}

impl DurableRecord {
    /// Serializes the record for the WAL.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            DurableRecord::Release {
                principal,
                key,
                release,
            } => {
                w.u8(TAG_RELEASE);
                w.str(principal);
                w.str(&key.query);
                w.str(key.method);
                w.u64(key.epsilon_bits);
                w.u32(key.stamp.len() as u32);
                for (name, version) in key.stamp.iter() {
                    w.str(name);
                    w.u64(version);
                }
                w.f64_bits(release.value.get());
                w.f64_bits(release.sensitivity);
                w.f64_bits(release.scale);
                w.f64_bits(release.epsilon);
                w.f64_bits(release.expected_error);
            }
            DurableRecord::BatchMutation {
                insert,
                relation,
                tuples,
            } => {
                w.u8(TAG_BATCH_MUTATION);
                w.u8(u8::from(*insert));
                w.str(relation);
                w.u32(tuples.len() as u32);
                for tuple in tuples {
                    w.u32(tuple.len() as u32);
                    for &v in tuple {
                        w.i64(v);
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Deserializes a WAL payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(bytes);
        let decoded = Self::decode_inner(&mut r).map_err(|e| format!("bad wal record: {e}"))?;
        if r.remaining() != 0 {
            return Err(format!("bad wal record: {} trailing bytes", r.remaining()));
        }
        Ok(decoded)
    }

    fn decode_inner(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let err = |e: CodecError| e.to_string();
        match r.u8().map_err(err)? {
            TAG_RELEASE => {
                let principal = r.str().map_err(err)?;
                let query = r.str().map_err(err)?;
                let method: SensitivityMethod = r.str().map_err(err)?.parse()?;
                let epsilon_bits = r.u64().map_err(err)?;
                let stamp_len = r.u32().map_err(err)?;
                let mut pairs = Vec::with_capacity(stamp_len as usize);
                for _ in 0..stamp_len {
                    let name = r.str().map_err(err)?;
                    let version = r.u64().map_err(err)?;
                    pairs.push((name, version));
                }
                let value = r.f64_bits().map_err(err)?;
                let sensitivity = r.f64_bits().map_err(err)?;
                let scale = r.f64_bits().map_err(err)?;
                let epsilon = r.f64_bits().map_err(err)?;
                let expected_error = r.f64_bits().map_err(err)?;
                Ok(DurableRecord::Release {
                    principal,
                    key: ReleaseKey {
                        query,
                        method: method.name(),
                        epsilon_bits,
                        stamp: VersionStamp::new(pairs),
                    },
                    release: Release::from_persisted(
                        value,
                        sensitivity,
                        scale,
                        epsilon,
                        expected_error,
                    ),
                })
            }
            tag @ (TAG_MUTATION | TAG_BATCH_MUTATION) => {
                let insert = r.u8().map_err(err)? != 0;
                let relation = r.str().map_err(err)?;
                let count = if tag == TAG_MUTATION {
                    1
                } else {
                    r.u32().map_err(err)?
                };
                let mut tuples = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let len = r.u32().map_err(err)?;
                    let mut tuple = Vec::with_capacity(len as usize);
                    for _ in 0..len {
                        tuple.push(r.i64().map_err(err)?);
                    }
                    tuples.push(tuple);
                }
                Ok(DurableRecord::BatchMutation {
                    insert,
                    relation,
                    tuples,
                })
            }
            other => Err(format!("unknown wal record tag {other}")),
        }
    }
}

/// A full durable image of the server's privacy-relevant state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The highest WAL sequence number this image covers; recovery skips
    /// log records at or below it.
    pub last_seq: u64,
    /// How many snapshots have been written to this data directory,
    /// including this one.
    pub generation: u64,
    /// Committed ε per principal, in name order.
    pub spend: Vec<(String, f64)>,
    /// The database, with engine-relative per-relation versions.
    pub database: DatabaseImage,
    /// Live release-cache entries.
    pub cache: Vec<(ReleaseKey, Release)>,
}

impl Snapshot {
    /// Serializes the image.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(u64::from_le_bytes(*SNAPSHOT_MAGIC));
        w.u32(SNAPSHOT_VERSION);
        w.u64(self.last_seq);
        w.u64(self.generation);
        w.u32(self.spend.len() as u32);
        for (principal, spent) in &self.spend {
            w.str(principal);
            w.f64_bits(*spent);
        }
        w.u32(self.database.relations.len() as u32);
        for rel in &self.database.relations {
            w.str(&rel.name);
            w.u64(rel.arity as u64);
            w.u64(rel.version);
            w.u32(rel.rows.len() as u32);
            for row in &rel.rows {
                for &v in row {
                    w.i64(v);
                }
            }
        }
        w.u32(self.cache.len() as u32);
        for (key, release) in &self.cache {
            // Reuse the release record layout for each cache entry; the
            // principal slot is empty (spend lives in the ledger section).
            let rec = DurableRecord::Release {
                principal: String::new(),
                key: key.clone(),
                release: *release,
            };
            let bytes = rec.encode();
            w.u32(bytes.len() as u32);
            for b in bytes {
                w.u8(b);
            }
        }
        w.into_bytes()
    }

    /// Deserializes an image previously produced by [`Snapshot::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let err = |e: CodecError| format!("bad snapshot: {e}");
        let mut r = ByteReader::new(bytes);
        if r.u64().map_err(err)? != u64::from_le_bytes(*SNAPSHOT_MAGIC) {
            return Err("bad snapshot: magic mismatch".to_string());
        }
        let version = r.u32().map_err(err)?;
        if version != SNAPSHOT_VERSION {
            return Err(format!("bad snapshot: unsupported version {version}"));
        }
        let last_seq = r.u64().map_err(err)?;
        let generation = r.u64().map_err(err)?;
        let spend_len = r.u32().map_err(err)?;
        let mut spend = Vec::with_capacity(spend_len as usize);
        for _ in 0..spend_len {
            let principal = r.str().map_err(err)?;
            let spent = r.f64_bits().map_err(err)?;
            spend.push((principal, spent));
        }
        let rel_count = r.u32().map_err(err)?;
        let mut relations = Vec::with_capacity(rel_count as usize);
        for _ in 0..rel_count {
            let name = r.str().map_err(err)?;
            let arity = r.u64().map_err(err)? as usize;
            let version = r.u64().map_err(err)?;
            let row_count = r.u32().map_err(err)?;
            let mut rows = Vec::with_capacity(row_count as usize);
            for _ in 0..row_count {
                let mut row = Vec::with_capacity(arity);
                for _ in 0..arity {
                    row.push(r.i64().map_err(err)?);
                }
                rows.push(row);
            }
            relations.push(RelationImage {
                name,
                arity,
                version,
                rows,
            });
        }
        let cache_len = r.u32().map_err(err)?;
        let mut cache = Vec::with_capacity(cache_len as usize);
        for _ in 0..cache_len {
            let rec_len = r.u32().map_err(err)?;
            let mut rec_bytes = Vec::with_capacity(rec_len as usize);
            for _ in 0..rec_len {
                rec_bytes.push(r.u8().map_err(err)?);
            }
            match DurableRecord::decode(&rec_bytes)? {
                DurableRecord::Release { key, release, .. } => cache.push((key, release)),
                DurableRecord::BatchMutation { .. } => {
                    return Err("bad snapshot: mutation record in cache section".to_string())
                }
            }
        }
        if r.remaining() != 0 {
            return Err(format!("bad snapshot: {} trailing bytes", r.remaining()));
        }
        Ok(Snapshot {
            last_seq,
            generation,
            spend,
            database: DatabaseImage { relations },
            cache,
        })
    }
}

/// A point-in-time read of the durability layer, surfaced by the `stats`
/// op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Records currently in the WAL (since the last snapshot).
    pub wal_records: u64,
    /// WAL file size in bytes.
    pub wal_bytes: u64,
    /// Snapshots written to this data directory so far (0 = none yet).
    pub last_snapshot_generation: u64,
    /// Whether this process rebuilt state from a snapshot/log at startup.
    pub recovered: bool,
}

/// The durability handle a durable [`crate::Server`] owns: the open WAL
/// plus snapshot bookkeeping for one data directory.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    wal: Mutex<Wal>,
    snapshot_generation: AtomicU64,
    records_since_snapshot: AtomicU64,
    recovered: bool,
}

impl Durability {
    /// Opens (creating if needed) the data directory, loads the snapshot
    /// if one exists, and recovers the WAL — truncating any torn tail and
    /// dropping records the snapshot already covers. Returns the handle,
    /// the snapshot, and the surviving records in append order.
    pub fn open(dir: &Path) -> Result<(Durability, Option<Snapshot>, Vec<DurableRecord>), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create data dir {}: {e}", dir.display()))?;
        let snap_bytes = snapshot::read_optional(&dir.join(SNAPSHOT_FILE))
            .map_err(|e| format!("cannot read snapshot: {e}"))?;
        let snap = match snap_bytes {
            Some(bytes) => Some(Snapshot::decode(&bytes)?),
            None => None,
        };
        let (mut wal, recovery) =
            Wal::open(&dir.join(WAL_FILE)).map_err(|e| format!("cannot open wal: {e}"))?;
        let last_seq = snap.as_ref().map_or(0, |s| s.last_seq);
        wal.reserve_seq_above(last_seq);
        let mut records = Vec::new();
        for rec in recovery.records {
            if rec.seq > last_seq {
                records.push(DurableRecord::decode(&rec.payload)?);
            }
        }
        let recovered = snap.is_some() || !records.is_empty();
        let durability = Durability {
            dir: dir.to_path_buf(),
            wal: Mutex::new(wal),
            snapshot_generation: AtomicU64::new(snap.as_ref().map_or(0, |s| s.generation)),
            records_since_snapshot: AtomicU64::new(records.len() as u64),
            recovered,
        };
        Ok((durability, snap, records))
    }

    fn append_record(&self, record: &DurableRecord) -> Result<u64, String> {
        let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = wal
            .append(&record.encode())
            .map_err(|e| format!("wal append failed: {e}"))?;
        drop(wal);
        self.records_since_snapshot.fetch_add(1, Ordering::Relaxed);
        Ok(seq)
    }

    /// Logs a committed release. Must be called **before** the budget
    /// reservation commits and before the response flushes — once the
    /// client sees the answer, the spend is on disk (invariant D1/D2).
    pub fn log_commit(&self, record: &DurableRecord) -> Result<u64, String> {
        self.append_record(record)
    }

    /// Logs an effective mutation, write-ahead: called before the tuple
    /// is actually inserted/removed, so an acknowledged mutation is never
    /// lost and an unlogged one is never applied.
    pub fn log_mutation(&self, record: &DurableRecord) -> Result<u64, String> {
        self.append_record(record)
    }

    /// Writes a new snapshot covering everything logged so far, then
    /// truncates the WAL. The caller must hold whatever exclusion makes
    /// `(spend, database, cache)` a consistent cut (the server takes the
    /// engine write lock, which excludes in-flight releases and
    /// mutations).
    pub fn write_snapshot(
        &self,
        spend: Vec<(String, f64)>,
        database: DatabaseImage,
        cache: Vec<(ReleaseKey, Release)>,
    ) -> Result<(), String> {
        let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        let snap = Snapshot {
            last_seq: wal.next_seq() - 1,
            generation: self.snapshot_generation.load(Ordering::Relaxed) + 1,
            spend,
            database,
            cache,
        };
        snapshot::write_atomic(&self.dir.join(SNAPSHOT_FILE), &snap.encode())
            .map_err(|e| format!("snapshot write failed: {e}"))?;
        // Crash window here is safe: the snapshot covers last_seq, so a
        // not-yet-truncated log only holds records recovery will skip.
        wal.reset().map_err(|e| format!("wal reset failed: {e}"))?;
        drop(wal);
        self.snapshot_generation.fetch_add(1, Ordering::Relaxed);
        self.records_since_snapshot.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Whether enough records accumulated to warrant a snapshot.
    pub fn should_snapshot(&self) -> bool {
        self.records_since_snapshot.load(Ordering::Relaxed) >= SNAPSHOT_INTERVAL
    }

    /// Whether startup rebuilt state from disk.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Current WAL/snapshot counters.
    pub fn stats(&self) -> DurabilityStats {
        let wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        DurabilityStats {
            wal_records: wal.records(),
            wal_bytes: wal.bytes(),
            last_snapshot_generation: self.snapshot_generation.load(Ordering::Relaxed),
            recovered: self.recovered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: TestCounter = TestCounter::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dpcq_dur_test_{}_{tag}_{n}", std::process::id()))
    }

    fn sample_key() -> ReleaseKey {
        ReleaseKey {
            query: "Q(*) :- Edge(x, y)".to_string(),
            method: SensitivityMethod::Residual.name(),
            epsilon_bits: 1.5f64.to_bits(),
            stamp: VersionStamp::new([("Edge".to_string(), 3u64)]),
        }
    }

    fn sample_release() -> Release {
        Release::from_persisted(41.75, 2.0, 20.0, 1.5, 20.0)
    }

    #[test]
    fn release_record_round_trips_bit_for_bit() {
        let rec = DurableRecord::Release {
            principal: "alice".to_string(),
            key: sample_key(),
            release: sample_release(),
        };
        let decoded = DurableRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
        if let DurableRecord::Release { release, .. } = decoded {
            assert_eq!(
                release.value.get().to_bits(),
                sample_release().value.get().to_bits()
            );
        }
    }

    /// The bytes of a tag-2 single-tuple mutation record, as older
    /// servers wrote them (the encoder for it is gone).
    fn legacy_mutation_bytes(insert: bool, relation: &str, tuple: &[i64]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(TAG_MUTATION);
        w.u8(u8::from(insert));
        w.str(relation);
        w.u32(tuple.len() as u32);
        for &v in tuple {
            w.i64(v);
        }
        w.into_bytes()
    }

    #[test]
    fn mutation_record_round_trips() {
        for (insert, relation, tuple) in [(true, "Edge", vec![-5, 7]), (false, "Unit", vec![])] {
            let rec = DurableRecord::BatchMutation {
                insert,
                relation: relation.to_string(),
                tuples: vec![tuple.clone()],
            };
            assert_eq!(DurableRecord::decode(&rec.encode()).unwrap(), rec);
            // A legacy single-tuple record reads back as the same batch of one.
            let legacy = legacy_mutation_bytes(insert, relation, &tuple);
            assert_eq!(DurableRecord::decode(&legacy).unwrap(), rec);
        }
    }

    #[test]
    fn batch_mutation_record_round_trips() {
        for rec in [
            DurableRecord::BatchMutation {
                insert: true,
                relation: "Edge".to_string(),
                tuples: vec![vec![1, 2], vec![-3, 4]],
            },
            DurableRecord::BatchMutation {
                insert: false,
                relation: "Edge".to_string(),
                tuples: vec![vec![7, 8]],
            },
        ] {
            assert_eq!(DurableRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }

    #[test]
    fn garbage_records_error_cleanly() {
        assert!(DurableRecord::decode(&[]).is_err());
        assert!(DurableRecord::decode(&[9, 1, 2, 3]).is_err(), "bad tag");
        let mut ok = DurableRecord::BatchMutation {
            insert: true,
            relation: "R".to_string(),
            tuples: vec![vec![1]],
        }
        .encode();
        ok.push(0); // trailing byte
        assert!(DurableRecord::decode(&ok).is_err());
        let mut legacy = legacy_mutation_bytes(true, "R", &[1]);
        legacy.pop(); // truncated value
        assert!(DurableRecord::decode(&legacy).is_err());
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = Snapshot {
            last_seq: 17,
            generation: 3,
            spend: vec![("alice".to_string(), 2.25), ("bob".to_string(), 0.0)],
            database: DatabaseImage {
                relations: vec![
                    RelationImage {
                        name: "Edge".to_string(),
                        arity: 2,
                        version: 5,
                        rows: vec![vec![1, 2], vec![3, -4]],
                    },
                    RelationImage {
                        name: "Empty".to_string(),
                        arity: 3,
                        version: 0,
                        rows: vec![],
                    },
                ],
            },
            cache: vec![(sample_key(), sample_release())],
        };
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
        assert!(Snapshot::decode(b"not a snapshot at all....").is_err());
    }

    #[test]
    fn open_log_reopen_replays_only_post_snapshot_records() {
        let dir = temp_dir("reopen");
        let rec1 = DurableRecord::BatchMutation {
            insert: true,
            relation: "Edge".to_string(),
            tuples: vec![vec![1, 2]],
        };
        let rec2 = DurableRecord::Release {
            principal: "alice".to_string(),
            key: sample_key(),
            release: sample_release(),
        };
        {
            let (d, snap, records) = Durability::open(&dir).unwrap();
            assert!(snap.is_none() && records.is_empty() && !d.recovered());
            d.log_mutation(&rec1).unwrap();
            d.log_commit(&rec2).unwrap();
            assert_eq!(d.stats().wal_records, 2);
        }
        // Crash + restart: both records replay.
        {
            let (d, snap, records) = Durability::open(&dir).unwrap();
            assert!(snap.is_none());
            assert_eq!(records, vec![rec1.clone(), rec2.clone()]);
            assert!(d.recovered());
            // Snapshot, then log one more record.
            d.write_snapshot(
                vec![("alice".to_string(), 1.5)],
                DatabaseImage::default(),
                vec![],
            )
            .unwrap();
            assert_eq!(d.stats().wal_records, 0);
            assert_eq!(d.stats().last_snapshot_generation, 1);
            d.log_mutation(&rec1).unwrap();
        }
        // Crash + restart again: the snapshot absorbs the first two
        // records; only the post-snapshot one replays.
        let (d, snap, records) = Durability::open(&dir).unwrap();
        let snap = snap.unwrap();
        assert_eq!(snap.generation, 1);
        assert_eq!(snap.spend, vec![("alice".to_string(), 1.5)]);
        assert_eq!(records, vec![rec1]);
        assert!(d.recovered());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_numbers_stay_monotone_across_snapshots_and_restarts() {
        let dir = temp_dir("seq");
        let rec = DurableRecord::BatchMutation {
            insert: true,
            relation: "R".to_string(),
            tuples: vec![vec![1]],
        };
        let (d, _, _) = Durability::open(&dir).unwrap();
        assert_eq!(d.log_mutation(&rec).unwrap(), 1);
        assert_eq!(d.log_mutation(&rec).unwrap(), 2);
        d.write_snapshot(vec![], DatabaseImage::default(), vec![])
            .unwrap();
        assert_eq!(d.log_mutation(&rec).unwrap(), 3, "no seq reuse");
        drop(d);
        let (d, snap, records) = Durability::open(&dir).unwrap();
        assert_eq!(snap.unwrap().last_seq, 2);
        assert_eq!(records.len(), 1);
        assert_eq!(d.log_mutation(&rec).unwrap(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A data directory written by an older server, whose WAL holds a
    /// tag-2 single-tuple record, recovers exactly like one holding the
    /// same tuple as a one-tuple `BatchMutation`: same versions,
    /// generation, contents, and release-cache invalidation.
    #[test]
    fn legacy_single_tuple_record_recovers_like_a_batch_of_one() {
        use crate::{Request, Response, Server, ServerConfig};
        use dpcq::prelude::*;

        let boot = |dir: &Path| {
            let mut db = Database::new();
            for (u, v) in [(1, 2), (2, 3), (3, 1)] {
                db.insert_tuple("Edge", &[Value(u), Value(v)]);
                db.insert_tuple("Tag", &[Value(u), Value(v + 10)]);
            }
            let config = ServerConfig {
                default_budget: f64::INFINITY,
                seed: Some(7),
                ..ServerConfig::default()
            };
            Server::recover(
                PrivateEngine::new(db, Policy::all_private(), 1.0),
                config,
                dir,
            )
            .expect("recover")
        };
        // Cache one answer per relation, append `record`, crash, recover.
        let recover_with = |tag: &str, record: Vec<u8>| {
            let dir = temp_dir(tag);
            for query in ["Edge", "Tag"] {
                let frame = format!(r#"{{"op":"release","query":"Q(*) :- {query}(x, y)"}}"#);
                assert!(boot(&dir).handle_line(&frame).contains(r#""ok":true"#));
            }
            let (d, _, _) = Durability::open(&dir).unwrap();
            d.wal.lock().unwrap().append(&record).unwrap();
            drop(d);
            let server = boot(&dir);
            let Response::Stats {
                generation,
                relation_versions,
                release_cache_entries,
                ..
            } = server.handle(Request::Stats { id: None })
            else {
                unreachable!()
            };
            let image = server.engine().export_image();
            drop(server);
            std::fs::remove_dir_all(&dir).unwrap();
            (generation, relation_versions, release_cache_entries, image)
        };
        let legacy = recover_with("legacy", legacy_mutation_bytes(true, "Edge", &[7, 8]));
        let batch = DurableRecord::BatchMutation {
            insert: true,
            relation: "Edge".to_string(),
            tuples: vec![vec![7, 8]],
        };
        assert_eq!(legacy, recover_with("batch", batch.encode()));
        assert_eq!(legacy.0, 1, "the tuple applied once");
        assert_eq!(
            legacy.2, 1,
            "the Edge answer was invalidated, the Tag one kept"
        );
    }
}
