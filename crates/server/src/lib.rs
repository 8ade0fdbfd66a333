#![deny(unsafe_code)]
//! # dpcq-server — a concurrent serving layer for private query release
//!
//! The core engine ([`dpcq::PrivateEngine`]) answers one query at a time
//! under a caller-managed budget — the paper's one-shot setting. This
//! crate turns it into a long-running service for a *query stream*:
//!
//! * **[`BudgetAccountant`]** — per-principal ε ledgers enforcing
//!   sequential composition under concurrency with an atomic
//!   reserve → evaluate → commit/refund protocol. Racing requests can
//!   never jointly overspend; failed evaluations refund automatically
//!   (refund is the `Drop` default of a [`Reservation`]).
//! * **Mutable databases with scoped invalidation** — tuple
//!   inserts/removals go through the engine behind an `RwLock` and bump
//!   the touched relation's version counter. Invalidation follows the
//!   per-relation version vector: only the engine `T`-family stores and
//!   release-cache entries whose *read set* contains the mutated
//!   relation are dropped; everything cached for queries over other
//!   relations stays warm and replayable.
//! * **[`ReleaseCache`]** — released answers keyed by
//!   `(canonical query, method, ε, read-set version stamp)`. A repeated
//!   identical request replays the stored noisy answer at **zero
//!   additional budget**: re-publishing a published value is
//!   post-processing, which differential privacy lets you do for free —
//!   and the stamp keeps that replay alive across mutations of relations
//!   the query never reads (see the [`cache`] module for the worked
//!   example).
//! * **Request batching** — a `batch` frame evaluates its releases under
//!   one database snapshot, grouped by query shape so the engine-owned
//!   family store is warmed once per shape and replayed for the rest.
//! * **[`Durability`]** (opt-in via `Server::recover` / `dpcq serve
//!   --data-dir`) — budget debits, effective mutations, and cached
//!   releases are written ahead to a checksummed WAL (fsynced before the
//!   response ships) with periodic atomic snapshots. After `kill -9`,
//!   recovery restores spent ε exactly and replays cached answers
//!   bit-identically at zero additional budget — a crash can never turn
//!   into a free query (see the [`durability`] module docs).
//!
//! ## Interfaces
//!
//! In-process: build a [`Server`] and call [`Server::handle`] (typed) or
//! [`Server::handle_line`] (JSON frame in, JSON frame out).
//!
//! Over TCP: [`Server::serve`] speaks newline-delimited JSON (one
//! request object per line, one response object per line — see the
//! [`protocol`] module for the exact schema). The `dpcq serve`
//! subcommand of the CLI binary wires this up:
//!
//! ```text
//! dpcq serve --addr 127.0.0.1:4547 --edges graph.txt --budget 3.0
//! dpcq request --addr 127.0.0.1:4547 \
//!     --json '{"op":"release","query":"Q(*) :- Edge(x,y)","epsilon":1.0}'
//! ```
//!
//! Everything is plain `std` (threads + blocking sockets): the serving
//! layer adds no runtime dependency.

pub mod budget;
pub mod cache;
pub mod durability;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use budget::{BudgetAccountant, BudgetError, Reservation};
pub use cache::{ReleaseCache, ReleaseKey};
pub use durability::{Durability, DurabilityStats, DurableRecord};
pub use protocol::{OverloadStats, ReleaseRequest, Request, Response};
pub use server::{Server, ServerConfig, MIN_EPSILON};
