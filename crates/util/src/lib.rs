//! Dependency-free utilities shared across the workspace.
//!
//! The reproduction is built to compile in hermetic environments with no
//! registry access, so the two pieces of third-party functionality the
//! workspace needs — JSON interchange and a seeded random source — live
//! here as small, fully-deterministic implementations:
//!
//! - [`json`] — a strict JSON value type with a position-reporting parser
//!   and compact/pretty writers, used by the model importer and the
//!   experiment harness's `--json` dumps.
//! - [`rng`] — a splitmix64-based PRNG with the handful of range helpers the
//!   annealing/genetic generators and the seeded-loop tests need. Streams
//!   are reproducible across platforms given the seed.
//! - [`cast`] — contract-checked narrowing casts for index-shaped values,
//!   replacing bare `as` casts in the planning/sim crates (ad-lint C1).
//! - [`par`] — deterministic parallel execution for the planning
//!   pipeline's candidate search: a persistent per-request worker pool
//!   ([`par::WorkerPool`]), the one way the workspace fans out. Results
//!   come back in index order regardless of the worker-thread count.
//! - [`fingerprint`] — a stable, platform-independent 64-bit content hash
//!   ([`FpHasher`] → [`Fingerprint`]) used to key the content-addressed
//!   plan cache; golden digests are pinned in tests.
//! - [`record`] — checksummed record framing for crash-safe append-only
//!   logs ([`record::scan_records`] distinguishes torn tails from corrupt
//!   records), backing the persistent plan store's WAL + snapshot files.
//! - [`queue`] — a bounded MPMC work queue ([`queue::BoundedQueue`]) that
//!   refuses instead of growing, implementing the serving layer's
//!   overload-shedding doctrine.

pub mod cast;
pub mod fingerprint;
pub mod json;
pub mod par;
pub mod queue;
pub mod record;
pub mod rng;

pub use fingerprint::{Fingerprint, FpHasher};
pub use json::{Json, JsonError, JsonErrorKind};
pub use par::{TaskScope, WorkerPool};
pub use queue::{BoundedQueue, PushError};
pub use record::{
    encode_record, record_checksum, scan_records, RecordScan, MAX_RECORD_BYTES, RECORD_HEADER_BYTES,
};
pub use rng::Rng64;
