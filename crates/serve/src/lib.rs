//! # pmu-serve
//!
//! The online half of the train/serve split: a process-resident
//! [`Fleet`] that loads trained [`ModelBundle`](pmu_model::ModelBundle)s
//! once and serves detection traffic from them — the paper's deployment
//! picture, where a PDC-side monitor consumes streaming phasors against
//! models learned offline (Sec. IV). A single-grid deployment is a
//! one-grid fleet.
//!
//! Two serving shapes, one front-end:
//!
//! - **Stateless** — [`Fleet::detect_batch`] scores independent samples
//!   against one grid's detector; batches fan out on the workspace thread
//!   pool (`pmu_numerics::par`).
//! - **Feeds** — [`Fleet::open_feed`] creates a per-feed
//!   [`StreamingDetector`](pmu_detect::stream::StreamingDetector) (k-of-m
//!   voting, raise/clear events, health snapshots) addressed by a
//!   [`FeedKey`]. One router map holds every open feed and the shard it
//!   is homed on; [`Fleet::push_batch`] advances many feeds of many grids by one tick,
//!   one unit per feed on a persistent drain pool, while preserving
//!   per-feed sample order, under bounded-ingress admission control
//!   (shedding with [`ServeError::Overloaded`]). Sessions are *mobile*:
//!   [`Fleet::snapshot_feed`] / [`Fleet::restore_feed`] round-trip a
//!   feed's complete serving state through a checksummed
//!   [`SessionSnapshot`](pmu_model::SessionSnapshot) bit-identically,
//!   and [`Fleet::migrate_feed`] re-homes a live feed onto another
//!   shard with no event discontinuity.
//!
//! The serving path assumes unreliable telemetry: an ingestion guard
//! refuses non-finite, truncated or mask-skewed samples with
//! [`ServeError::BadSample`]; feeds carry a degraded-mode state machine
//! ([`FeedMode`]) driven by recent missing, rejection and bad-data
//! ratios; and a closed feed key fails with [`ServeError::UnknownFeed`]
//! instead of addressing a stranger's session.
//!
//! Everything is observable: `serve.sessions_active`,
//! `serve.detect_latency_us`, `serve.samples_rejected`,
//! `serve.feed_mode` transitions (naming the grid-qualified feed),
//! batch counters, and the bundle-load metrics emitted by `pmu-model`.
//! On top of the passive registry the serve path carries production
//! observability: per-feed flight-recorder rings snapshotted into JSONL
//! incident dumps when an anomaly fires ([`IncidentConfig`]), and a
//! scrapeable endpoint ([`ObsServer`]) serving Prometheus text at
//! `/metrics` and JSON health at `/health`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod fleet;
pub mod http;
mod pool;
pub mod session;

pub use engine::{
    BadSampleReason, DegradeReason, EngineConfig, FeedMode, IncidentConfig, ServeError,
    SessionHealth,
};
pub use fleet::{FeedKey, Fleet, FleetConfig, GridId, ShardStats};
pub use http::ObsServer;

/// Convenience result alias for serving operations.
pub type Result<T> = std::result::Result<T, ServeError>;
