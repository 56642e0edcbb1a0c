//! `pgss-serve`: a durable, resumable campaign-as-a-service daemon.
//!
//! The library campaign runner ([`pgss::campaign`]) executes one grid and
//! exits. This crate wraps the same cell-execution path in a persistent
//! server: clients submit campaign jobs (suite × technique × machine-config
//! grids) over a line-delimited JSON protocol on a TCP or Unix socket, a
//! work-stealing worker pool executes cells across all queued jobs under
//! per-tenant quotas, and partial results stream back out of order as
//! cells finish.
//!
//! Everything a job is — its spec, per-cell completion set, per-cell
//! results, and failure ledger — lives in the content-addressed
//! [`pgss_ckpt::Store`] as versioned, checksummed records, so a server
//! killed mid-campaign (even with SIGKILL) resumes on restart without
//! recomputing any finished cell, and a finished job's report reassembles
//! to the *byte-identical* canonical artifact the library's
//! [`pgss::CampaignReport::canonical_jsonl`] produces.
//!
//! Module map:
//!
//! * [`json`] — dependency-free JSON value parser for the protocol.
//! * [`spec`] — declarative campaign specs (what a client submits).
//! * [`record`] — the durable job-record payloads.
//! * [`server`] — listener, scheduler, worker pool, resume protocol.
//! * [`client`] — blocking protocol client (tests, examples, tooling).
//!
//! The `pgss_serve` binary wires [`server::Server`] to the command line.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod client;
pub mod json;
pub mod record;
pub mod server;
pub mod spec;

pub use client::{Backoff, CellEvent, Client, ClientError, GcOutcome, JobStatus};
pub use record::{CellRecord, IndexRecord, JobPhase, SpecRecord, StatusRecord, JOB_RECORD_VERSION};
pub use server::{BoundAddr, Listen, ServeConfig, Server, TenantQuota};
pub use spec::{CampaignSpec, ConfigSpec, Materialized, TechSpec};
