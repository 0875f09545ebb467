//! `ddpm-serve`: attribution as a resident service.
//!
//! The scenario binaries run one world and exit. This crate keeps the
//! worlds *resident*: a [`Server`] hosts many **tenants** — each an
//! independent seeded simulation built from the same declarative
//! [`scenario::ScenarioConfig`] the `scenario` binary reads — and
//! multiplexes them over a worker thread pool that advances each
//! tenant in bounded `run_until` strides, so no tenant can starve
//! another. Clients speak a line-oriented NDJSON wire protocol
//! ([`proto`]) over plain TCP: `tenant.create`, `tenant.inject`,
//! `tenant.step`, `tenant.identify`, `tenant.stats`,
//! `tenant.snapshot`, `tenant.subscribe`, `tenant.destroy`,
//! `server.info`. `identify` is answered *online*, from the live
//! victim-side [`Collector`](ddpm_sim::Collector) fed the tenant's
//! delivered stream so far — attribution mid-flight, not post-mortem.
//!
//! Determinism is the load-bearing contract, inherited from
//! [`ddpm_sim::Simulation::run_until`]: a tenant advanced in arbitrary
//! interleaved strides reports the same [`scenario::ScenarioOutcome`]
//! digest as the standalone run of its scenario. Checkpoints make the
//! service crash-consistent — with a checkpoint root configured, a
//! killed server resumes every tenant bit-identically.
//!
//! See DESIGN.md §13 for the tenant lifecycle, wire grammar,
//! drain/resume semantics and the fairness model.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod scenario;
pub mod server;
mod world;

pub use client::ServeClient;
pub use server::{Server, ServerConfig};
pub use world::{OnlineAttribution, ScenarioWorld};
