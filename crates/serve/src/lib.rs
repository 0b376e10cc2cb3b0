//! # parendi-serve
//!
//! Gang-as-a-service: a persistent daemon that keeps compiled
//! partitions hot in a content-hashed LRU cache and serves scenario
//! batches over a Unix socket.
//!
//! The paper's workload shape — thousands of short, independent RTL
//! scenarios over a handful of designs — pays the compile front-end
//! (fiber extraction, load balancing, routing, bytecode lowering) over
//! and over if every batch compiles from scratch. The daemon amortizes
//! it: one [`CompileKey`](parendi_core::CompileKey) digest per
//! (circuit, partition config, lane shape), one compile per digest,
//! and every batch after the first instantiates its gang from the
//! cached artifact ([`parendi_sim::Precompiled`]) in milliseconds.
//!
//! * [`proto`] — the `PSRV` frame format and the text payloads
//!   ([`ScenarioBatch`], [`LaneResult`], [`BatchSummary`]);
//! * [`cache`] — the single-flight LRU [`CompileCache`];
//! * [`server`] — the daemon: accept loop, lane packing, the gang
//!   permit pool, per-lane retire streaming;
//! * [`client`] — the [`Client`] library the tests and the
//!   `benchmark/` `serve_mixed` workload share.
//!
//! Wire protocol, cache keying, the lane-packing policy, and shutdown
//! semantics are documented in `docs/SERVE.md`; the `PARENDI_SERVE_*`
//! knobs in `docs/ENVVARS.md`.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use cache::{CacheEntry, CompileCache};
pub use client::{BatchResult, Client};
pub use proto::{BatchSummary, LaneResult, PackedChoice, ProtoError, Scenario, ScenarioBatch};
pub use server::{run, spawn, ServeConfig, ServerHandle};
