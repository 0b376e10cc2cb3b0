//! # parendi-sim
//!
//! The BSP simulation engine of the Parendi reproduction:
//!
//! * [`interp::Simulator`] — the single-threaded full-cycle reference
//!   interpreter (the semantic oracle);
//! * [`gang::GangSimulator`] — the one engine: parallel host
//!   execution of a compiled partition with the BSP structure of
//!   Fig. 3, one neighbour-only sync point per cycle, over `L`
//!   independent stimulus lanes in lockstep (lane-strided state,
//!   per-lane I/O, per-lane early exit); one lane is the
//!   single-scenario simulator;
//! * [`report`] — what a run reports: the phase split and the
//!   tile→worker fold;
//! * [`timing`] — the Eq. 1 cost breakdown
//!   (`t_comp`/`t_comm`/`t_sync`) on the IPU machine model;
//! * [`checkpoint`] — versioned, checksummed engine snapshots:
//!   crash-safe checkpoint/restore and periodic auto-checkpointing
//!   (`PARENDI_CHECKPOINT`), plus lane fork on the gang;
//! * [`fault`] — fault-injection campaigns over gang lanes (stuck-at /
//!   transient flips, detected/latent/silent coverage against a golden
//!   lane).
//!
//! Observability — per-worker event tracing (Perfetto-loadable Chrome
//! trace JSON via `PARENDI_TRACE` or the `with_trace` constructors)
//! and a typed metrics registry — lives in `parendi-telemetry`; the
//! key types ([`TraceConfig`], [`MetricsSnapshot`], [`CodeStats`],
//! [`TrackSummary`]) are re-exported here. Environment knobs are
//! cataloged in `docs/ENVVARS.md` at the repository root.
//!
//! The engine is a facade over one lane-strided execution core
//! (`exec`, crate-private: one module each for the bytecode, its
//! lowering, the lane sets, the hot loop, the phase functions, the
//! engine object, state I/O and the run path) that runs a fused,
//! cache-compact bytecode — a single hot loop at every lane count;
//! the compile front-end, the operator kernels and the epoch protocol
//! live in `engine`. `docs/ENGINE.md` maps every module to the one
//! decision it owns and the test that pins it. Off-chip traffic crosses
//! a [`transport`] backend — in-process or TCP loopback, both ends in
//! one process today.
//!
//! # Examples
//!
//! ```
//! use parendi_rtl::Builder;
//! use parendi_core::{compile, PartitionConfig};
//! use parendi_sim::{GangSimulator, Simulator};
//! use parendi_rtl::RegId;
//!
//! let mut b = Builder::new("counter");
//! let r = b.reg("c", 16, 0);
//! let one = b.lit(16, 1);
//! let n = b.add(r.q(), one);
//! b.connect(r, n);
//! let circuit = b.finish().unwrap();
//!
//! // Reference run.
//! let mut reference = Simulator::new(&circuit);
//! reference.step_n(10);
//!
//! // Parallel BSP run of the compiled partition: 2 threads, 1 lane.
//! let comp = compile(&circuit, &PartitionConfig::with_tiles(2)).unwrap();
//! let mut sim = GangSimulator::new(&circuit, &comp.partition, 2, 1);
//! sim.run(10);
//! assert_eq!(sim.reg_value(RegId(0)), reference.reg_value(RegId(0)));
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod benchmark_shim;
pub mod checkpoint;
pub(crate) mod engine;
pub(crate) mod exec;
pub mod fault;
pub mod gang;
pub mod interp;
pub mod precompiled;
pub mod report;
pub(crate) mod simd;
pub mod timing;
pub mod transport;
pub mod vcd;

pub use benchmark_shim::*;
pub use checkpoint::{Snapshot, SnapshotError};
pub use fault::{run_campaign, CampaignReport, FaultKind, FaultOutcome, FaultPlan, FaultSpec};
pub use gang::{GangSimulator, StimulusSet};
pub use interp::Simulator;
pub use parendi_telemetry::{CodeStats, MetricsSnapshot, TraceConfig, TraceLevel, TrackSummary};
pub use precompiled::Precompiled;
pub use report::{BspPhases, FoldReport, WorkerFold};
pub use timing::{ipu_rate_khz, ipu_timings};
pub use transport::{TransportChoice, TransportError};
pub use vcd::{dump_vcd, dump_vcd_lane, VcdWriter};
