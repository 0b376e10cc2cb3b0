//! Observability primitives for the Parendi engines: lock-free event
//! tracing drained into Chrome trace-event JSON ([`trace`]), a typed
//! counter/gauge registry exported as a serializable snapshot
//! ([`metrics`]), and static bytecode statistics ([`stats`]).
//!
//! The crate is dependency-free and engine-agnostic: the simulator
//! crates thread [`TraceSink`]/[`MetricsRegistry`] handles through
//! their hot loops, and the serve daemon ships [`MetricsSnapshot`]s
//! over its socket. Every knob that feeds these types (`PARENDI_TRACE`,
//! `PARENDI_TRACE_LEVEL`) is cataloged in `docs/ENVVARS.md`;
//! [`env_knob`] is the one reader every numeric or enumerated
//! `PARENDI_*` knob in the workspace goes through.

mod env;
mod metrics;
mod stats;
mod trace;

pub use env::env_knob;
pub use metrics::{Counter, MetricsRegistry, MetricsSnapshot};
pub use stats::{CodeStats, OpcodeCount, PairCount};
pub use trace::{
    SpanKind, TraceBuf, TraceConfig, TraceEvent, TraceLevel, TraceSink, TrackSummary, NO_TILE,
    SPAN_KINDS,
};
