//! The run-time half of the engine: **one hot loop** over a fused,
//! cache-compact bytecode, shared by both simulators. There is exactly
//! one worker loop, one set of phase functions and one unsafe
//! epoch/aliasing discipline; [`crate::engine`] is the compile-time
//! half. One module per decision (`docs/ENGINE.md` maps each to the
//! test file that pins it):
//!
//! * [`bytecode`] — the opcode table and the `Code` encoding;
//! * [`lower`] — the lowering passes, and which lane count gets which;
//! * [`lanes`] — lane-set shapes and the lane-strided tile state;
//! * [`dispatch`] — `exec_code`, the hot loop;
//! * [`phases`] — what a tile does in each phase of a cycle;
//! * [`core`] — the engine object and its one constructor;
//! * [`state_io`] — the stateful-buffer list and everything that reads
//!   or writes state between runs;
//! * [`run`] — the run path: `RunCtx`, the cycle loop, the worker pool.

pub(crate) mod bytecode;
pub(crate) mod core;
mod dispatch;
mod lanes;
pub(crate) mod lower;
mod phases;
mod run;
mod state_io;

#[cfg(test)]
mod tests;
