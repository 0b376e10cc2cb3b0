//! The compile-time half of the execution engine, and the fabric both
//! halves stand on. [`crate::exec`] is the run-time half; the public
//! engine ([`crate::gang::GangSimulator`]) is a facade over the two.
//! One module per decision (`docs/ENGINE.md` maps each to the test file
//! that pins it):
//!
//! * [`program`] — what a compile produces per tile, as data;
//! * [`frontend`] — [`frontend::Compiled`]: state layout, the mailbox
//!   fabric, per-tile programs, and the one-lane node schedule;
//! * [`scalar`] — operator semantics at every width, written once;
//! * [`sync`] — the epoch protocol and its invariant, the mailboxes it
//!   guards, and the tile→worker fold.

pub(crate) mod frontend;
pub(crate) mod program;
pub(crate) mod scalar;
pub(crate) mod sync;

#[cfg(test)]
mod tests;
