//! A reusable compiled artifact: the compile front-end's output held
//! independently of any running engine.
//!
//! Every `GangSimulator` constructor runs the full compile front-end
//! (`Step` extraction, bytecode lowering, peephole fusion, state and
//! mailbox layout) before the first cycle executes. For a long-lived
//! gang **server** that cost dominates short scenario batches, so the
//! serve daemon compiles once per content-hash key and instantiates
//! engines from the cached artifact. [`Precompiled`] is that cacheable
//! unit: an opaque wrapper around the crate-private `Compiled` with
//! just enough surface to key and account for it.
//!
//! [`GangSimulator::from_precompiled`](crate::GangSimulator::from_precompiled)
//! deep-copies the artifact per engine (the clone is cheap relative to
//! the compile), so one `Precompiled` can back any number of
//! simultaneous engines. The artifact depends only on the circuit, the
//! partition, and the lane shape (there is one strided layout), so
//! results are bit-identical to a direct
//! [`GangSimulator::new`](crate::GangSimulator::new) at the same shape.

use crate::engine::frontend::Compiled;
use parendi_core::Partition;
use parendi_rtl::Circuit;

/// A compiled partition detached from any engine: the unit a compile
/// cache stores and hands out. Build once with [`build`](Self::build),
/// then instantiate engines via
/// [`GangSimulator::from_precompiled`](crate::GangSimulator::from_precompiled)
/// — each engine gets its own deep copy of the lane-strided state.
pub struct Precompiled {
    pub(crate) compiled: Compiled,
}

impl Precompiled {
    /// Runs the full compile front-end for `lanes` side-by-side
    /// scenarios (`packed` bit-packs 1-bit state across lanes). An
    /// engine built from this artifact is bit-identical to
    /// `GangSimulator::new` / `new_packed` at the same shape.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn build(circuit: &Circuit, partition: &Partition, lanes: usize, packed: bool) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        Precompiled {
            compiled: Compiled::new(circuit, partition, lanes, packed),
        }
    }

    /// Scenario lanes the artifact is laid out for.
    pub fn lanes(&self) -> usize {
        self.compiled.lanes
    }

    /// Whether 1-bit state is bit-packed across lanes.
    pub fn is_packed(&self) -> bool {
        self.compiled.pw > 0
    }
}

impl std::fmt::Debug for Precompiled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Precompiled")
            .field("lanes", &self.compiled.lanes)
            .field("packed", &self.is_packed())
            .field("tiles", &self.compiled.programs.len())
            .finish_non_exhaustive()
    }
}
