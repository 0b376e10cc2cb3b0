//! `BspSimulator`, kept only for the standalone benchmark package
//! (`benchmark/`): its sources are frozen so that every change is
//! measured by the same code, and they construct their one-scenario
//! runs under this name. It is a one-lane [`GangSimulator`], built
//! through the same `with_*` constructors, and forwards no method —
//! everything else is the gang's, through `Deref`.
//!
//! Nothing else names this type (CI's *One engine type* step keeps it
//! that way); new code builds `GangSimulator::new(c, p, threads, 1)`.

use crate::gang::GangSimulator;
use crate::transport::TransportChoice;
use parendi_core::Partition;
use parendi_rtl::Circuit;
use parendi_telemetry::TraceConfig;
use std::ops::{Deref, DerefMut};

/// A one-lane [`GangSimulator`] under the benchmark's name for it.
pub struct BspSimulator<'c>(GangSimulator<'c>);

impl<'c> BspSimulator<'c> {
    /// [`GangSimulator::with_transport`] at one unpacked lane.
    pub fn with_transport(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        transport: TransportChoice,
    ) -> Self {
        BspSimulator(GangSimulator::with_transport(
            circuit, partition, threads, 1, false, transport,
        ))
    }

    /// [`GangSimulator::with_trace`] at one unpacked lane.
    pub fn with_trace(
        circuit: &'c Circuit,
        partition: &Partition,
        threads: usize,
        transport: TransportChoice,
        trace: TraceConfig,
    ) -> Self {
        BspSimulator(GangSimulator::with_trace(
            circuit, partition, threads, 1, false, transport, trace,
        ))
    }
}

impl<'c> Deref for BspSimulator<'c> {
    type Target = GangSimulator<'c>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for BspSimulator<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}
