//! The in-process direct path: producing tiles write straight into
//! the consumer-side mailboxes, exactly as the engine always has. The
//! only machinery kept live is the per-pair countdown, so byte
//! accounting stays comparable with the staged backends (one whole
//! pair aggregate per completed cycle).

use super::{ChipTransport, Staging, TransportInit};
use crate::engine::sync::Mailbox;

/// The default zero-copy backend (see the module docs).
pub(crate) struct InProcess {
    staging: Staging,
    /// Per worker: the pair indices it (implicitly) receives — kept
    /// only so frame accounting matches the staged backends.
    recv_of: Vec<Vec<u32>>,
}

impl InProcess {
    pub(crate) fn new(init: TransportInit<'_>) -> Self {
        let staging = Staging::new(&init, false);
        InProcess {
            staging,
            recv_of: init.recv_of,
        }
    }
}

impl ChipTransport for InProcess {
    fn staging(&self) -> Option<&[Mailbox]> {
        None
    }

    fn tile_flushed(&self, tile: usize, _parity: usize, _cycle: u64) {
        // Publication is implicit (the flush already wrote the
        // consumer box); the countdown only credits the byte column.
        self.staging.tile_flushed(tile, |_| {});
    }

    fn complete_recvs(
        &self,
        who: usize,
        _parity: usize,
        _cycle: u64,
        _channels: &[Mailbox],
        _onchip: usize,
    ) {
        // Frames arrive implicitly (producers wrote the consumer box
        // directly); only the accounting column remains.
        self.staging.credit_recvs(self.recv_of[who].len() as u64);
    }

    fn bytes_sent(&self) -> u64 {
        self.staging.bytes()
    }

    fn name(&self) -> &'static str {
        "inproc"
    }
}
