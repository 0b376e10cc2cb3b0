//! What a run and a fold report: the per-run phase split
//! ([`BspPhases`], with its per-tile histogram of [`TilePhases`]) that
//! [`GangSimulator::run_timed`] returns, and how tiles were folded onto
//! the worker pool ([`FoldReport`], one [`WorkerFold`] per worker) that
//! [`GangSimulator::fold_report`] returns.
//!
//! [`GangSimulator::run_timed`]: crate::gang::GangSimulator::run_timed
//! [`GangSimulator::fold_report`]: crate::gang::GangSimulator::fold_report

/// One tile's phase seconds over a timed run (its share of the worker's
/// loop bodies; neighbour waits are per-worker and excluded).
#[derive(Clone, Copy, Debug, Default)]
pub struct TilePhases {
    /// Seconds running the tile's step program (incl. latches and
    /// on-chip mailbox pushes).
    pub compute_s: f64,
    /// Seconds flushing the tile's cross-chip traffic into the
    /// chip-pair aggregate mailboxes (memory copies; the modeled link
    /// occupancy is scheduled asynchronously and accounted per worker).
    pub offchip_s: f64,
    /// Seconds applying staged port records to the tile's array copies.
    pub exchange_s: f64,
}

/// Per-run phase timings: the straggler worker's split plus per-tile
/// histograms.
///
/// The phase columns come from the *single* worker with the largest
/// compute + off-chip flush time (the straggler — totals can't rank
/// workers because neighbour waits absorb the slack), so
/// `compute_s + offchip_s + exchange_s` is that worker's real wall
/// time — phases are never paired across different workers.
///
/// `cycles` and `lanes` describe the run itself: `lanes` is the
/// *active* lane count (early-exited lanes stop counting; a one-lane
/// engine reports 1), so
/// [`lane_cycles_per_s`](Self::lane_cycles_per_s) — the aggregate
/// *scenario-cycles* per second — is comparable across lane counts.
#[derive(Clone, Debug)]
pub struct BspPhases {
    /// Wall-clock seconds for the whole run.
    pub total_s: f64,
    /// Seconds the straggler worker spent in computation phases
    /// (step programs, register latches, on-chip mailbox pushes).
    pub compute_s: f64,
    /// Seconds the straggler worker spent on cross-chip traffic: the
    /// flush copies plus, on a staged transport, the wait for inbound
    /// pair frames (zero on single-chip partitions).
    pub offchip_s: f64,
    /// Seconds the straggler worker spent in communication phases:
    /// the cycle's single wait on its neighbours plus record
    /// application (only tiles holding arrays have any).
    pub exchange_s: f64,
    /// Per-tile phase split, indexed by tile — the measured counterpart
    /// of the Fig. 6 straggler histograms, populated at every lane
    /// count.
    ///
    /// **Invariant**: populated only by *timed* runs
    /// ([`run_timed`](crate::GangSimulator::run_timed)); untimed runs skip the
    /// per-tile clock reads *and* the histogram allocation entirely,
    /// so this is always empty after [`run`](crate::GangSimulator::run).
    pub per_tile: Vec<TilePhases>,
    /// RTL cycles this run advanced.
    pub cycles: u64,
    /// Scenario lanes executed per cycle: the active lane count.
    pub lanes: u32,
}

impl Default for BspPhases {
    fn default() -> Self {
        BspPhases {
            total_s: 0.0,
            compute_s: 0.0,
            offchip_s: 0.0,
            exchange_s: 0.0,
            per_tile: Vec::new(),
            cycles: 0,
            lanes: 1,
        }
    }
}

impl BspPhases {
    /// Aggregate throughput in *lane-cycles* per second: every active
    /// lane advances one RTL cycle per engine cycle, so a gang run at L
    /// active lanes delivers `L × cycles / total_s` scenario-cycles per
    /// second. At one lane this is plain cycles per second.
    pub fn lane_cycles_per_s(&self) -> f64 {
        if self.total_s > 0.0 {
            self.cycles as f64 * self.lanes as f64 / self.total_s
        } else {
            0.0
        }
    }
}

/// One worker's share of the tile→worker fold (see [`FoldReport`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerFold {
    /// Tiles folded onto this worker.
    pub tiles: u32,
    /// Their modelled host cost per cycle, in op-equivalents (`strided
    /// ops × lanes + packed ops × packed words` + a fixed term per tile).
    pub load: u64,
    /// Single-lane mailbox words per cycle its tiles send to tiles of
    /// *other* workers.
    pub cross_words: u64,
    /// Single-lane mailbox words per cycle its tiles send in total.
    pub total_words: u64,
    /// Workers it waits for each cycle (those it shares a buffer with).
    pub neighbors: u32,
}

/// How the engine folded tiles onto its worker pool, and what the fold
/// costs. Empty for an engine without a pool (one thread or one tile),
/// where nothing is folded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FoldReport {
    /// Per worker, in worker order.
    pub workers: Vec<WorkerFold>,
    /// The worker each tile runs on.
    pub tile_worker: Vec<u32>,
    /// The modelled per-cycle host cost the fold balanced, per tile.
    pub tile_cost: Vec<u64>,
}

impl FoldReport {
    /// Mailbox words per cycle that cross from one worker to another.
    pub fn cross_worker_words(&self) -> u64 {
        self.workers.iter().map(|w| w.cross_words).sum()
    }

    /// All mailbox words per cycle.
    pub fn total_words(&self) -> u64 {
        self.workers.iter().map(|w| w.total_words).sum()
    }

    /// The heaviest worker's modelled load relative to the mean, in
    /// permille: 1000 is a perfectly balanced fold (0 when empty).
    pub fn max_load_permille(&self) -> u64 {
        let loads = self.workers.iter().map(|w| w.load);
        let (max, total) = (loads.clone().max().unwrap_or(0), loads.sum::<u64>());
        (max * 1000 * self.workers.len() as u64) / total.max(1)
    }
}
