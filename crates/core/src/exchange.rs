//! Exchange planning: what each tile sends and receives every cycle.
//!
//! After partitioning, every register (and array write port) whose value
//! is consumed on another tile contributes to the BSP communication
//! phase. The differential-exchange optimization (§5.2) replaces
//! whole-array transfers with per-port `(index, data, enable)` records,
//! using the static bound on writes per cycle.
//!
//! Since the point-to-point refactor, the volumes reported here are a
//! *derived view* of the executable [`crate::routing::Routing`]: the
//! planner sums bytes over exactly the hops the BSP engine executes, so
//! the cost model and the engine cannot diverge. [`plan`] remains as a
//! convenience wrapper that compiles a throwaway routing.

use crate::partition::Partition;
use crate::routing::Routing;
use parendi_rtl::Circuit;

/// Per-cycle communication volumes implied by a partition.
///
/// The `*_bit1_*` companions record the share contributed by
/// **single-bit registers** — the slots a packed-lane gang bit-packs 64
/// scenarios deep — so [`scaled_by_lanes`](Self::scaled_by_lanes) can
/// count packed words instead of `lanes ×` words for them.
#[derive(Clone, Debug, Default)]
pub struct ExchangePlan {
    /// Bytes each tile sends per cycle (fanout included).
    pub tile_out_bytes: Vec<u64>,
    /// Bytes each tile receives per cycle.
    pub tile_in_bytes: Vec<u64>,
    /// Worst per-tile on-chip traffic (out + in), driving the on-chip
    /// exchange cost (Fig. 5 left: cost follows `b`).
    pub max_tile_onchip_bytes: u64,
    /// Total bytes crossing chip boundaries, driving the off-chip cost
    /// (Fig. 5 right: cost follows `m×b`).
    pub offchip_total_bytes: u64,
    /// Unique value bytes crossing tile boundaries (Table 3 "Int.",
    /// fanout excluded).
    pub onchip_cut_bytes: u64,
    /// Unique value bytes crossing chip boundaries (Table 3 "Ext.").
    pub offchip_cut_bytes: u64,
    /// Share of `tile_out_bytes` carried by 1-bit registers.
    pub tile_out_bit1_bytes: Vec<u64>,
    /// Share of `tile_in_bytes` carried by 1-bit registers.
    pub tile_in_bit1_bytes: Vec<u64>,
    /// Share of `offchip_total_bytes` carried by 1-bit registers.
    pub offchip_bit1_bytes: u64,
    /// Share of `onchip_cut_bytes` carried by 1-bit registers.
    pub onchip_cut_bit1_bytes: u64,
    /// Share of `offchip_cut_bytes` carried by 1-bit registers.
    pub offchip_cut_bit1_bytes: u64,
}

impl ExchangePlan {
    /// Total fanout-included bytes sent per cycle.
    pub fn total_sent(&self) -> u64 {
        self.tile_out_bytes.iter().sum()
    }

    /// The plan of a **gang** run at `lanes` scenario lanes: every lane
    /// moves its own copy of every routed value (the executable
    /// counterpart — `parendi_sim::gang` — carries `lanes` interleaved
    /// copies of every mailbox buffer and flushes all of them per
    /// cycle).
    ///
    /// With `packed = false` every volume scales linearly with the lane
    /// count. With `packed = true` the 1-bit register share scales by
    /// **packed words** instead: a bit-packed gang carries 64 lanes per
    /// `u64`, so a 1-bit slot moves `ceil(lanes / 64)` words total, not
    /// `lanes` — exactly what the packed engine's mailboxes flush.
    ///
    /// The *cut* figures scale too: they count unique value bytes, and
    /// lanes are independent scenarios, so a lane's values are unique to
    /// it (packed or not, the 1-bit *words* moved follow the same
    /// packing).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn scaled_by_lanes(&self, lanes: u32, packed: bool) -> ExchangePlan {
        assert!(lanes >= 1, "need at least one lane");
        let l = lanes as u64;
        // A 1-bit slot is one 8-byte word per lane when strided, and
        // `ceil(lanes / 64)` words total when packed.
        let pl = if packed { lanes.div_ceil(64) as u64 } else { l };
        let sc = |q: u64, q1: u64| (q - q1) * l + q1 * pl;
        let scv = |q: &[u64], q1: &[u64]| -> Vec<u64> {
            q.iter().zip(q1).map(|(&q, &q1)| sc(q, q1)).collect()
        };
        let tile_out_bytes = scv(&self.tile_out_bytes, &self.tile_out_bit1_bytes);
        let tile_in_bytes = scv(&self.tile_in_bytes, &self.tile_in_bit1_bytes);
        let max_tile_onchip_bytes = tile_out_bytes
            .iter()
            .zip(&tile_in_bytes)
            .map(|(&o, &i)| o + i)
            .max()
            .unwrap_or(0);
        ExchangePlan {
            max_tile_onchip_bytes,
            offchip_total_bytes: sc(self.offchip_total_bytes, self.offchip_bit1_bytes),
            onchip_cut_bytes: sc(self.onchip_cut_bytes, self.onchip_cut_bit1_bytes),
            offchip_cut_bytes: sc(self.offchip_cut_bytes, self.offchip_cut_bit1_bytes),
            tile_out_bytes,
            tile_in_bytes,
            tile_out_bit1_bytes: self.tile_out_bit1_bytes.iter().map(|b| b * pl).collect(),
            tile_in_bit1_bytes: self.tile_in_bit1_bytes.iter().map(|b| b * pl).collect(),
            offchip_bit1_bytes: self.offchip_bit1_bytes * pl,
            onchip_cut_bit1_bytes: self.onchip_cut_bit1_bytes * pl,
            offchip_cut_bit1_bytes: self.offchip_cut_bit1_bytes * pl,
        }
    }
}

/// Computes the [`ExchangePlan`] of `partition` by compiling its
/// point-to-point routing and summing bytes over the routed hops.
///
/// Callers that also need the routes themselves (the BSP engine, the
/// figure binaries) should build a [`Routing`] once and call
/// [`Routing::exchange_plan`] instead of paying for two compilations.
pub fn plan(circuit: &Circuit, partition: &Partition, differential: bool) -> ExchangePlan {
    Routing::new(circuit, partition).exchange_plan(circuit, differential)
}

#[cfg(test)]
mod tests {
    use crate::config::PartitionConfig;
    use crate::stages::compile;
    use parendi_rtl::Builder;

    #[test]
    fn lane_scaling_multiplies_every_volume() {
        let mut b = Builder::new("ring");
        let regs: Vec<_> = (0..8).map(|i| b.reg(format!("r{i}"), 16, 0)).collect();
        for i in 0..8 {
            let prev = regs[(i + 7) % 8].q();
            let k = b.lit(16, 3);
            let v = b.add(prev, k);
            b.connect(regs[i], v);
        }
        let c = b.finish().unwrap();
        let mut cfg = PartitionConfig::with_tiles(8);
        cfg.tiles_per_chip = 4;
        let comp = compile(&c, &cfg).unwrap();
        assert!(comp.plan.offchip_total_bytes > 0, "ring must cross chips");
        let scaled = comp.plan.scaled_by_lanes(16, false);
        assert_eq!(
            scaled.offchip_total_bytes,
            comp.plan.offchip_total_bytes * 16
        );
        assert_eq!(
            scaled.max_tile_onchip_bytes,
            comp.plan.max_tile_onchip_bytes * 16
        );
        assert_eq!(scaled.total_sent(), comp.plan.total_sent() * 16);
        assert_eq!(scaled.onchip_cut_bytes, comp.plan.onchip_cut_bytes * 16);
        // A 16-bit ring has no 1-bit registers: packed scaling is the
        // same as strided.
        let packed = comp.plan.scaled_by_lanes(16, true);
        assert_eq!(packed.offchip_total_bytes, scaled.offchip_total_bytes);
        assert_eq!(packed.tile_out_bytes, scaled.tile_out_bytes);
        // One lane is the identity.
        let one = comp.plan.scaled_by_lanes(1, false);
        assert_eq!(one.offchip_total_bytes, comp.plan.offchip_total_bytes);
        assert_eq!(one.tile_out_bytes, comp.plan.tile_out_bytes);
    }

    /// Packed lane scaling counts 1-bit register slots in packed words
    /// (`ceil(lanes / 64)` per slot), not `lanes ×` words — pinned on a
    /// ring of 1-bit registers crossing chips.
    #[test]
    fn packed_lane_scaling_counts_packed_words() {
        let mut b = Builder::new("bitring");
        let regs: Vec<_> = (0..8).map(|i| b.reg(format!("v{i}"), 1, 0)).collect();
        for i in 0..8 {
            let prev = regs[(i + 7) % 8].q();
            let inv = b.not(prev);
            b.connect(regs[i], inv);
        }
        let c = b.finish().unwrap();
        let mut cfg = PartitionConfig::with_tiles(8);
        cfg.tiles_per_chip = 4;
        let comp = compile(&c, &cfg).unwrap();
        assert!(comp.plan.offchip_total_bytes > 0, "ring must cross chips");
        // Every moved register is 1-bit wide here.
        assert_eq!(comp.plan.offchip_bit1_bytes, comp.plan.offchip_total_bytes);
        for lanes in [1u32, 63, 64, 65, 256] {
            let strided = comp.plan.scaled_by_lanes(lanes, false);
            let packed = comp.plan.scaled_by_lanes(lanes, true);
            let pw = lanes.div_ceil(64) as u64;
            assert_eq!(
                strided.offchip_total_bytes,
                comp.plan.offchip_total_bytes * lanes as u64
            );
            assert_eq!(
                packed.offchip_total_bytes,
                comp.plan.offchip_total_bytes * pw,
                "packed off-chip bytes at {lanes} lanes"
            );
            assert_eq!(packed.total_sent(), comp.plan.total_sent() * pw);
            assert_eq!(
                packed.max_tile_onchip_bytes,
                comp.plan.max_tile_onchip_bytes * pw
            );
        }
        // At 64+ lanes the packed plan is strictly cheaper.
        assert!(
            comp.plan.scaled_by_lanes(64, true).offchip_total_bytes
                < comp.plan.scaled_by_lanes(64, false).offchip_total_bytes
        );
    }
}
