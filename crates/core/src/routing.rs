//! Executable point-to-point routing: who sends what to whom, at which
//! mailbox offset.
//!
//! [`Routing`] is the compiled form of the BSP communication phase. For
//! every register and every array write port it records the producer
//! tile, the explicit list of consumer tiles, and — per consumer — the
//! pre-resolved word offset inside the producer→consumer *channel*
//! buffer. The execution engine (`parendi-sim`'s `GangSimulator`) copies
//! straight through these offsets with no locks and no allocation, and
//! the [`ExchangePlan`] cost figures are a derived view
//! ([`Routing::exchange_plan`]) of the very same structure, so the cost
//! model and the engine can never disagree about what moves.
//!
//! # Channel layout
//!
//! Each ordered tile pair with traffic gets one [`ChannelSpec`]. Its
//! buffer is laid out as:
//!
//! ```text
//! [ register section: one slot per routed register, RegId order ]
//! [ port section: one record per routed write port, (array, port) order ]
//! ```
//!
//! A port record is `enable` (1 word), `index` (1 word), then
//! `data_words` words of data — [`PORT_RECORD_HEADER_WORDS`] + data.

use crate::exchange::ExchangePlan;
use crate::partition::Partition;
use parendi_graph::fiber::{SinkKind, PORT_RECORD_OVERHEAD_BYTES};
use parendi_rtl::bits::words_for;
use parendi_rtl::{ArrayId, Circuit, RegId};
use std::collections::HashMap;

/// Mailbox words occupied by a port record before its data: the enable
/// word and the (range-folded) index word.
pub const PORT_RECORD_HEADER_WORDS: u32 = 2;

/// Whether a channel stays on one chip or crosses a chip boundary.
///
/// Derived from [`Routing::tile_chip`] at compile time: a channel is
/// [`OffChip`](ChannelClass::OffChip) iff its producer and consumer
/// tiles live on different chips. The execution engine uses the class to
/// pick the mailbox fabric (per-tile-pair on-chip boxes vs the wider
/// per-chip-pair aggregates) and the derived [`ExchangePlan`] uses it to
/// attribute bytes to the off-chip `m×b` cost, so the engine and the
/// model can never disagree about which traffic crosses chips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelClass {
    /// Producer and consumer share a chip.
    OnChip,
    /// The channel crosses a chip boundary (an order of magnitude
    /// slower on the real machine — Fig. 5 right).
    OffChip,
}

/// One delivery of a value: which tile receives it, over which channel,
/// at which word offset inside the channel buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// Consumer tile.
    pub tile: u32,
    /// Index into [`Routing::channels`].
    pub channel: u32,
    /// Word offset of the slot within the channel buffer.
    pub word_off: u32,
}

/// Where one register's next-value travels each cycle.
#[derive(Clone, Debug)]
pub struct RegRoute {
    /// The register.
    pub reg: RegId,
    /// Tile computing its next-value (`u32::MAX` if unowned, which a
    /// validated circuit never produces).
    pub producer: u32,
    /// Value width in 64-bit words.
    pub words: u32,
    /// Remote consumers (the producer reads its own copy locally).
    pub hops: Vec<Hop>,
}

/// Where one array write port's `(enable, index, data)` record travels.
#[derive(Clone, Debug)]
pub struct PortRoute {
    /// The array written.
    pub array: ArrayId,
    /// Port index within the array's `write_ports`.
    pub port: u32,
    /// Tile computing the port's cone.
    pub producer: u32,
    /// Data width in 64-bit words.
    pub data_words: u32,
    /// Remote holders of the array (the producer applies its own record
    /// locally); `word_off` points at the record's enable word.
    pub hops: Vec<Hop>,
}

/// One producer→consumer mailbox buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Producer tile.
    pub from: u32,
    /// Consumer tile.
    pub to: u32,
    /// Words of the register section.
    pub reg_words: u32,
    /// Words of the port-record section.
    pub port_words: u32,
    /// Whether the channel crosses a chip boundary.
    pub class: ChannelClass,
}

impl ChannelSpec {
    /// Total buffer size in words.
    pub fn words(&self) -> u32 {
        self.reg_words + self.port_words
    }
}

/// One off-chip channel's slice of its chip-pair aggregate buffer.
///
/// Word counts are single-scenario (`lanes == 1`) words, exactly
/// [`ChannelSpec::words`]; an executing engine scales the physical
/// buffers by its lane count and packing, but the slice order and the
/// relative layout are fixed here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChipPairChannel {
    /// Index into [`Routing::channels`].
    pub channel: u32,
    /// Producer tile (on `from_chip`).
    pub from_tile: u32,
    /// Consumer tile (on `to_chip`).
    pub to_tile: u32,
    /// Words of the channel's register section.
    pub reg_words: u32,
    /// Words of the channel's port-record section.
    pub port_words: u32,
    /// First word of this channel's slice inside the pair aggregate.
    pub word_base: u32,
}

/// The aggregate buffer of one ordered chip pair: every off-chip
/// channel between the two chips, concatenated in channel-index order.
///
/// This is the unit a transport backend moves per cycle — one frame,
/// one shared-memory segment, one socket stream per ordered pair — and
/// the slice layout both endpoint processes must agree on. Pairs are
/// enumerated in first-appearance order over the `(from, to)`-sorted
/// channel list, which is exactly the order the execution engine
/// assigns its per-pair aggregate mailboxes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChipPairPlan {
    /// Producing chip.
    pub from_chip: u32,
    /// Consuming chip.
    pub to_chip: u32,
    /// Total aggregate size in single-scenario words.
    pub words: u32,
    /// The member channels; `word_base` slices tile `[0, words)` exactly.
    pub channels: Vec<ChipPairChannel>,
}

/// One chip's view of the off-chip exchange: every ordered chip pair it
/// produces into or consumes from. Both endpoint chips carry identical
/// copies of a shared pair, so two processes can each parse their own
/// plan and agree on every frame layout without further negotiation.
///
/// The plan serializes to a line-oriented text form ([`to_text`] /
/// [`from_text`]) so it can be handed to another process over a pipe,
/// a file, or a socket before the data path comes up.
///
/// [`to_text`]: ChipExchangePlan::to_text
/// [`from_text`]: ChipExchangePlan::from_text
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChipExchangePlan {
    /// The chip this plan describes.
    pub chip: u32,
    /// Every pair with `from_chip == chip` or `to_chip == chip`, in
    /// global pair order.
    pub pairs: Vec<ChipPairPlan>,
}

impl ChipExchangePlan {
    /// Serializes the plan to its text form. Round-trips exactly
    /// through [`from_text`](Self::from_text).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(s, "chip {}", self.chip).unwrap();
        for p in &self.pairs {
            writeln!(s, "pair {} {} words {}", p.from_chip, p.to_chip, p.words).unwrap();
            for c in &p.channels {
                writeln!(
                    s,
                    "  ch {} from {} to {} reg {} port {} base {}",
                    c.channel, c.from_tile, c.to_tile, c.reg_words, c.port_words, c.word_base
                )
                .unwrap();
            }
        }
        s
    }

    /// Parses the text form produced by [`to_text`](Self::to_text).
    /// Validates structure and slice layout (each pair's channel slices
    /// must tile `[0, words)` in order); any corruption is an `Err`.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut chip: Option<u32> = None;
        let mut pairs: Vec<ChipPairPlan> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let err = |m: String| format!("line {}: {m}: {raw:?}", ln + 1);
            let toks: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize, what: &str| -> Result<u32, String> {
                toks.get(i)
                    .ok_or_else(|| err(format!("missing {what}")))?
                    .parse::<u32>()
                    .map_err(|_| err(format!("bad {what}")))
            };
            let kw = |i: usize, want: &str| -> Result<(), String> {
                if toks.get(i) == Some(&want) {
                    Ok(())
                } else {
                    Err(err(format!("expected `{want}`")))
                }
            };
            match toks.first() {
                Some(&"chip") => {
                    if chip.is_some() {
                        return Err(err("duplicate chip record".into()));
                    }
                    chip = Some(num(1, "chip id")?);
                }
                Some(&"pair") => {
                    kw(3, "words")?;
                    pairs.push(ChipPairPlan {
                        from_chip: num(1, "from chip")?,
                        to_chip: num(2, "to chip")?,
                        words: num(4, "word count")?,
                        channels: Vec::new(),
                    });
                }
                Some(&"ch") => {
                    kw(2, "from")?;
                    kw(4, "to")?;
                    kw(6, "reg")?;
                    kw(8, "port")?;
                    kw(10, "base")?;
                    let c = ChipPairChannel {
                        channel: num(1, "channel index")?,
                        from_tile: num(3, "from tile")?,
                        to_tile: num(5, "to tile")?,
                        reg_words: num(7, "reg words")?,
                        port_words: num(9, "port words")?,
                        word_base: num(11, "word base")?,
                    };
                    let p = pairs
                        .last_mut()
                        .ok_or_else(|| err("channel before any pair".into()))?;
                    let fill: u32 = p.channels.iter().map(|c| c.reg_words + c.port_words).sum();
                    if c.word_base != fill {
                        return Err(err(format!(
                            "channel slice at word {} but the aggregate is filled to {fill}",
                            c.word_base
                        )));
                    }
                    p.channels.push(c);
                }
                _ => return Err(err("unknown record".into())),
            }
        }
        let chip = chip.ok_or("missing chip record")?;
        for p in &pairs {
            let fill: u32 = p.channels.iter().map(|c| c.reg_words + c.port_words).sum();
            if fill != p.words {
                return Err(format!(
                    "pair {}->{}: channel slices fill {fill} of {} words",
                    p.from_chip, p.to_chip, p.words
                ));
            }
            if p.from_chip != chip && p.to_chip != chip {
                return Err(format!(
                    "pair {}->{} does not involve chip {chip}",
                    p.from_chip, p.to_chip
                ));
            }
        }
        Ok(ChipExchangePlan { chip, pairs })
    }
}

/// The complete point-to-point exchange of a partition.
#[derive(Clone, Debug)]
pub struct Routing {
    /// Number of tiles.
    pub tiles: u32,
    /// Chip of each tile.
    pub tile_chip: Vec<u32>,
    /// All channels with traffic, sorted by `(from, to)`.
    pub channels: Vec<ChannelSpec>,
    /// One route per register, indexed by `RegId`.
    pub reg_routes: Vec<RegRoute>,
    /// One route per array write port, in `(array, port)` order.
    pub port_routes: Vec<PortRoute>,
    /// Tiles holding a copy of each array, indexed by `ArrayId` (sorted).
    pub array_holders: Vec<Vec<u32>>,
    /// Tile computing each primary output's cone, indexed by output id
    /// (`u32::MAX` if no process owns the output fiber, which a complete
    /// partition never produces). Output values never enter the
    /// exchange — they back the engine's `peek_output` testbench API.
    pub output_tiles: Vec<u32>,
}

impl Routing {
    /// Compiles the exchange of `partition`.
    pub fn new(circuit: &Circuit, partition: &Partition) -> Self {
        let tiles = partition.processes.len() as u32;
        let tile_chip: Vec<u32> = partition.processes.iter().map(|p| p.chip).collect();

        // Producers.
        let mut reg_producer = vec![u32::MAX; circuit.regs.len()];
        let mut port_producer: HashMap<(u32, u32), u32> = HashMap::new();
        let mut output_tiles = vec![u32::MAX; circuit.outputs.len()];
        for (pi, p) in partition.processes.iter().enumerate() {
            for &f in &p.fibers {
                match partition.fiber_sinks[f.index()] {
                    SinkKind::Reg(r) => reg_producer[r.index()] = pi as u32,
                    SinkKind::ArrayPort { array, port } => {
                        port_producer.insert((array.0, port), pi as u32);
                    }
                    SinkKind::Output(o) => output_tiles[o as usize] = pi as u32,
                }
            }
        }

        // Consumers: remote readers per register, holder tiles per array.
        let mut reg_consumers: Vec<Vec<u32>> = vec![Vec::new(); circuit.regs.len()];
        let mut array_holders: Vec<Vec<u32>> = vec![Vec::new(); circuit.arrays.len()];
        for (pi, p) in partition.processes.iter().enumerate() {
            for &r in &p.regs_read {
                let w = reg_producer[r.index()];
                if w != u32::MAX && w != pi as u32 {
                    reg_consumers[r.index()].push(pi as u32);
                }
            }
            for &a in &p.arrays {
                array_holders[a.index()].push(pi as u32);
            }
        }

        // Pass 1: discover channels and size their register sections.
        let mut chan_index: HashMap<(u32, u32), u32> = HashMap::new();
        let mut channels: Vec<ChannelSpec> = Vec::new();
        let mut chan_of = |from: u32, to: u32, channels: &mut Vec<ChannelSpec>| -> u32 {
            *chan_index.entry((from, to)).or_insert_with(|| {
                let class = if tile_chip[from as usize] == tile_chip[to as usize] {
                    ChannelClass::OnChip
                } else {
                    ChannelClass::OffChip
                };
                channels.push(ChannelSpec {
                    from,
                    to,
                    reg_words: 0,
                    port_words: 0,
                    class,
                });
                channels.len() as u32 - 1
            })
        };
        for (ri, consumers) in reg_consumers.iter().enumerate() {
            let producer = reg_producer[ri];
            let words = words_for(circuit.regs[ri].width) as u32;
            for &c in consumers {
                let ch = chan_of(producer, c, &mut channels);
                channels[ch as usize].reg_words += words;
            }
        }
        for (ai, a) in circuit.arrays.iter().enumerate() {
            let data_words = words_for(a.width) as u32;
            for port in 0..a.write_ports.len() as u32 {
                let Some(&producer) = port_producer.get(&(ai as u32, port)) else {
                    continue;
                };
                for &h in &array_holders[ai] {
                    if h == producer {
                        continue;
                    }
                    let ch = chan_of(producer, h, &mut channels);
                    channels[ch as usize].port_words += PORT_RECORD_HEADER_WORDS + data_words;
                }
            }
        }

        // Canonical channel order; remap indices.
        let mut order: Vec<u32> = (0..channels.len() as u32).collect();
        order.sort_by_key(|&i| (channels[i as usize].from, channels[i as usize].to));
        let mut remap = vec![0u32; channels.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let mut sorted = channels.clone();
        for (&old, ch) in order.iter().zip(sorted.iter_mut()) {
            *ch = channels[old as usize];
        }
        let channels = sorted;
        let chan_index: HashMap<(u32, u32), u32> = chan_index
            .into_iter()
            .map(|(k, v)| (k, remap[v as usize]))
            .collect();

        // Pass 2: assign slot offsets. Registers pack from offset 0 in
        // RegId order; port records pack after the register section in
        // (array, port) order.
        let mut reg_fill = vec![0u32; channels.len()];
        let mut reg_routes = Vec::with_capacity(circuit.regs.len());
        for (ri, consumers) in reg_consumers.iter().enumerate() {
            let producer = reg_producer[ri];
            let words = words_for(circuit.regs[ri].width) as u32;
            let mut hops = Vec::with_capacity(consumers.len());
            for &c in consumers {
                let ch = chan_index[&(producer, c)];
                hops.push(Hop {
                    tile: c,
                    channel: ch,
                    word_off: reg_fill[ch as usize],
                });
                reg_fill[ch as usize] += words;
            }
            reg_routes.push(RegRoute {
                reg: RegId(ri as u32),
                producer,
                words,
                hops,
            });
        }
        let mut port_fill: Vec<u32> = channels.iter().map(|c| c.reg_words).collect();
        let mut port_routes = Vec::new();
        for (ai, a) in circuit.arrays.iter().enumerate() {
            let data_words = words_for(a.width) as u32;
            for port in 0..a.write_ports.len() as u32 {
                let Some(&producer) = port_producer.get(&(ai as u32, port)) else {
                    continue;
                };
                let mut hops = Vec::new();
                for &h in &array_holders[ai] {
                    if h == producer {
                        continue;
                    }
                    let ch = chan_index[&(producer, h)];
                    hops.push(Hop {
                        tile: h,
                        channel: ch,
                        word_off: port_fill[ch as usize],
                    });
                    port_fill[ch as usize] += PORT_RECORD_HEADER_WORDS + data_words;
                }
                port_routes.push(PortRoute {
                    array: ArrayId(ai as u32),
                    port,
                    producer,
                    data_words,
                    hops,
                });
            }
        }
        debug_assert!(channels
            .iter()
            .zip(&port_fill)
            .all(|(c, &f)| f == c.words()));

        Routing {
            tiles,
            tile_chip,
            channels,
            reg_routes,
            port_routes,
            array_holders,
            output_tiles,
        }
    }

    /// Whether the hop travels over an off-chip channel.
    pub fn hop_crosses_chip(&self, hop: &Hop) -> bool {
        self.channels[hop.channel as usize].class == ChannelClass::OffChip
    }

    /// The channel index for the ordered pair `(from, to)`, if any.
    pub fn channel(&self, from: u32, to: u32) -> Option<u32> {
        self.channels
            .binary_search_by_key(&(from, to), |c| (c.from, c.to))
            .ok()
            .map(|i| i as u32)
    }

    /// Total words flowing out of each tile per cycle (fanout included) —
    /// the executable counterpart of `tile_out_bytes / 8`.
    pub fn tile_out_words(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.tiles as usize];
        for c in &self.channels {
            out[c.from as usize] += c.words() as u64;
        }
        out
    }

    /// Derives each chip's serializable view of the off-chip exchange:
    /// one [`ChipExchangePlan`] per chip, with every ordered chip pair
    /// the chip touches and the per-channel slice layout of each pair's
    /// aggregate buffer.
    ///
    /// Pair enumeration and intra-pair channel order follow the channel
    /// index order (the list is sorted by `(from, to)`), which is the
    /// exact order the execution engine assigns its per-pair aggregate
    /// mailboxes — so a transport that frames `plan.pairs[i]` moves the
    /// engine's mailbox `onchip + i` and both views agree byte for byte.
    pub fn chip_exchange_plans(&self) -> Vec<ChipExchangePlan> {
        let chips = self.tile_chip.iter().copied().max().map_or(0, |m| m + 1);
        let mut pair_index: HashMap<(u32, u32), usize> = HashMap::new();
        let mut pairs: Vec<ChipPairPlan> = Vec::new();
        for (ci, ch) in self.channels.iter().enumerate() {
            if ch.class != ChannelClass::OffChip {
                continue;
            }
            let key = (
                self.tile_chip[ch.from as usize],
                self.tile_chip[ch.to as usize],
            );
            let pi = *pair_index.entry(key).or_insert_with(|| {
                pairs.push(ChipPairPlan {
                    from_chip: key.0,
                    to_chip: key.1,
                    words: 0,
                    channels: Vec::new(),
                });
                pairs.len() - 1
            });
            let p = &mut pairs[pi];
            p.channels.push(ChipPairChannel {
                channel: ci as u32,
                from_tile: ch.from,
                to_tile: ch.to,
                reg_words: ch.reg_words,
                port_words: ch.port_words,
                word_base: p.words,
            });
            p.words += ch.words();
        }
        let mut plans: Vec<ChipExchangePlan> = (0..chips)
            .map(|c| ChipExchangePlan {
                chip: c,
                pairs: Vec::new(),
            })
            .collect();
        for p in &pairs {
            plans[p.from_chip as usize].pairs.push(p.clone());
            plans[p.to_chip as usize].pairs.push(p.clone());
        }
        plans
    }

    /// Derives the per-cycle [`ExchangePlan`] cost figures from the
    /// routes. This is the *only* computation of exchange volumes in the
    /// workspace: the engine executes the same hops this sums over.
    pub fn exchange_plan(&self, circuit: &Circuit, differential: bool) -> ExchangePlan {
        let n = self.tiles as usize;
        let mut out = ExchangePlan {
            tile_out_bytes: vec![0; n],
            tile_in_bytes: vec![0; n],
            tile_out_bit1_bytes: vec![0; n],
            tile_in_bit1_bytes: vec![0; n],
            ..Default::default()
        };

        // Register routes: every hop moves the full value. Single-bit
        // registers are tracked separately — they are the slots a
        // packed-lane gang moves at 64 scenarios per word, and
        // `ExchangePlan::scaled_by_lanes` scales them by packed words.
        for route in &self.reg_routes {
            if route.producer == u32::MAX {
                continue;
            }
            let bytes = route.words as u64 * 8;
            let bit1 = circuit.regs[route.reg.index()].width == 1;
            let (mut crosses_tile, mut crosses_chip) = (false, false);
            for hop in &route.hops {
                crosses_tile = true;
                out.tile_out_bytes[route.producer as usize] += bytes;
                out.tile_in_bytes[hop.tile as usize] += bytes;
                if bit1 {
                    out.tile_out_bit1_bytes[route.producer as usize] += bytes;
                    out.tile_in_bit1_bytes[hop.tile as usize] += bytes;
                }
                if self.hop_crosses_chip(hop) {
                    out.offchip_total_bytes += bytes;
                    if bit1 {
                        out.offchip_bit1_bytes += bytes;
                    }
                    crosses_chip = true;
                }
            }
            if crosses_tile {
                out.onchip_cut_bytes += bytes;
                if bit1 {
                    out.onchip_cut_bit1_bytes += bytes;
                }
            }
            if crosses_chip {
                out.offchip_cut_bytes += bytes;
                if bit1 {
                    out.offchip_cut_bit1_bytes += bytes;
                }
            }
        }

        // Port routes: differential records (or whole-array transfers
        // with the optimization disabled) to every remote holder.
        let mut pi = 0usize;
        for (ai, a) in circuit.arrays.iter().enumerate() {
            let full_bytes = a.size_bytes();
            let (mut crossed_tile, mut crossed_chip) = (false, false);
            let mut diff_sum = 0u64;
            while pi < self.port_routes.len() && self.port_routes[pi].array.index() == ai {
                let route = &self.port_routes[pi];
                pi += 1;
                let diff_bytes = route.data_words as u64 * 8 + PORT_RECORD_OVERHEAD_BYTES;
                diff_sum += diff_bytes;
                let payload = if differential { diff_bytes } else { full_bytes };
                for hop in &route.hops {
                    crossed_tile = true;
                    out.tile_out_bytes[route.producer as usize] += payload;
                    out.tile_in_bytes[hop.tile as usize] += payload;
                    if self.hop_crosses_chip(hop) {
                        out.offchip_total_bytes += payload;
                        crossed_chip = true;
                    }
                }
            }
            let cut = if differential { diff_sum } else { full_bytes };
            if crossed_tile {
                out.onchip_cut_bytes += cut;
            }
            if crossed_chip {
                out.offchip_cut_bytes += cut;
            }
        }

        out.max_tile_onchip_bytes = (0..n)
            .map(|i| out.tile_out_bytes[i] + out.tile_in_bytes[i])
            .max()
            .unwrap_or(0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionConfig;
    use crate::stages::compile;
    use parendi_rtl::Builder;

    fn ring(n: usize) -> Circuit {
        let mut b = Builder::new("ring");
        let regs: Vec<_> = (0..n).map(|i| b.reg(format!("r{i}"), 16, 0)).collect();
        for i in 0..n {
            let prev = regs[(i + n - 1) % n].q();
            let k = b.lit(16, 3);
            let v = b.add(prev, k);
            b.connect(regs[i], v);
        }
        b.finish().unwrap()
    }

    #[test]
    fn ring_routes_point_to_point() {
        let c = ring(8);
        let comp = compile(&c, &PartitionConfig::with_tiles(8)).unwrap();
        let routing = &comp.routing;
        assert_eq!(routing.tiles, 8);
        // Every register has exactly one remote consumer (the next ring
        // element lives on another tile at 8 tiles / 8 fibers).
        for route in &routing.reg_routes {
            assert!(route.producer != u32::MAX);
            assert_eq!(route.hops.len(), 1, "ring reg fans out to one tile");
            assert_ne!(route.hops[0].tile, route.producer);
        }
        // Channel offsets tile the buffers exactly.
        for (ci, ch) in routing.channels.iter().enumerate() {
            let mut covered = vec![false; ch.words() as usize];
            for route in &routing.reg_routes {
                for hop in &route.hops {
                    if hop.channel == ci as u32 {
                        for w in hop.word_off..hop.word_off + route.words {
                            assert!(!covered[w as usize], "overlapping slot");
                            covered[w as usize] = true;
                        }
                    }
                }
            }
            assert!(covered.iter().all(|&c| c), "holes in channel {ci}");
        }
    }

    #[test]
    fn plan_is_derived_from_routes() {
        let c = ring(16);
        let mut cfg = PartitionConfig::with_tiles(8);
        cfg.tiles_per_chip = 4;
        let comp = compile(&c, &cfg).unwrap();
        let replanned = comp.routing.exchange_plan(&c, cfg.differential_exchange);
        assert_eq!(comp.plan.tile_out_bytes, replanned.tile_out_bytes);
        assert_eq!(comp.plan.tile_in_bytes, replanned.tile_in_bytes);
        assert_eq!(
            comp.plan.max_tile_onchip_bytes,
            replanned.max_tile_onchip_bytes
        );
        assert_eq!(comp.plan.offchip_total_bytes, replanned.offchip_total_bytes);
        // The executable word volume matches the modeled byte volume.
        let out_words = comp.routing.tile_out_words();
        for (tile, &words) in out_words.iter().enumerate() {
            let reg_and_record_bytes = words * 8;
            // Modeled bytes add the 4+1 record overhead over a plain
            // 2-word header, so they need not be equal — but a tile
            // sends words iff the model charges it bytes.
            assert_eq!(
                reg_and_record_bytes > 0,
                comp.plan.tile_out_bytes[tile] > 0,
                "tile {tile}"
            );
        }
    }

    #[test]
    fn chip_plans_round_trip_and_tile_the_aggregates() {
        let c = ring(16);
        let mut cfg = PartitionConfig::with_tiles(8);
        cfg.tiles_per_chip = 2; // 4 chips
        let comp = compile(&c, &cfg).unwrap();
        let routing = &comp.routing;
        let plans = routing.chip_exchange_plans();
        assert_eq!(plans.len(), 4);
        assert!(
            plans.iter().any(|p| !p.pairs.is_empty()),
            "a 16-ring over 4 chips must cross chips"
        );
        for (ci, plan) in plans.iter().enumerate() {
            assert_eq!(plan.chip, ci as u32);
            // Text round-trip is exact.
            let back = ChipExchangePlan::from_text(&plan.to_text()).unwrap();
            assert_eq!(&back, plan);
            for pair in &plan.pairs {
                assert_ne!(pair.from_chip, pair.to_chip);
                assert!(pair.from_chip == plan.chip || pair.to_chip == plan.chip);
                // Channel slices tile the aggregate exactly, in order.
                let mut fill = 0u32;
                for ch in &pair.channels {
                    assert_eq!(ch.word_base, fill, "slice gap or overlap");
                    assert_eq!(
                        routing.tile_chip[ch.from_tile as usize], pair.from_chip,
                        "producer tile on the wrong chip"
                    );
                    assert_eq!(routing.tile_chip[ch.to_tile as usize], pair.to_chip);
                    let spec = &routing.channels[ch.channel as usize];
                    assert_eq!((spec.from, spec.to), (ch.from_tile, ch.to_tile));
                    assert_eq!(spec.words(), ch.reg_words + ch.port_words);
                    fill += ch.reg_words + ch.port_words;
                }
                assert_eq!(fill, pair.words, "slices must fill the aggregate");
            }
        }
    }

    #[test]
    fn endpoint_chips_agree_on_shared_pairs() {
        let c = ring(16);
        let mut cfg = PartitionConfig::with_tiles(8);
        cfg.tiles_per_chip = 4; // 2 chips
        let comp = compile(&c, &cfg).unwrap();
        let plans = comp.routing.chip_exchange_plans();
        let mut shared = 0;
        for plan in &plans {
            for pair in &plan.pairs {
                let other = if pair.from_chip == plan.chip {
                    pair.to_chip
                } else {
                    pair.from_chip
                };
                // The peer chip's plan carries an identical copy: two
                // processes can parse their own plans independently and
                // agree on every frame layout.
                let peer = plans[other as usize]
                    .pairs
                    .iter()
                    .find(|p| (p.from_chip, p.to_chip) == (pair.from_chip, pair.to_chip))
                    .expect("peer chip missing the shared pair");
                assert_eq!(peer, pair);
                shared += 1;
            }
        }
        assert!(shared > 0, "two chips of a ring must exchange");
    }

    #[test]
    fn chip_plan_text_rejects_corruption() {
        let good = "chip 1\npair 0 1 words 4\n  ch 2 from 3 to 4 reg 4 port 0 base 0\n";
        let plan = ChipExchangePlan::from_text(good).unwrap();
        assert_eq!(plan.chip, 1);
        assert_eq!(plan.pairs.len(), 1);
        // Slice layout that does not tile the aggregate.
        assert!(ChipExchangePlan::from_text(
            "chip 1\npair 0 1 words 4\n  ch 2 from 3 to 4 reg 4 port 0 base 1\n"
        )
        .unwrap_err()
        .contains("filled"));
        // Undersized aggregate.
        assert!(ChipExchangePlan::from_text(
            "chip 1\npair 0 1 words 9\n  ch 2 from 3 to 4 reg 4 port 0 base 0\n"
        )
        .unwrap_err()
        .contains("fill 4 of 9"));
        // A pair the chip does not touch.
        assert!(ChipExchangePlan::from_text("chip 7\npair 0 1 words 0\n")
            .unwrap_err()
            .contains("does not involve chip 7"));
        // Structural salad.
        assert!(ChipExchangePlan::from_text("pair 0 1 words 0\n").is_err());
        assert!(
            ChipExchangePlan::from_text("chip 1\n  ch 0 from 0 to 1 reg 1 port 0 base 0\n")
                .unwrap_err()
                .contains("before any pair")
        );
        assert!(ChipExchangePlan::from_text("chip x\n")
            .unwrap_err()
            .contains("bad chip id"));
        assert!(ChipExchangePlan::from_text("bogus\n")
            .unwrap_err()
            .contains("unknown record"));
        assert!(ChipExchangePlan::from_text("")
            .unwrap_err()
            .contains("missing chip"));
    }

    #[test]
    fn array_records_route_to_every_holder() {
        let mut b = Builder::new("mem");
        // Writer fiber on one tile, reader fibers elsewhere.
        let waddr = b.reg("waddr", 4, 0);
        let one = b.lit(4, 1);
        let winc = b.add(waddr.q(), one);
        b.connect(waddr, winc);
        let mem = b.array("m", 32, 16);
        let data = b.lit(32, 0xabcd);
        let en = b.lit(1, 1);
        b.array_write(mem, waddr.q(), data, en);
        for i in 0..3 {
            let r = b.reg(format!("r{i}"), 32, 0);
            let idx = b.lit(4, i as u64);
            let v = b.array_read(mem, idx);
            let nx = b.add(v, r.q());
            b.connect(r, nx);
        }
        let c = b.finish().unwrap();
        let comp = compile(&c, &PartitionConfig::with_tiles(8)).unwrap();
        let routing = &comp.routing;
        assert_eq!(routing.port_routes.len(), 1);
        let route = &routing.port_routes[0];
        let holders = &routing.array_holders[0];
        assert!(holders.len() >= 2, "readers must hold copies: {holders:?}");
        assert_eq!(
            route.hops.len(),
            holders.iter().filter(|&&h| h != route.producer).count(),
            "one record per remote holder"
        );
        for hop in &route.hops {
            let ch = &routing.channels[hop.channel as usize];
            assert_eq!((ch.from, ch.to), (route.producer, hop.tile));
            assert!(hop.word_off >= ch.reg_words, "records live after registers");
        }
    }
}
