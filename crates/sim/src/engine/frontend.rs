//! The compile front-end: circuit + partition + lane count in,
//! [`Compiled`] out — per-tile [`Program`]s, the state layout (register
//! / array / output homes, input packing) and the mailbox fabric, every
//! buffer sized for `lanes` scenarios side by side.
//!
//! [`build_program`] turns one process into [`Step`]s and hands them to
//! the lowering ([`crate::exec::lower`]); the one decision it owns is
//! the **order** nodes are visited in, which is also the order arena
//! slots are bump-allocated in: node-id order for a gang, the
//! opcode-class [`schedule`] at one lane. [`collect_code_stats`] reads
//! back the opcode/width and adjacent-pair histograms of a compile —
//! the data fusion and SIMD-coverage decisions are made from.
//!
//! # The mailbox fabric
//!
//! On-chip channels get one double-buffered [`Mailbox`] per
//! producer→consumer tile pair. Off-chip channels are aggregated into
//! one wider mailbox **per ordered chip pair**, appended after the
//! on-chip boxes ([`Compiled::offchip_pairs`] names their order), each
//! channel owning a disjoint segment — the unit a
//! [`crate::transport::ChipTransport`] carries across the chip
//! boundary. In packed mode a mailbox's 1-bit register slots move to a
//! packed tail behind its (compacted) strided section ([`ChanLayout`]).

use super::program::{
    Apply, ArrayHome, OutputHome, PackedCommit, PackedSend, PortSend, Program, RecSrc, RegCommit,
    RegHome, RegSend, Step,
};
use super::sync::{Link, Mailbox};
use crate::exec::bytecode::{bin1_opc, op, un1_opc, Code};
use crate::exec::lower::PackPlan;
use crate::simd::VecIsa;
use parendi_core::routing::{ChannelClass, Routing};
use parendi_core::Partition;
use parendi_rtl::bits::words_for;
use parendi_rtl::{Circuit, InputId, NodeKind};
use std::collections::{BTreeMap, HashMap};

/// The complete compile front-end shared by the execution engines:
/// per-tile programs, state layout (register / array / output homes),
/// input packing, and the mailbox fabric, all sized for `lanes`
/// independent scenarios (the single-scenario engine passes 1).
///
/// Every strided lane-carrying buffer is word-interleaved (see
/// [`crate::exec::lanes`]): each word's lane row
/// `[off × lanes, (off + 1) × lanes)` is contiguous, so the lane
/// kernels sweep dense lane chunks.
///
/// `Clone` deep-copies the whole artifact (including both mailbox
/// parities — see [`Mailbox::clone`]'s quiescence requirement): a
/// compile cache keeps one master copy and clones it per engine, so the
/// expensive `new` runs once per content-hash key.
#[derive(Clone)]
pub(crate) struct Compiled {
    /// Scenario lanes every buffer below is laid out for (recorded so a
    /// cached artifact carries its own lane shape).
    pub lanes: usize,
    pub programs: Vec<Program>,
    pub reg_home: Vec<RegHome>,
    pub array_home: Vec<ArrayHome>,
    pub output_home: Vec<OutputHome>,
    /// Word offset of each input in the (single-lane) strided input
    /// section — or, for a packed 1-bit input, its packed slot index.
    pub input_off: Vec<u32>,
    /// Whether each input lives in the packed tail of the input buffer.
    pub input_packed: Vec<bool>,
    /// Single-lane strided input section size in words.
    pub input_words: u32,
    /// Full input buffer size: `input_words × lanes` plus the packed
    /// tail.
    pub input_total_words: usize,
    pub input_by_name: HashMap<String, InputId>,
    pub output_by_name: HashMap<String, u32>,
    /// Strided words of own registers per tile (the per-lane register
    /// stride; packed 1-bit registers live after the strided section).
    pub tile_reg_words: Vec<u32>,
    /// Packed 1-bit register slots per tile.
    pub tile_reg_packed: Vec<u32>,
    /// Initial (single-lane) contents of every array, by `ArrayId`.
    pub array_init: Vec<Vec<u64>>,
    /// The mailbox fabric: on-chip per-tile-pair boxes first, then the
    /// per-chip-pair off-chip aggregates.
    pub channels: Vec<Mailbox>,
    /// Strided single-lane words of each mailbox (its strided section
    /// is `mail_words × lanes` words; packed slots live after it).
    pub mail_words: Vec<u32>,
    /// How many leading `channels` serve on-chip tile pairs.
    pub onchip_mailboxes: usize,
    /// `(from_chip, to_chip)` of each off-chip aggregate mailbox, in
    /// mailbox order (`channels[onchip_mailboxes + i]` carries
    /// `offchip_pairs[i]`) — the unit the transport backends move.
    pub offchip_pairs: Vec<(u32, u32)>,
    /// Every routing channel's endpoints, mailbox, and width.
    pub links: Vec<Link>,
    pub tile_chip: Vec<u32>,
    /// Words per packed 1-bit net block: `ceil(lanes / 64)` in packed
    /// mode, 0 otherwise.
    pub pw: usize,
    /// The lane-kernel instantiation the fused opcodes dispatch to,
    /// picked once here from the CPU and the lane count.
    pub isa: VecIsa,
}

/// Where a mailbox slot lives: the strided section or the packed tail
/// (absolute word offset — the packed tail is not lane-strided).
#[derive(Clone, Copy, Debug)]
enum MailSlot {
    Strided { ch: u32, off: u32 },
    Packed { ch: u32, abs: u32 },
}

/// The compile-time channel layout: translates a routing hop into the
/// engine's mailbox slot, accounting for the packed-mode re-layout
/// (1-bit register slots move to a packed tail; the strided section
/// compacts around them; port records always stay strided).
struct ChanLayout {
    /// Per routing channel: `(mailbox, strided word base, packed slot
    /// base)`.
    map: Vec<(u32, u32, u32)>,
    /// Per routing channel: strided words of its register section.
    sreg_words: Vec<u32>,
    /// Per routing channel: its original (routing-level) register words.
    reg_words: Vec<u32>,
    /// Resolved register slots: `(channel, routing word_off)` →
    /// compacted strided offset or packed slot index.
    reg_slot: HashMap<(u32, u32), MailSlot0>,
    /// Per mailbox: word offset of the packed tail (`stride × lanes`).
    packed_base: Vec<u32>,
    pw: u32,
}

/// A register slot within one routing channel, before the aggregate
/// mailbox bases are applied.
#[derive(Clone, Copy, Debug)]
enum MailSlot0 {
    Strided(u32),
    Packed(u32),
}

impl ChanLayout {
    /// Resolves a routing hop into its mailbox slot.
    fn slot_of(&self, hop: &parendi_core::routing::Hop) -> MailSlot {
        let ci = hop.channel as usize;
        let (mb, sbase, pbase) = self.map[ci];
        if hop.word_off < self.reg_words[ci] {
            match self.reg_slot[&(hop.channel, hop.word_off)] {
                MailSlot0::Strided(off) => MailSlot::Strided {
                    ch: mb,
                    off: sbase + off,
                },
                MailSlot0::Packed(slot) => MailSlot::Packed {
                    ch: mb,
                    abs: self.packed_base[mb as usize] + (pbase + slot) * self.pw,
                },
            }
        } else {
            // Port records pack after the compacted register section.
            MailSlot::Strided {
                ch: mb,
                off: sbase + self.sreg_words[ci] + (hop.word_off - self.reg_words[ci]),
            }
        }
    }
}

impl Compiled {
    /// Compiles `partition` for `lanes` side-by-side scenarios. With
    /// `packed`, 1-bit registers, inputs, mailbox slots, and eligible
    /// combinational nets are laid out bit-packed across lanes
    /// (`ceil(lanes / 64)` words per net).
    pub(crate) fn new(
        circuit: &Circuit,
        partition: &Partition,
        lanes: usize,
        packed: bool,
    ) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        let isa = VecIsa::for_lanes(lanes);
        let pw = if packed { lanes.div_ceil(64) } else { 0 };
        assert!(pw < 1 << 16, "lane count overflows the packed-word imm");
        let routing = Routing::new(circuit, partition);

        // Input packing (shared, read-only during runs): 1-bit inputs
        // move to a packed tail in packed mode.
        let mut input_off = Vec::with_capacity(circuit.inputs.len());
        let mut input_packed = Vec::with_capacity(circuit.inputs.len());
        let mut iwords = 0u32;
        let mut ipacked = 0u32;
        let mut input_by_name = HashMap::new();
        for (i, d) in circuit.inputs.iter().enumerate() {
            if packed && d.width == 1 {
                input_off.push(ipacked);
                input_packed.push(true);
                ipacked += 1;
            } else {
                input_off.push(iwords);
                input_packed.push(false);
                iwords += words_for(d.width) as u32;
            }
            input_by_name.insert(d.name.clone(), InputId(i as u32));
        }
        let input_total_words = iwords as usize * lanes + ipacked as usize * pw;

        // Register homes: owner tile + offset among that tile's own
        // regs. Packed 1-bit registers get slot indices in the packed
        // tail instead of strided word offsets.
        let mut reg_home = vec![
            RegHome {
                tile: u32::MAX,
                off: 0,
                words: 0,
                packed: false,
            };
            circuit.regs.len()
        ];
        let mut tile_reg_words = vec![0u32; partition.processes.len()];
        let mut tile_reg_packed = vec![0u32; partition.processes.len()];
        for route in &routing.reg_routes {
            // reg_routes is in RegId order, so per-tile offsets pack in
            // RegId order too.
            if route.producer == u32::MAX {
                continue;
            }
            let t = route.producer as usize;
            if packed && circuit.regs[route.reg.index()].width == 1 {
                reg_home[route.reg.index()] = RegHome {
                    tile: route.producer,
                    off: tile_reg_packed[t],
                    words: 1,
                    packed: true,
                };
                tile_reg_packed[t] += 1;
            } else {
                reg_home[route.reg.index()] = RegHome {
                    tile: route.producer,
                    off: tile_reg_words[t],
                    words: route.words,
                    packed: false,
                };
                tile_reg_words[t] += route.words;
            }
        }

        // Array homes: first holder, or a spare copy of the initial
        // contents for arrays no process references.
        let array_init: Vec<Vec<u64>> = circuit
            .arrays
            .iter()
            .map(|a| {
                let w = words_for(a.width);
                let mut buf = vec![0u64; w * a.depth as usize];
                if let Some(init) = &a.init {
                    for (i, v) in init.iter().enumerate() {
                        buf[i * w..(i + 1) * w].copy_from_slice(v.words());
                    }
                }
                buf
            })
            .collect();
        let array_home: Vec<ArrayHome> = routing
            .array_holders
            .iter()
            .enumerate()
            .map(|(ai, holders)| match holders.first() {
                Some(&tile) => {
                    let p = &partition.processes[tile as usize];
                    let slot = p
                        .arrays
                        .binary_search(&parendi_rtl::ArrayId(ai as u32))
                        .expect("holder lists the array") as u32;
                    ArrayHome::Held { tile, slot }
                }
                None => ArrayHome::Spare(array_init[ai].clone()),
            })
            .collect();

        // Channel re-layout: per routing channel, count the strided
        // register words (wide registers, compacted) and the packed
        // 1-bit register slots, recording where every register slot
        // landed. Offsets were assigned by the routing in reg_routes
        // order, so walking that order reproduces them.
        let nch = routing.channels.len();
        let mut s_fill = vec![0u32; nch];
        let mut p_fill = vec![0u32; nch];
        let mut reg_slot: HashMap<(u32, u32), MailSlot0> = HashMap::new();
        for route in &routing.reg_routes {
            if route.producer == u32::MAX {
                continue;
            }
            let rp = reg_home[route.reg.index()].packed;
            for hop in &route.hops {
                let ci = hop.channel as usize;
                if rp {
                    reg_slot.insert((hop.channel, hop.word_off), MailSlot0::Packed(p_fill[ci]));
                    p_fill[ci] += 1;
                } else {
                    reg_slot.insert((hop.channel, hop.word_off), MailSlot0::Strided(s_fill[ci]));
                    s_fill[ci] += route.words;
                }
            }
        }
        // Strided words per routing channel: compacted register section
        // plus the (always strided) port-record section.
        let chan_strided: Vec<u32> = routing
            .channels
            .iter()
            .enumerate()
            .map(|(ci, ch)| s_fill[ci] + ch.port_words)
            .collect();

        // Mailboxes. On-chip channels get one double-buffered mailbox per
        // tile pair; off-chip channels are aggregated into one wider
        // mailbox per ordered chip pair, each channel owning a disjoint
        // segment. Buffers carry `lanes` word-interleaved copies of the
        // strided layout, followed by the packed tail.
        let mut chan_map = vec![(0u32, 0u32, 0u32); nch];
        let mut channels: Vec<Mailbox> = Vec::new();
        let mut mail_words: Vec<u32> = Vec::new();
        let mut mail_packed: Vec<u32> = Vec::new();
        for (ci, ch) in routing.channels.iter().enumerate() {
            if ch.class == ChannelClass::OnChip {
                chan_map[ci] = (channels.len() as u32, 0, 0);
                channels.push(Mailbox::new(
                    chan_strided[ci] as usize * lanes + p_fill[ci] as usize * pw,
                ));
                mail_words.push(chan_strided[ci]);
                mail_packed.push(p_fill[ci]);
            }
        }
        let onchip_mailboxes = channels.len();
        let mut pair_index: HashMap<(u32, u32), usize> = HashMap::new();
        let mut pair_words: Vec<u32> = Vec::new();
        let mut pair_packed: Vec<u32> = Vec::new();
        let mut offchip_pairs: Vec<(u32, u32)> = Vec::new();
        for (ci, ch) in routing.channels.iter().enumerate() {
            if ch.class == ChannelClass::OffChip {
                let pair = (
                    routing.tile_chip[ch.from as usize],
                    routing.tile_chip[ch.to as usize],
                );
                let pi = *pair_index.entry(pair).or_insert_with(|| {
                    pair_words.push(0);
                    pair_packed.push(0);
                    offchip_pairs.push(pair);
                    pair_words.len() - 1
                });
                chan_map[ci] = (
                    (onchip_mailboxes + pi) as u32,
                    pair_words[pi],
                    pair_packed[pi],
                );
                pair_words[pi] += chan_strided[ci];
                pair_packed[pi] += p_fill[ci];
            }
        }
        channels.extend(
            pair_words
                .iter()
                .zip(&pair_packed)
                .map(|(&w, &pk)| Mailbox::new(w as usize * lanes + pk as usize * pw)),
        );
        mail_words.extend(pair_words.iter().copied());
        mail_packed.extend(pair_packed.iter().copied());
        let links: Vec<Link> = routing
            .channels
            .iter()
            .enumerate()
            .map(|(ci, ch)| Link {
                mailbox: chan_map[ci].0,
                from: ch.from,
                to: ch.to,
                words: chan_strided[ci] + p_fill[ci],
            })
            .collect();
        let packed_base: Vec<u32> = mail_words
            .iter()
            .map(|&w| {
                let base = w as usize * lanes;
                assert!(base < u32::MAX as usize, "mailbox too large");
                base as u32
            })
            .collect();
        let layout = ChanLayout {
            map: chan_map,
            sreg_words: s_fill,
            reg_words: routing.channels.iter().map(|c| c.reg_words).collect(),
            reg_slot,
            packed_base,
            pw: pw as u32,
        };

        // Preload epoch-0 register slots with initial values so cycle 0
        // observes the power-on state — in every lane (packed slots get
        // the init bit broadcast across the lane bits).
        for route in &routing.reg_routes {
            for hop in &route.hops {
                let init = circuit.regs[route.reg.index()].init.words();
                match layout.slot_of(hop) {
                    MailSlot::Strided { ch, off } => {
                        for lane in 0..lanes {
                            for (k, &w) in init.iter().enumerate() {
                                let at = (off as usize + k) * lanes + lane;
                                // SAFETY: construction is single-threaded
                                // and offsets stay inside the lane-sized
                                // buffer.
                                unsafe {
                                    *channels[ch as usize].write_base(0).add(at) = w;
                                }
                            }
                        }
                    }
                    MailSlot::Packed { ch, abs } => {
                        let word = if init[0] & 1 == 1 { u64::MAX } else { 0 };
                        for i in 0..pw {
                            // SAFETY: as above; the packed tail is within
                            // the buffer by construction.
                            unsafe {
                                *channels[ch as usize].write_base(0).add(abs as usize + i) = word;
                            }
                        }
                    }
                }
            }
        }

        // Compile-time route indexes, built once: (array, port) → route
        // and per-array route ranges (port_routes is (array, port)
        // sorted), so program building never rescans `port_routes`.
        let mut port_route_of: HashMap<(u32, u32), u32> = HashMap::new();
        for (i, r) in routing.port_routes.iter().enumerate() {
            port_route_of.insert((r.array.0, r.port), i as u32);
        }
        let mut array_route_range = vec![(0u32, 0u32); circuit.arrays.len()];
        let mut i = 0;
        while i < routing.port_routes.len() {
            let a = routing.port_routes[i].array.index();
            let start = i;
            while i < routing.port_routes.len() && routing.port_routes[i].array.index() == a {
                i += 1;
            }
            array_route_range[a] = (start as u32, i as u32);
        }

        // Per-tile programs.
        let fe = FrontEnd {
            circuit,
            partition,
            routing: &routing,
            reg_home: &reg_home,
            layout: &layout,
            input_off: &input_off,
            input_packed: &input_packed,
            input_words: iwords,
            tile_reg_words: &tile_reg_words,
            port_route_of: &port_route_of,
            array_route_range: &array_route_range,
            lanes,
            pw,
            packed,
        };
        // Node id → arena offset scratch, shared by every tile's build:
        // `UNSET` outside the tile being built.
        let mut node_off = vec![UNSET; circuit.nodes.len()];
        let programs: Vec<Program> = partition
            .processes
            .iter()
            .enumerate()
            .map(|(pi, p)| build_program(&fe, &mut node_off, pi as u32, p))
            .collect();

        // Output homes: the owning tile (pinned by the routing layer)
        // plus the arena offset its program computes the value at.
        let mut output_home = vec![
            OutputHome {
                tile: u32::MAX,
                off: 0
            };
            circuit.outputs.len()
        ];
        for (pi, prog) in programs.iter().enumerate() {
            for &(oi, off) in &prog.outputs {
                debug_assert_eq!(routing.output_tiles[oi as usize], pi as u32);
                output_home[oi as usize] = OutputHome {
                    tile: pi as u32,
                    off,
                };
            }
        }
        let output_by_name: HashMap<String, u32> = circuit
            .outputs
            .iter()
            .enumerate()
            .map(|(i, o)| (o.name.clone(), i as u32))
            .collect();

        Compiled {
            lanes,
            programs,
            reg_home,
            array_home,
            output_home,
            input_off,
            input_packed,
            input_words: iwords,
            input_total_words,
            input_by_name,
            output_by_name,
            tile_reg_words,
            tile_reg_packed,
            array_init,
            channels,
            mail_words,
            onchip_mailboxes,
            offchip_pairs,
            links,
            tile_chip: routing.tile_chip,
            pw,
            isa,
        }
    }
}

/// Aggregates every tile program's opcode/width and adjacent-pair
/// histograms into a queryable [`CodeStats`], which `figures report`
/// prints.
pub(crate) fn collect_code_stats(programs: &[Program]) -> parendi_telemetry::CodeStats {
    let mut hist: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    let mut pairs: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let mut runs: BTreeMap<u32, u64> = BTreeMap::new();
    let (mut ops, mut dispatches) = (0u64, 0u64);
    for prog in programs {
        prog.code.histogram(&mut hist);
        prog.code.pair_histogram(&mut pairs);
        prog.code.run_lengths(&mut runs);
        let (strided, packed) = prog.code.op_mix();
        ops += strided + packed;
        dispatches += prog.code.ops.len() as u64;
    }
    parendi_telemetry::CodeStats::from_histograms(
        programs.len(),
        ops,
        dispatches,
        runs,
        hist.into_iter().map(|((n, w), c)| ((n.to_string(), w), c)),
        pairs
            .into_iter()
            .map(|((a, b), c)| ((a.to_string(), b.to_string()), c)),
    )
}

/// Everything [`build_program`] needs from the front-end: circuit,
/// routing, the packed-aware channel layout, and the state layouts.
struct FrontEnd<'a> {
    circuit: &'a Circuit,
    partition: &'a Partition,
    routing: &'a Routing,
    reg_home: &'a [RegHome],
    layout: &'a ChanLayout,
    /// Strided word offset (or packed slot index) per input.
    input_off: &'a [u32],
    input_packed: &'a [bool],
    /// Strided per-lane input stride in words.
    input_words: u32,
    tile_reg_words: &'a [u32],
    port_route_of: &'a HashMap<(u32, u32), u32>,
    array_route_range: &'a [(u32, u32)],
    lanes: usize,
    pw: usize,
    packed: bool,
}

/// "No arena offset" in the node-id → offset scratch of
/// [`build_program`]: every entry outside the tile being built, and
/// inside it every node not yet visited.
pub(super) const UNSET: u32 = u32::MAX;

/// The arena offset [`build_program`] assigned to node `id` of the tile
/// it is building.
fn assigned(node_off: &[u32], id: parendi_rtl::NodeId) -> u32 {
    let off = node_off[id.index()];
    assert!(off != UNSET, "node read before its slot was assigned");
    off
}

/// Orders a tile's nodes for the run-forming one-lane lowering:
/// constants, then the register/input/mailbox reads sorted by
/// `source_key` — kind, channel, source offset, so contiguous reads meet
/// in the block-copy peephole — then a list schedule that keeps
/// emitting ready nodes of the current opcode class and, when none is
/// left, switches to the class with the most ready nodes (ties: lowest
/// opcode). Every table is a dense `Vec` indexed by a node's rank in
/// `nodes` (`rank_of` borrows the caller's per-circuit-node scratch for
/// the node-id → rank map and hands it back all [`UNSET`]), the ready
/// sets are intrusive per-class stacks, and the pass is O(nodes +
/// edges) beyond sorting the reads — nothing iterates a hash table, so
/// the order is a pure function of the circuit.
///
/// **Legal** because a tile's program is a DAG in single assignment:
/// every arena slot is bump-allocated for one node, written once per
/// cycle by that node's instruction and read only by its users, so any
/// topological order computes the same values; and because slots are
/// handed out in *emission* order, every order keeps "an operand's
/// offset is below its destination's" — what the gang sweeps'
/// `split_at_mut` and the packed lowering's invariance pass lean on.
///
/// **One lane only**, selected by the lane count the constructor
/// already has (no knob): one lane is dispatch-bound, a gang amortises
/// each dispatch over its lanes and is bandwidth-bound. Node-id order
/// leaves a third of adjacent pairs on sr7 sharing an opcode;
/// scheduled, sr7 @ 64 tiles dispatches 3.5 k times for 30.4 k
/// operations (mean run 10.8) and schedule plus runs take
/// `single_compute` from 20.0 k to 31 k cycles/s. The same schedule on
/// the 64-lane `gang_lanes` gangs (a tile's arena is ~300 KB there and
/// node-id order is producer-near-consumer order) cost `work_per_s_t1`
/// 6.5 % in both of two pairs (1.66 M → 1.55 M); at 8 lanes it bought
/// +8…12 % run rate but `serve_mixed` flat and `compile_large` −18 %.
/// The benchmark has workloads on both sides of the choice
/// (`single_*` against `gang_lanes`, `serve_mixed`, `compile_large`).
pub(super) fn schedule(
    circuit: &Circuit,
    nodes: &parendi_graph::HybridSet,
    rank_of: &mut [u32],
    source_key: impl Fn(&NodeKind) -> u64,
) -> Vec<u32> {
    let ids: Vec<u32> = nodes.iter().collect();
    let n = ids.len();
    // Per node: the opcode class it lowers to, whether it is wider than
    // a word, and its operands' ranks (CSR) — operands have lower ids,
    // so their rows are filled before any user reads them.
    let mut class = vec![0u8; n];
    let mut big = vec![false; n];
    let mut pred_at = Vec::with_capacity(n + 1);
    let mut preds: Vec<u32> = Vec::with_capacity(2 * n);
    let mut succ_at = vec![0u32; n + 1];
    let mut consts = Vec::new();
    let mut reads: Vec<(u64, u32)> = Vec::new();
    for (r, &nid) in ids.iter().enumerate() {
        let node = &circuit.nodes[nid as usize];
        rank_of[nid as usize] = r as u32;
        pred_at.push(preds.len() as u32);
        big[r] = node.width > 64;
        let mut wide = big[r];
        node.for_each_operand(|o| {
            let q = rank_of[o.0 as usize];
            debug_assert_eq!(ids.get(q as usize), Some(&o.0), "a tile holds whole cones");
            wide |= big[q as usize];
            succ_at[q as usize + 1] += 1;
            preds.push(q);
        });
        class[r] = match &node.kind {
            NodeKind::Const(_) => {
                consts.push(r as u32);
                continue;
            }
            k @ (NodeKind::Input(_) | NodeKind::RegRead(_)) => {
                reads.push((source_key(k), r as u32));
                continue;
            }
            NodeKind::ArrayRead { .. } => op::ARRAY_READ,
            _ if wide => op::WIDE,
            NodeKind::Un(o, _) => un1_opc(*o),
            NodeKind::Bin(o, ..) => bin1_opc(*o),
            NodeKind::Mux { .. } => op::MUX1,
            NodeKind::Slice { .. } => op::SLICE1,
            NodeKind::Zext(_) => op::ZEXT1,
            NodeKind::Sext(_) => op::SEXT1,
            NodeKind::Concat { .. } => op::CONCAT1,
        };
    }
    pred_at.push(preds.len() as u32);
    for &nid in &ids {
        rank_of[nid as usize] = UNSET;
    }
    // Successor lists: the same edges, counting-sorted by producer.
    for r in 0..n {
        succ_at[r + 1] += succ_at[r];
    }
    let mut fill = succ_at.clone();
    let mut succs = vec![0u32; preds.len()];
    for r in 0..n {
        for &q in &preds[pred_at[r] as usize..pred_at[r + 1] as usize] {
            succs[fill[q as usize] as usize] = r as u32;
            fill[q as usize] += 1;
        }
    }
    // Ready nodes: one stack per class, threaded through `next` and
    // ended by `UNSET`.
    let mut waiting: Vec<u32> = pred_at.windows(2).map(|w| w[1] - w[0]).collect();
    let mut head = [UNSET; op::WIDE as usize + 1];
    let mut ready = [0u32; op::WIDE as usize + 1];
    let mut next = vec![UNSET; n];
    reads.sort_unstable();
    let mut first = consts.into_iter().chain(reads.into_iter().map(|(_, r)| r));
    let mut order = Vec::with_capacity(n);
    let mut cur = 0usize;
    while order.len() < n {
        let r = first.next().unwrap_or_else(|| {
            if head[cur] == UNSET {
                // `max_by_key` keeps the last maximum: scan downwards.
                cur = (0..ready.len()).rev().max_by_key(|&c| ready[c]).unwrap();
                assert!(ready[cur] > 0, "combinational cycle inside a tile");
            }
            let r = head[cur];
            head[cur] = next[r as usize];
            ready[cur] -= 1;
            r
        }) as usize;
        order.push(ids[r]);
        for &s in &succs[succ_at[r] as usize..succ_at[r + 1] as usize] {
            let s = s as usize;
            waiting[s] -= 1;
            if waiting[s] == 0 {
                let c = class[s] as usize;
                next[s] = head[c];
                head[c] = s as u32;
                ready[c] += 1;
            }
        }
    }
    order
}

/// Compiles one process into a self-contained [`Program`].
///
/// `fe.layout` translates a routing hop into the engine's mailbox slot
/// (strided or packed); `fe.port_route_of` and `fe.array_route_range`
/// are the compile-time route indexes built once in [`Compiled::new`]
/// so this runs in O(program size), not O(tiles × ports²).
///
/// Arena slots are bump-allocated in the order the nodes are visited:
/// node-id order for a gang, [`schedule`]'s opcode-class order — whose
/// same-opcode neighbours the lowering then collapses into runs — at
/// one lane.
fn build_program(
    fe: &FrontEnd<'_>,
    node_off: &mut [u32],
    pi: u32,
    p: &parendi_core::Process,
) -> Program {
    let FrontEnd {
        circuit,
        partition,
        routing,
        reg_home,
        layout,
        port_route_of,
        array_route_range,
        lanes,
        pw,
        ..
    } = *fe;
    // Mail slots for remote registers this tile reads.
    let mut mail_slot: HashMap<u32, MailSlot> = HashMap::new();
    for route in &routing.reg_routes {
        for hop in &route.hops {
            if hop.tile == pi {
                mail_slot.insert(route.reg.0, layout.slot_of(hop));
            }
        }
    }
    // Absolute word offset of this tile's packed register slot `s`.
    let reg_packed_abs = |s: u32| -> u32 {
        (fe.tile_reg_words[pi as usize] as usize * lanes + s as usize * pw) as u32
    };
    let arrays = &p.arrays;
    let array_slot = |a: parendi_rtl::ArrayId| -> u32 {
        arrays
            .binary_search(&a)
            .expect("tile holds read/written arrays") as u32
    };

    let runs = lanes == 1;
    let order: Vec<u32> = if runs {
        schedule(circuit, &p.nodes, node_off, |kind| match *kind {
            NodeKind::Input(i) => fe.input_off[i.index()] as u64,
            NodeKind::RegRead(r) if reg_home[r.index()].tile == pi => {
                1 << 62 | reg_home[r.index()].off as u64
            }
            NodeKind::RegRead(r) => match mail_slot[&r.0] {
                MailSlot::Strided { ch, off } | MailSlot::Packed { ch, abs: off } => {
                    2 << 62 | (ch as u64) << 32 | off as u64
                }
            },
            _ => unreachable!("only reads are keyed"),
        })
    } else {
        p.nodes.iter().collect()
    };
    debug_assert_eq!(order.len(), p.nodes.len());

    let mut words = 0u32;
    let mut steps = Vec::new();
    let mut const_init = Vec::new();
    for &nid in &order {
        let node = &circuit.nodes[nid as usize];
        let w = node.width;
        let nw = words_for(w) as u32;
        let dst = words;
        node_off[nid as usize] = dst;
        words += nw;
        let lo = |id: parendi_rtl::NodeId| assigned(node_off, id);
        let opw = |id: parendi_rtl::NodeId| words_for(circuit.width(id)) as u32;
        match &node.kind {
            NodeKind::Const(b) => const_init.push((dst, b.words().to_vec())),
            NodeKind::Input(i) => {
                if fe.input_packed[i.index()] {
                    let src = (fe.input_words as usize * lanes
                        + fe.input_off[i.index()] as usize * pw)
                        as u32;
                    steps.push(Step::InputP { dst, src });
                } else {
                    steps.push(Step::Input {
                        dst,
                        src: fe.input_off[i.index()],
                        nw,
                    });
                }
            }
            NodeKind::RegRead(r) => {
                let home = reg_home[r.index()];
                if home.tile == pi {
                    if home.packed {
                        steps.push(Step::RegOwnP {
                            dst,
                            src: reg_packed_abs(home.off),
                        });
                    } else {
                        steps.push(Step::RegOwn {
                            dst,
                            src: home.off,
                            nw,
                        });
                    }
                } else {
                    match mail_slot[&r.0] {
                        MailSlot::Strided { ch, off } => steps.push(Step::RegMail {
                            dst,
                            ch,
                            src: off,
                            nw,
                        }),
                        MailSlot::Packed { ch, abs } => {
                            steps.push(Step::RegMailP { dst, ch, src: abs })
                        }
                    }
                }
            }
            NodeKind::ArrayRead { array, index } => steps.push(Step::ArrayRead {
                dst,
                arr: array_slot(*array),
                idx: lo(*index),
                idx_w: opw(*index),
                nw,
                depth: circuit.arrays[array.index()].depth,
            }),
            NodeKind::Un(op, a) => steps.push(Step::Un {
                op: *op,
                dst,
                a: lo(*a),
                w,
                aw: circuit.width(*a),
                anw: opw(*a),
            }),
            NodeKind::Bin(op, a, b) => steps.push(Step::Bin {
                op: *op,
                dst,
                a: lo(*a),
                b: lo(*b),
                w,
                aw: circuit.width(*a),
                anw: opw(*a),
                bnw: opw(*b),
            }),
            NodeKind::Mux { sel, t, f } => steps.push(Step::Mux {
                dst,
                sel: lo(*sel),
                t: lo(*t),
                f: lo(*f),
                nw,
                w,
            }),
            NodeKind::Slice { src, lo: slo } => steps.push(Step::Slice {
                dst,
                a: lo(*src),
                lo: *slo,
                w,
                anw: opw(*src),
            }),
            NodeKind::Zext(a) => steps.push(Step::Zext {
                dst,
                a: lo(*a),
                w,
                anw: opw(*a),
            }),
            NodeKind::Sext(a) => steps.push(Step::Sext {
                dst,
                a: lo(*a),
                aw: circuit.width(*a),
                w,
                anw: opw(*a),
            }),
            NodeKind::Concat { hi, lo: l } => steps.push(Step::Concat {
                dst,
                hi: lo(*hi),
                lo: lo(*l),
                w,
                low_w: circuit.width(*l),
                hnw: opw(*hi),
                lnw: opw(*l),
            }),
        }
    }

    // Own register latches and outgoing sends (split by channel class),
    // own port records, and the outputs this tile computes. Packed
    // registers collect *raw* commits/sends keyed by the next-value's
    // arena offset; the packed arena slots are resolved after lowering.
    let mut commits = Vec::new();
    let mut sends = Vec::new();
    let mut offchip_sends = Vec::new();
    let mut raw_packed_commits: Vec<(u32, u32)> = Vec::new();
    let mut raw_packed_sends: Vec<(u32, u32, u32)> = Vec::new();
    let mut raw_offchip_packed_sends: Vec<(u32, u32, u32)> = Vec::new();
    let mut need_packed: Vec<u32> = Vec::new();
    let mut need_strided: Vec<u32> = Vec::new();
    let mut port_sends = Vec::new();
    let mut offchip_port_sends = Vec::new();
    let mut outputs = Vec::new();
    let mut own_port: HashMap<(u32, u32), RecSrc> = HashMap::new();
    let mut fibers: Vec<_> = p.fibers.clone();
    fibers.sort_unstable();
    for &f in &fibers {
        match partition.fiber_sinks[f.index()] {
            parendi_graph::fiber::SinkKind::Reg(r) => {
                let reg = &circuit.regs[r.index()];
                let next = reg.next.expect("validated circuit");
                let home = reg_home[r.index()];
                debug_assert_eq!(home.tile, pi);
                let nw = words_for(reg.width) as u32;
                if home.packed {
                    raw_packed_commits.push((assigned(node_off, next), reg_packed_abs(home.off)));
                    need_packed.push(assigned(node_off, next));
                } else {
                    commits.push(RegCommit {
                        local: assigned(node_off, next),
                        dst: home.off,
                        nw,
                    });
                }
                for hop in &routing.reg_routes[r.index()].hops {
                    match layout.slot_of(hop) {
                        MailSlot::Strided { ch, off } => {
                            let send = RegSend {
                                local: assigned(node_off, next),
                                ch,
                                dst: off,
                                nw,
                            };
                            if routing.hop_crosses_chip(hop) {
                                offchip_sends.push(send);
                            } else {
                                sends.push(send);
                            }
                        }
                        MailSlot::Packed { ch, abs } => {
                            need_packed.push(assigned(node_off, next));
                            let raw = (assigned(node_off, next), ch, abs);
                            if routing.hop_crosses_chip(hop) {
                                raw_offchip_packed_sends.push(raw);
                            } else {
                                raw_packed_sends.push(raw);
                            }
                        }
                    }
                }
            }
            parendi_graph::fiber::SinkKind::ArrayPort { array, port } => {
                let a = &circuit.arrays[array.index()];
                let wp = &a.write_ports[port as usize];
                let nw = words_for(a.width) as u32;
                let ri = port_route_of[&(array.0, port)];
                let route = &routing.port_routes[ri as usize];
                let (off_dests, on_dests): (Vec<_>, Vec<_>) =
                    route.hops.iter().partition(|h| routing.hop_crosses_chip(h));
                let en = assigned(node_off, wp.enable);
                let idx = assigned(node_off, wp.index);
                let idx_w = words_for(circuit.width(wp.index)) as u32;
                let data = assigned(node_off, wp.data);
                // Port records always live strided; their 1-bit inputs
                // must be materialized out of the packed domain.
                need_strided.extend([en, idx, data]);
                let port_slot = |h: &parendi_core::routing::Hop| -> (u32, u32) {
                    match layout.slot_of(h) {
                        MailSlot::Strided { ch, off } => (ch, off),
                        MailSlot::Packed { .. } => unreachable!("port records are never packed"),
                    }
                };
                for (dests, out) in [
                    (on_dests, &mut port_sends),
                    (off_dests, &mut offchip_port_sends),
                ] {
                    if dests.is_empty() {
                        continue;
                    }
                    out.push(PortSend {
                        en,
                        idx,
                        idx_w,
                        data,
                        nw,
                        dests: dests.iter().map(|&h| port_slot(h)).collect(),
                    });
                }
                own_port.insert(
                    (array.0, port),
                    RecSrc::Own {
                        en,
                        idx,
                        idx_w,
                        data,
                    },
                );
            }
            parendi_graph::fiber::SinkKind::Output(oi) => {
                let node = circuit.outputs[oi as usize].node;
                // Output peeks read the strided arena slot.
                need_strided.push(assigned(node_off, node));
                outputs.push((oi, assigned(node_off, node)));
            }
        }
    }
    commits.sort_by_key(|c| c.dst);

    // Apply list: every port of every held array, in (array, port) order
    // (each array's routes read off the precomputed range).
    let mut applies = Vec::new();
    for (slot, &a) in p.arrays.iter().enumerate() {
        let arr = &circuit.arrays[a.index()];
        let nw = words_for(arr.width) as u32;
        let (start, end) = array_route_range[a.index()];
        for route in &routing.port_routes[start as usize..end as usize] {
            let src = match own_port.get(&(a.0, route.port)) {
                Some(&own) => own,
                None => {
                    let hop = route
                        .hops
                        .iter()
                        .find(|h| h.tile == pi)
                        .expect("holder receives every remote port record");
                    match layout.slot_of(hop) {
                        MailSlot::Strided { ch, off } => RecSrc::Mail { ch, off },
                        MailSlot::Packed { .. } => unreachable!("port records are never packed"),
                    }
                }
            };
            applies.push(Apply {
                arr: slot as u32,
                nw,
                depth: arr.depth,
                src,
            });
        }
    }

    // Lower to bytecode. In packed mode the lowering routes eligible
    // 1-bit computation through the packed arena and returns where each
    // packed net landed, which resolves the raw packed commits/sends.
    let (code, prelude, packed_words, pslot, const_packs) = if fe.packed {
        let lowered = Code::lower_packed(
            &steps,
            &PackPlan {
                pw: pw as u32,
                preset_strided: Vec::new(),
                const_strided: const_init.iter().map(|(off, _)| *off).collect(),
                preset_packed: Vec::new(),
                need_strided,
                need_packed,
            },
            runs,
        );
        (
            lowered.code,
            lowered.prelude,
            lowered.packed_words,
            lowered.pslot,
            lowered.const_packs,
        )
    } else {
        (
            Code::lower(&steps, runs),
            Code::default(),
            0,
            HashMap::new(),
            Vec::new(),
        )
    };
    let mut packed_commits: Vec<PackedCommit> = raw_packed_commits
        .iter()
        .map(|&(off, dst)| PackedCommit {
            psrc: pslot[&off],
            dst,
        })
        .collect();
    packed_commits.sort_by_key(|c| c.dst);
    let resolve_sends = |raw: &[(u32, u32, u32)]| -> Vec<PackedSend> {
        raw.iter()
            .map(|&(off, ch, abs)| PackedSend {
                psrc: pslot[&off],
                ch,
                dst: abs,
            })
            .collect()
    };
    let packed_sends = resolve_sends(&raw_packed_sends);
    let offchip_packed_sends = resolve_sends(&raw_offchip_packed_sends);
    for &nid in &order {
        node_off[nid as usize] = UNSET;
    }

    Program {
        code,
        prelude,
        arena_words: words as usize,
        const_init,
        commits,
        sends,
        offchip_sends,
        port_sends,
        offchip_port_sends,
        applies,
        outputs,
        packed_words,
        packed_commits,
        packed_sends,
        offchip_packed_sends,
        const_packs,
    }
}
