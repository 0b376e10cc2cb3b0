//! Content-hashed compile keys: the identity of a compiled partition.
//!
//! A gang server caches compiled partitions, so it needs a stable,
//! cross-process answer to "is this the same compile?". A [`CompileKey`]
//! hashes everything [`crate::compile`] and the engine front-end consume
//! — the full circuit content, every [`PartitionConfig`] field, and the
//! lane shape (lane count + packed flag) — into one 64-bit FNV-1a
//! digest. Two requests with equal digests may share one compiled
//! artifact; any semantic difference (one renamed register, one changed
//! init value, a different tile budget, a different lane bucket)
//! changes the digest.
//!
//! The hash walks only the circuit's flat `Vec`s in their construction
//! order — never a `HashMap` — so the digest is identical across
//! processes, runs, and hosts (the property the cross-process test in
//! `parendi-serve` pins). The serializable text form follows the same
//! hand-rolled `to_text`/`from_text` idiom as
//! [`crate::routing::ChipExchangePlan`].

use crate::config::{MultiChipStrategy, PartitionConfig, Strategy};
use parendi_rtl::{Circuit, NodeKind};

/// The FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 of `bytes` — the workspace's one dependency-free
/// integrity hash (not cryptographic): compile keys here, the `PDCK`
/// snapshot checksum in `parendi-sim`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// An incremental FNV-1a 64 hasher over explicit, deterministic feeds.
/// Deliberately not `std::hash::Hasher`: nothing here may depend on
/// `RandomState` or iteration order.
#[derive(Clone, Copy, Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed string feed, so `("ab", "c")` and `("a", "bc")`
    /// hash differently.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn bits(&mut self, b: &parendi_rtl::Bits) {
        self.u32(b.width());
        for &w in b.words() {
            self.u64(w);
        }
    }
}

/// Feeds one combinational node. Tag bytes keep variants with equal
/// operand lists distinct.
fn hash_node(h: &mut Fnv, node: &parendi_rtl::Node) {
    h.u32(node.width);
    match &node.kind {
        NodeKind::Const(b) => {
            h.u32(0);
            h.bits(b);
        }
        NodeKind::Input(i) => {
            h.u32(1);
            h.u32(i.0);
        }
        NodeKind::RegRead(r) => {
            h.u32(2);
            h.u32(r.0);
        }
        NodeKind::ArrayRead { array, index } => {
            h.u32(3);
            h.u32(array.0);
            h.u32(index.0);
        }
        NodeKind::Un(op, a) => {
            h.u32(4);
            h.u32(*op as u32);
            h.u32(a.0);
        }
        NodeKind::Bin(op, a, b) => {
            h.u32(5);
            h.u32(*op as u32);
            h.u32(a.0);
            h.u32(b.0);
        }
        NodeKind::Mux { sel, t, f } => {
            h.u32(6);
            h.u32(sel.0);
            h.u32(t.0);
            h.u32(f.0);
        }
        NodeKind::Slice { src, lo } => {
            h.u32(7);
            h.u32(src.0);
            h.u32(*lo);
        }
        NodeKind::Zext(a) => {
            h.u32(8);
            h.u32(a.0);
        }
        NodeKind::Sext(a) => {
            h.u32(9);
            h.u32(a.0);
        }
        NodeKind::Concat { hi, lo } => {
            h.u32(10);
            h.u32(hi.0);
            h.u32(lo.0);
        }
    }
}

/// FNV-1a 64 content hash of a circuit: name, every node (kind, operand
/// ids, width), every register (name, width, init, next), every array
/// (name, shape, init, write ports), and the I/O declarations — all in
/// the IR's flat construction order, so the digest is stable across
/// processes. Any semantic edit changes it.
pub fn circuit_content_hash(circuit: &Circuit) -> u64 {
    let mut h = Fnv::new();
    h.str(&circuit.name);
    h.u64(circuit.nodes.len() as u64);
    for n in &circuit.nodes {
        hash_node(&mut h, n);
    }
    h.u64(circuit.regs.len() as u64);
    for r in &circuit.regs {
        h.str(&r.name);
        h.u32(r.width);
        h.bits(&r.init);
        h.u32(r.next.map(|n| n.0).unwrap_or(u32::MAX));
    }
    h.u64(circuit.arrays.len() as u64);
    for a in &circuit.arrays {
        h.str(&a.name);
        h.u32(a.width);
        h.u32(a.depth);
        match &a.init {
            None => h.u32(0),
            Some(init) => {
                h.u32(1);
                h.u64(init.len() as u64);
                for b in init {
                    h.bits(b);
                }
            }
        }
        h.u64(a.write_ports.len() as u64);
        for p in &a.write_ports {
            h.u32(p.index.0);
            h.u32(p.data.0);
            h.u32(p.enable.0);
        }
    }
    h.u64(circuit.inputs.len() as u64);
    for i in &circuit.inputs {
        h.str(&i.name);
        h.u32(i.width);
    }
    h.u64(circuit.outputs.len() as u64);
    for o in &circuit.outputs {
        h.str(&o.name);
        h.u32(o.node.0);
    }
    h.0
}

/// Feeds every compile-relevant [`PartitionConfig`] field.
fn hash_config(h: &mut Fnv, cfg: &PartitionConfig) {
    h.u32(cfg.tiles);
    h.u32(cfg.tiles_per_chip);
    h.u64(cfg.data_bytes_per_tile);
    h.u64(cfg.code_bytes_per_tile);
    h.u64(cfg.array_threshold_bytes);
    h.u32(match cfg.strategy {
        Strategy::BottomUp => 0,
        Strategy::Hypergraph => 1,
    });
    h.u32(match cfg.multi_chip {
        MultiChipStrategy::Pre => 0,
        MultiChipStrategy::Post => 1,
        MultiChipStrategy::None => 2,
    });
    h.u32(cfg.differential_exchange as u32);
    h.u64(cfg.seed);
}

/// The identity of one compiled partition: circuit content +
/// [`PartitionConfig`] + lane shape, digested to 64 bits. Equal keys
/// may share a cached `Compiled`; the lane shape is part of the key
/// because every lane-carrying buffer is sized and laid out for one
/// specific `(lanes, packed)` pair at compile time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompileKey {
    /// [`circuit_content_hash`] of the circuit alone — useful for
    /// grouping cache entries by design.
    pub circuit_hash: u64,
    /// Scenario lanes the artifact is laid out for.
    pub lanes: u32,
    /// Whether 1-bit state is bit-packed across lanes.
    pub packed: bool,
    /// The combined digest (circuit + config + lane shape).
    digest: u64,
}

impl CompileKey {
    /// Computes the key for compiling `circuit` under `cfg` at the
    /// given lane shape.
    pub fn new(circuit: &Circuit, cfg: &PartitionConfig, lanes: u32, packed: bool) -> Self {
        let circuit_hash = circuit_content_hash(circuit);
        let mut h = Fnv::new();
        h.u64(circuit_hash);
        hash_config(&mut h, cfg);
        h.u32(lanes);
        h.u32(packed as u32);
        CompileKey {
            circuit_hash,
            lanes,
            packed,
            digest: h.0,
        }
    }

    /// The combined 64-bit digest — the cache key.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Serializes the key as one line of text (the
    /// `ChipExchangePlan::to_text` idiom): four fixed-order fields,
    /// round-tripped by [`from_text`](Self::from_text).
    pub fn to_text(&self) -> String {
        format!(
            "compilekey {:016x} {} {} {:016x}\n",
            self.circuit_hash, self.lanes, self.packed as u32, self.digest
        )
    }

    /// Parses [`to_text`](Self::to_text) output. `None` on any
    /// malformed field (a corrupted key must never alias a real one).
    pub fn from_text(s: &str) -> Option<Self> {
        let mut it = s.split_whitespace();
        if it.next()? != "compilekey" {
            return None;
        }
        let circuit_hash = u64::from_str_radix(it.next()?, 16).ok()?;
        let lanes = it.next()?.parse().ok()?;
        let packed = match it.next()? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        let digest = u64::from_str_radix(it.next()?, 16).ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(CompileKey {
            circuit_hash,
            lanes,
            packed,
            digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parendi_rtl::Builder;

    fn counter(name: &str, init: u64) -> Circuit {
        let mut b = Builder::new(name);
        let r = b.reg("c", 16, init);
        let one = b.lit(16, 1);
        let n = b.add(r.q(), one);
        b.connect(r, n);
        b.output("q", r.q());
        b.finish().unwrap()
    }

    #[test]
    fn identical_circuits_hash_identically() {
        let a = counter("ctr", 0);
        let b = counter("ctr", 0);
        assert_eq!(circuit_content_hash(&a), circuit_content_hash(&b));
        let cfg = PartitionConfig::with_tiles(2);
        assert_eq!(
            CompileKey::new(&a, &cfg, 8, false),
            CompileKey::new(&b, &cfg, 8, false)
        );
    }

    /// Digests are persisted (serve cache keys, key text): the bytes of
    /// one key are pinned so the shared FNV-1a can never drift.
    #[test]
    fn golden_digest_is_pinned() {
        let key = CompileKey::new(
            &counter("ctr", 0),
            &PartitionConfig::with_tiles(2),
            8,
            false,
        );
        assert_eq!(key.circuit_hash, 0x5c9f_bd9a_d505_d75c);
        assert_eq!(key.digest(), 0xc344_d50f_5bda_7c20);
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn content_changes_change_the_hash() {
        let base = counter("ctr", 0);
        // A different init value, a different name, and a different
        // width are all semantic edits.
        assert_ne!(
            circuit_content_hash(&base),
            circuit_content_hash(&counter("ctr", 1))
        );
        assert_ne!(
            circuit_content_hash(&base),
            circuit_content_hash(&counter("ctr2", 0))
        );
    }

    #[test]
    fn key_separates_config_and_lane_shape() {
        let c = counter("ctr", 0);
        let cfg = PartitionConfig::with_tiles(2);
        let base = CompileKey::new(&c, &cfg, 8, false);
        // Lane count, packed flag, and any config field each fork the
        // digest.
        assert_ne!(base.digest(), CompileKey::new(&c, &cfg, 16, false).digest());
        assert_ne!(base.digest(), CompileKey::new(&c, &cfg, 8, true).digest());
        let mut cfg2 = cfg.clone();
        cfg2.tiles = 4;
        assert_ne!(base.digest(), CompileKey::new(&c, &cfg2, 8, false).digest());
        let mut cfg3 = cfg.clone();
        cfg3.seed = 1;
        assert_ne!(base.digest(), CompileKey::new(&c, &cfg3, 8, false).digest());
    }

    #[test]
    fn text_round_trips_and_rejects_corruption() {
        let c = counter("ctr", 0);
        let key = CompileKey::new(&c, &PartitionConfig::with_tiles(2), 64, true);
        let text = key.to_text();
        assert_eq!(CompileKey::from_text(&text), Some(key));
        assert_eq!(CompileKey::from_text("compilekey zz 8 0 00"), None);
        assert_eq!(CompileKey::from_text("notakey 00 8 0 00"), None);
        assert_eq!(CompileKey::from_text(""), None);
        // Trailing junk is corruption, not tolerance.
        assert_eq!(
            CompileKey::from_text(&format!("{} extra", text.trim())),
            None
        );
    }
}
