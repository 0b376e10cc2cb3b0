//! Shared random-circuit generator for integration tests.

use parendi_rtl::{Builder, Circuit, Signal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random but well-formed circuit from a seed: a soup of
/// registers, arrays and combinational ops with data-dependent control.
#[allow(dead_code)]
pub fn random_circuit(seed: u64, regs: usize, ops: usize) -> Circuit {
    random_circuit_inner(seed, regs, ops, 0)
}

/// Like [`random_circuit`], but with `inputs` primary inputs that are
/// *guaranteed* to reach every register's next-value (each register's
/// feedback is xored with an input-derived value), so per-lane stimulus
/// divergence is observable in every lane's architectural state —
/// the stimulus side of the gang-engine equivalence tests.
#[allow(dead_code)]
pub fn random_circuit_io(seed: u64, regs: usize, ops: usize, inputs: usize) -> Circuit {
    assert!(inputs > 0, "use random_circuit for the input-free variant");
    random_circuit_inner(seed, regs, ops, inputs)
}

/// Two islands with no signal between them: each a small nonlinear
/// register soup closed over its own state. Compiled onto two tiles
/// and two workers, the workers share no buffer.
#[allow(dead_code)]
pub fn two_islands() -> Circuit {
    let mut b = Builder::new("islands");
    for half in 0..2u64 {
        let regs: Vec<_> = (0..5u64)
            .map(|i| b.reg(format!("h{half}r{i}"), 32, 0x9e37 * (half + 1) + i))
            .collect();
        for (i, r) in regs.iter().enumerate() {
            let (x, y) = (regs[(i + 1) % 5].q(), regs[(i + 3) % 5].q());
            let m = b.mul(x, y);
            let a = b.add(r.q(), m);
            let n = b.xor(a, x);
            b.connect(*r, n);
        }
    }
    b.finish().expect("islands validate")
}

fn random_circuit_inner(seed: u64, regs: usize, ops: usize, inputs: usize) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Builder::new(format!("rand{seed}"));
    let widths = [1u32, 7, 8, 16, 31, 32, 64, 65, 96];
    let mut pool: Vec<Signal> = Vec::new();
    let regs: Vec<_> = (0..regs)
        .map(|i| {
            let w = widths[rng.random_range(0..widths.len())];
            let r = b.reg(format!("r{i}"), w, rng.random::<u64>());
            pool.push(r.q());
            r
        })
        .collect();
    // A couple of memories with write traffic derived from registers.
    let mem = b.array("mem", 32, 32);
    let seed_sig = b.lit(32, rng.random::<u64>());
    pool.push(seed_sig);
    // Primary inputs (per-lane stimulus hooks) of assorted widths; they
    // join the pool and are folded into every register below.
    let in_widths = [1u32, 8, 32, 64];
    let in_sigs: Vec<Signal> = (0..inputs)
        .map(|i| {
            let w = in_widths[i % in_widths.len()];
            let s = b.input(format!("in{i}"), w);
            pool.push(s);
            s
        })
        .collect();

    let pick = |b: &mut Builder, pool: &[Signal], rng: &mut StdRng, width: u32| -> Signal {
        // Find a pool signal and adapt its width.
        let s = pool[rng.random_range(0..pool.len())];
        match s.width().cmp(&width) {
            std::cmp::Ordering::Equal => s,
            std::cmp::Ordering::Less => {
                if rng.random_bool(0.5) {
                    b.zext(s, width)
                } else {
                    b.sext(s, width)
                }
            }
            std::cmp::Ordering::Greater => b.slice(s, width - 1, 0),
        }
    };

    for _ in 0..ops {
        let w = widths[rng.random_range(0..widths.len())];
        let a = pick(&mut b, &pool, &mut rng, w);
        let c = pick(&mut b, &pool, &mut rng, w);
        let v = match rng.random_range(0..12) {
            0 => b.add(a, c),
            1 => b.sub(a, c),
            2 => b.mul(a, c),
            3 => b.and(a, c),
            4 => b.or(a, c),
            5 => b.xor(a, c),
            6 => {
                let sh = b.lit(8, rng.random_range(0..=(w as u64 + 4)));
                b.shl(a, sh)
            }
            7 => {
                let sh = b.lit(8, rng.random_range(0..=(w as u64 + 4)));
                b.ashr(a, sh)
            }
            8 => {
                let sel = b.bit(a, rng.random_range(0..w));
                b.mux(sel, a, c)
            }
            9 => {
                let lt = b.lt_s(a, c);
                b.zext(lt, w)
            }
            10 => {
                let idx = pick(&mut b, &pool, &mut rng, 5);
                let rd = b.array_read(mem, idx);
                if w == 32 {
                    rd
                } else if w < 32 {
                    b.slice(rd, w - 1, 0)
                } else {
                    b.zext(rd, w)
                }
            }
            _ => {
                let r = b.red_xor(a);
                b.zext(r, w)
            }
        };
        pool.push(v);
    }
    // Connect every register to a random pool value of its width, and
    // expose it through a primary output (exercises output fibers and
    // the BSP engine's `peek_output` path). With inputs present, every
    // register's next-value folds one in, so distinct stimulus provably
    // diverges the state.
    for (i, r) in regs.iter().enumerate() {
        let mut v = pick(&mut b, &pool, &mut rng, r.q().width());
        if !in_sigs.is_empty() {
            let inp = in_sigs[i % in_sigs.len()];
            let adapted = match inp.width().cmp(&v.width()) {
                std::cmp::Ordering::Equal => inp,
                std::cmp::Ordering::Less => b.zext(inp, v.width()),
                std::cmp::Ordering::Greater => b.slice(inp, v.width() - 1, 0),
            };
            v = b.xor(v, adapted);
        }
        b.connect(*r, v);
        b.output(format!("o_r{i}"), r.q());
    }
    // One output on a random combinational value (a cone that may read
    // several registers, possibly across tiles).
    let mix = pick(&mut b, &pool, &mut rng, 32);
    b.output("o_mix", mix);
    // One write port on the memory.
    let idx = pick(&mut b, &pool, &mut rng, 5);
    let data = pick(&mut b, &pool, &mut rng, 32);
    let en = pick(&mut b, &pool, &mut rng, 1);
    b.array_write(mem, idx, data, en);
    b.finish().expect("random circuit must validate")
}
