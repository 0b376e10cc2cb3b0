//! Exhaustive-interleaving check of the engine's per-cycle protocol
//! (`engine::sync::EpochSync`'s type docs state it): every worker runs
//! `compute(c) · publish · wait-on-neighbours · exchange(c)` per cycle
//! over double-buffered mailboxes, and nobody else synchronizes it.
//!
//! The model is abstract and dependency-free. A *buffer* is one
//! producer→consumer mailbox with two parities; `compute(c)` reads
//! parity `c & 1` of the worker's inbound buffers and writes parity
//! `(c + 1) & 1` of its outbound ones; `exchange(c)` reads parity
//! `(c + 1) & 1` of the inbound ones. Compute and exchange are not
//! atomic — each is a begin step and an end step — so two of them
//! *overlap* whenever one begins while the other is in flight. The
//! checker walks every reachable interleaving (a DFS over the vector of
//! per-worker step counters, which determines everything else) and
//! asserts, in every state:
//!
//! * no read/write or write/write overlap on one `(buffer, parity)`;
//! * every read sees exactly the epoch it is meant to (the producer's
//!   last completed write of that parity is the right cycle's);
//! * no deadlock;
//! * neighbours are never more than one cycle apart.
//!
//! And it proves it can fail: a one-directional neighbour edge and a
//! wait skipped on alternate cycles are both reported as violations.

use std::collections::HashSet;

const CYCLES: usize = 3;
/// Steps per cycle: compute begin/end, publish, wait, exchange begin/end.
const STEPS: usize = 6;

/// One protocol instance to check.
struct Model {
    workers: usize,
    /// Directed data buffers `(producer, consumer)`.
    buffers: Vec<(usize, usize)>,
    /// Who each worker waits for at its sync point.
    waits_on: Vec<Vec<usize>>,
    /// Mutant: the wait of odd cycles is a no-op.
    skip_odd_waits: bool,
}

/// A `(buffer, parity)` access set.
type Cells = Vec<(usize, usize)>;

/// What a worker at step counter `pos` has in flight, if anything.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    Compute(usize),
    Exchange(usize),
}

fn in_flight(pos: usize) -> Option<Op> {
    match pos % STEPS {
        1 => Some(Op::Compute(pos / STEPS)),
        5 => Some(Op::Exchange(pos / STEPS)),
        _ => None,
    }
}

/// Epochs `w` has published: publish is step 2 of each cycle.
fn done(pos: usize) -> usize {
    pos / STEPS + usize::from(pos % STEPS > 2)
}

/// Compute phases `w` has *completed*: compute ends at step 1 → 2.
fn computed(pos: usize) -> usize {
    pos / STEPS + usize::from(pos % STEPS >= 2)
}

impl Model {
    /// The correct protocol: neighbours are the symmetric closure of
    /// the data buffers.
    fn new(workers: usize, buffers: &[(usize, usize)]) -> Self {
        let mut waits_on = vec![Vec::new(); workers];
        for &(p, q) in buffers {
            for (a, b) in [(p, q), (q, p)] {
                if !waits_on[a].contains(&b) {
                    waits_on[a].push(b);
                }
            }
        }
        Model {
            workers,
            buffers: buffers.to_vec(),
            waits_on,
            skip_odd_waits: false,
        }
    }

    /// `(buffer, parity)` pairs `op` of worker `w` reads and writes.
    fn access(&self, w: usize, op: Op) -> (Cells, Cells) {
        let inbound = |parity: usize| {
            self.buffers
                .iter()
                .enumerate()
                .filter(move |(_, &(_, q))| q == w)
                .map(move |(b, _)| (b, parity))
                .collect::<Vec<_>>()
        };
        match op {
            Op::Compute(c) => {
                let writes = self
                    .buffers
                    .iter()
                    .enumerate()
                    .filter(|(_, &(p, _))| p == w)
                    .map(|(b, _)| (b, (c + 1) & 1))
                    .collect();
                (inbound(c & 1), writes)
            }
            Op::Exchange(c) => (inbound((c + 1) & 1), Vec::new()),
        }
    }

    /// Checks worker `w` beginning `op` in state `pos` (its own counter
    /// not yet advanced): no overlap with anything in flight, and every
    /// read sees the epoch it expects.
    fn check_begin(&self, pos: &[usize], w: usize, op: Op) -> Result<(), String> {
        let (reads, writes) = self.access(w, op);
        for (o, &p) in pos.iter().enumerate() {
            let Some(other) = in_flight(p).filter(|_| o != w) else {
                continue;
            };
            let (oreads, owrites) = self.access(o, other);
            let clash = writes
                .iter()
                .find(|x| oreads.contains(x) || owrites.contains(x))
                .or_else(|| reads.iter().find(|x| owrites.contains(x)));
            if let Some(&(b, parity)) = clash {
                return Err(format!(
                    "overlap on buffer {b} parity {parity}: worker {w} begins while worker {o} \
                     is in flight (state {pos:?})"
                ));
            }
        }
        // Freshness: compute(c) must read epoch c, exchange(c) epoch
        // c + 1, where a parity's epoch is the index of the producer's
        // last completed compute that wrote it, plus one (epoch 0 is
        // the preload; parity 1 starts unwritten).
        let want = match op {
            Op::Compute(c) => c,
            Op::Exchange(c) => c + 1,
        };
        for &(b, parity) in &reads {
            let n = computed(pos[self.buffers[b].0]);
            // Writes of `parity` so far came from computes c' < n with
            // (c' + 1) & 1 == parity; the newest is its epoch.
            let have = (0..n).rev().find(|c| (c + 1) & 1 == parity).map(|c| c + 1);
            let have = have.or((parity == 0).then_some(0));
            if have != Some(want) {
                return Err(format!(
                    "stale read: worker {w} wants epoch {want} of buffer {b} parity {parity}, \
                     finds {have:?} (state {pos:?})"
                ));
            }
        }
        Ok(())
    }

    /// Whether worker `w` may take its next step in `pos`.
    fn enabled(&self, pos: &[usize], w: usize) -> bool {
        let (c, step) = (pos[w] / STEPS, pos[w] % STEPS);
        if pos[w] == CYCLES * STEPS {
            return false;
        }
        if step != 3 || (self.skip_odd_waits && c % 2 == 1) {
            return true;
        }
        self.waits_on[w].iter().all(|&n| done(pos[n]) > c)
    }

    /// Walks every reachable state; returns how many there were and
    /// the largest cycle distance seen between *non*-neighbours.
    fn explore(&self) -> Result<(usize, usize), String> {
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut stack = vec![vec![0usize; self.workers]];
        let mut drift = 0usize;
        while let Some(pos) = stack.pop() {
            if !seen.insert(pos.clone()) {
                continue;
            }
            let cyc = |w: usize| pos[w] / STEPS;
            for a in 0..self.workers {
                for b in 0..self.workers {
                    let apart = cyc(a).abs_diff(cyc(b));
                    if self.waits_on[a].contains(&b) && self.waits_on[b].contains(&a) {
                        if apart > 1 {
                            return Err(format!(
                                "neighbours {a} and {b} are {apart} cycles apart (state {pos:?})"
                            ));
                        }
                    } else {
                        drift = drift.max(apart);
                    }
                }
            }
            let mut moved = false;
            for w in 0..self.workers {
                if !self.enabled(&pos, w) {
                    continue;
                }
                moved = true;
                let mut next = pos.clone();
                next[w] += 1;
                if let Some(op) = in_flight(next[w]) {
                    self.check_begin(&pos, w, op)?;
                }
                stack.push(next);
            }
            if !moved && pos.iter().any(|&p| p != CYCLES * STEPS) {
                return Err(format!("deadlock in state {pos:?}"));
            }
        }
        Ok((seen.len(), drift))
    }
}

#[test]
fn two_workers_exchanging_both_ways_are_safe() {
    let (states, _) = Model::new(2, &[(0, 1), (1, 0)])
        .explore()
        .expect("protocol holds");
    assert!(states > 100, "the walk must branch: {states} states");
}

/// Data flows one way only, but the neighbour relation is symmetric:
/// the producer still waits for its consumer, which is what keeps it
/// from overwriting a parity the consumer is reading.
#[test]
fn one_way_data_with_symmetric_waits_is_safe() {
    Model::new(2, &[(0, 1)]).explore().expect("protocol holds");
}

#[test]
fn three_workers_all_to_all_are_safe() {
    let all: Vec<(usize, usize)> = (0..3)
        .flat_map(|p| (0..3).filter(move |&q| q != p).map(move |q| (p, q)))
        .collect();
    let (_, drift) = Model::new(3, &all).explore().expect("protocol holds");
    assert_eq!(drift, 0, "everyone is a neighbour");
}

/// A chain 0 — 1 — 2: the ends share no buffer, are not neighbours, and
/// really do drift two cycles apart (the model is not a hidden global
/// barrier) while every adjacent pair stays within one.
#[test]
fn three_worker_chain_is_safe_and_its_ends_drift() {
    let chain = [(0, 1), (1, 0), (1, 2), (2, 1)];
    let (_, drift) = Model::new(3, &chain).explore().expect("protocol holds");
    assert_eq!(drift, 2, "non-neighbours may run two cycles apart");
}

/// A worker that exchanges with nobody never waits and never blocks
/// the others.
#[test]
fn an_isolated_worker_runs_free() {
    let (_, drift) = Model::new(3, &[(0, 1), (1, 0)])
        .explore()
        .expect("protocol holds");
    assert_eq!(drift, CYCLES, "worker 2 may finish before the others start");
}

/// The checker can fail (1): make the neighbour edge one-directional —
/// the consumer waits for its producer, the producer for nobody — and
/// the producer overwrites a parity the consumer has not finished with.
#[test]
fn a_one_directional_edge_is_reported() {
    let mut m = Model::new(2, &[(0, 1)]);
    m.waits_on[0].clear();
    let err = m.explore().expect_err("the producer must race ahead");
    assert!(
        err.contains("overlap") || err.contains("stale"),
        "unexpected violation: {err}"
    );
}

/// The checker can fail (2): skip the wait on alternate cycles.
#[test]
fn a_wait_skipped_on_alternate_cycles_is_reported() {
    for workers in [2usize, 3] {
        let ring: Vec<(usize, usize)> = (0..workers).map(|p| (p, (p + 1) % workers)).collect();
        let mut m = Model::new(workers, &ring);
        m.skip_odd_waits = true;
        let err = m.explore().expect_err("a skipped wait must be unsafe");
        assert!(
            err.contains("overlap") || err.contains("stale"),
            "unexpected violation: {err}"
        );
    }
}
