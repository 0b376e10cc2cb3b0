//! Static bytecode statistics: the opcode/width and adjacent-pair
//! histograms the engine compiles from its tile programs, promoted
//! from an opt-in stderr dump to a first-class queryable type so
//! report tools (`figures report`) can print top-N opcodes without
//! re-parsing log output.

/// One opcode/width bucket of the static histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpcodeCount {
    pub name: String,
    /// The width class the compiler bucketed the opcode under (bit
    /// width for sized kernels, word counts for block copies).
    pub width: u32,
    /// Static occurrences across all tile programs.
    pub count: u64,
}

/// One adjacent-opcode-pair bucket (fusion candidates).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairCount {
    pub first: String,
    pub second: String,
    pub count: u64,
}

/// Aggregate static statistics of a compiled engine's bytecode.
#[derive(Clone, Debug, Default)]
pub struct CodeStats {
    /// Tile programs aggregated.
    pub tiles: usize,
    /// Total static **simulated operations**: a run instruction counts
    /// once per element.
    pub total_ops: u64,
    /// Instructions the hot loop dispatches on (a run is one); equal to
    /// `total_ops` when the code has no runs.
    pub dispatches: u64,
    /// Run-length histogram of the fused single-word instructions,
    /// `(length, instructions)` ascending by length: a run under its
    /// element count, an instruction left alone under 1.
    pub run_lengths: Vec<(u32, u64)>,
    /// Opcode/width buckets of the simulated operations, descending by
    /// count (ties by name).
    pub opcodes: Vec<OpcodeCount>,
    /// Adjacent pairs of dispatched instructions, descending by count
    /// (ties by name).
    pub pairs: Vec<PairCount>,
}

impl CodeStats {
    /// Builds the sorted stats from raw histogram buckets.
    pub fn from_histograms(
        tiles: usize,
        total_ops: u64,
        dispatches: u64,
        run_lengths: impl IntoIterator<Item = (u32, u64)>,
        opcodes: impl IntoIterator<Item = ((String, u32), u64)>,
        pairs: impl IntoIterator<Item = ((String, String), u64)>,
    ) -> Self {
        let mut opcodes: Vec<OpcodeCount> = opcodes
            .into_iter()
            .map(|((name, width), count)| OpcodeCount { name, width, count })
            .collect();
        opcodes.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.name.cmp(&b.name))
                .then(a.width.cmp(&b.width))
        });
        let mut pairs: Vec<PairCount> = pairs
            .into_iter()
            .map(|((first, second), count)| PairCount {
                first,
                second,
                count,
            })
            .collect();
        pairs.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.first.cmp(&b.first))
                .then_with(|| a.second.cmp(&b.second))
        });
        let mut run_lengths: Vec<(u32, u64)> = run_lengths.into_iter().collect();
        run_lengths.sort_unstable();
        CodeStats {
            tiles,
            total_ops,
            dispatches,
            run_lengths,
            opcodes,
            pairs,
        }
    }

    /// Mean operations per fused single-word instruction (0 when the
    /// code has none; 1 when it has no runs).
    pub fn mean_run_length(&self) -> f64 {
        let runs: u64 = self.run_lengths.iter().map(|&(_, c)| c).sum();
        let elems: u64 = self.run_lengths.iter().map(|&(l, c)| l as u64 * c).sum();
        elems as f64 / runs.max(1) as f64
    }

    /// The `n` most frequent opcode buckets.
    pub fn top_opcodes(&self, n: usize) -> &[OpcodeCount] {
        &self.opcodes[..self.opcodes.len().min(n)]
    }

    /// The `n` most frequent adjacent pairs.
    pub fn top_pairs(&self, n: usize) -> &[PairCount] {
        &self.pairs[..self.pairs.len().min(n)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histograms_sort_descending_with_stable_ties() {
        let s = CodeStats::from_histograms(
            4,
            100,
            90,
            vec![(3, 2), (1, 6)],
            vec![
                (("and1".to_string(), 8), 5),
                (("xor1".to_string(), 1), 9),
                (("add1".to_string(), 32), 5),
            ],
            vec![
                (("and1".to_string(), "xor1".to_string()), 2),
                (("xor1".to_string(), "and1".to_string()), 7),
            ],
        );
        assert_eq!(s.tiles, 4);
        assert_eq!(s.total_ops, 100);
        assert_eq!(s.dispatches, 90);
        assert_eq!(s.run_lengths, [(1, 6), (3, 2)]);
        assert_eq!(s.mean_run_length(), 1.5);
        let names: Vec<&str> = s.opcodes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["xor1", "add1", "and1"]);
        assert_eq!(s.top_opcodes(2).len(), 2);
        assert_eq!(s.top_opcodes(10).len(), 3);
        assert_eq!(s.pairs[0].second, "and1");
        assert_eq!(s.top_pairs(1).len(), 1);
    }
}
