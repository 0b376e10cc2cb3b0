//! Every figure runs: each figure function is called in quick mode into
//! a buffer and must return, print something, and — for the ones that
//! state the paper's claim — end on their `Shape check`. No numbers are
//! pinned here; `tests/experiment_shapes.rs` asserts the claims
//! themselves.

use parendi_bench::FIGURES;

/// The two outputs that describe a setup or a run rather than a claim.
const NO_SHAPE_CHECK: [&str; 2] = ["table2", "report"];

#[test]
fn every_figure_prints_in_quick_mode() {
    for (name, figure) in FIGURES {
        let mut out = Vec::new();
        figure(&mut out, true).unwrap_or_else(|e| panic!("{name}: {e}"));
        let text = String::from_utf8(out).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!text.trim().is_empty(), "{name} printed nothing");
        assert_eq!(
            text.contains("Shape check"),
            !NO_SHAPE_CHECK.contains(name),
            "{name}:\n{text}"
        );
    }
}
