//! Pins of the six sub-second figure benches against the paper.
//!
//! One test computes the rows of Tables 2 and 3, Figures 4 and 5 and
//! the batching and handshake ablations (`semper_bench::figures`, the
//! functions the benches print) and compares them with
//! `tests/goldens/paper_figures.txt`, in the `scale_pins` style: one
//! `key=value` line per row, every printed cell on the simulated clock
//! (cycles, from which the benches' µs and ratio cells follow). Beside
//! the rows, each anchor line records the published value, its source
//! and the relative error, and each figure ends with one summary line:
//! its anchor count and largest absolute relative error.
//!
//! A mismatch prints the expected and the actual line in the golden's
//! own format. After an intentional cost-model or protocol change,
//! paste the actual lines over the expected ones and say so in
//! CHANGES.md. Anything else that moves a line is a regression.

use semper_bench::figures::{
    ablate_batching, ablate_handshake, fig4_anchors, fig4_chain_revoke, fig5_anchors,
    fig5_tree_revoke, table2_interference, table3_anchors, table3_cap_ops, Anchor, FIG5_KERNELS,
};

/// One figure's anchor lines and its summary line.
fn anchor_lines(figure: &str, anchors: &[Anchor]) -> Vec<String> {
    let mut lines: Vec<String> = anchors
        .iter()
        .map(|a| {
            format!(
                "{figure} anchor={} measured={:.4} paper={:.4} rel_err={:+.4} source=\"{}\"",
                a.name,
                a.measured,
                a.paper,
                a.rel_err(),
                a.source
            )
        })
        .collect();
    let max = anchors.iter().map(|a| a.rel_err().abs()).reduce(f64::max);
    let max = max.map_or("none".to_string(), |m| format!("{m:.4}"));
    lines.push(format!("{figure} summary anchors={} max_rel_err={max}", anchors.len()));
    lines
}

fn table2() -> Vec<String> {
    let t = table2_interference();
    let mut lines = vec![
        format!("table2 case=obtain_obtain paper=serialized both_ok={}", t.obtain_obtain_ok),
        format!(
            "table2 case=obtain_crash paper=orphaned orphans_cleaned={}",
            t.obtain_crash_orphans_cleaned
        ),
        format!(
            "table2 case=delegate_revoke paper=invalid_prevented revoke_acked={} leaked={}",
            t.delegate_revoke_acked, t.delegate_revoke_leaked
        ),
        format!(
            "table2 case=revoke_obtain paper=pointless obtain_denied={} revoke_acked={}",
            t.revoke_obtain_denied, t.revoke_obtain_acked
        ),
        format!(
            "table2 case=revoke_revoke paper=incomplete_prevented both_acked={} caps_left={}",
            t.revoke_revoke_acked, t.revoke_revoke_caps_left
        ),
    ];
    // Table 2's cells are outcomes, not numbers: each row above names
    // the paper's cell, and the function asserts it.
    lines.extend(anchor_lines("table2", &[]));
    lines
}

fn table3() -> Vec<String> {
    let rows = table3_cap_ops();
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let m3 = r.m3.map_or(String::new(), |(m3, p)| format!(" m3={m3} m3_paper={p}"));
            format!(
                "table3 op={} scope={} cycles={} paper={}{m3}",
                r.op.to_lowercase(),
                r.scope.to_lowercase(),
                r.cycles,
                r.paper
            )
        })
        .collect();
    lines.extend(anchor_lines("table3", &table3_anchors(&rows)));
    lines
}

fn fig4() -> Vec<String> {
    let rows = fig4_chain_revoke();
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!("fig4 len={} local={} spanning={} m3={}", r.len, r.local, r.spanning, r.m3)
        })
        .collect();
    lines.extend(anchor_lines("fig4", &fig4_anchors(&rows)));
    lines
}

fn fig5() -> Vec<String> {
    let rows = fig5_tree_revoke();
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut line = format!("fig5 children={}", r.children);
            for (k, cycles) in FIG5_KERNELS.iter().zip(r.cycles) {
                line.push_str(&format!(" kernels_1+{k}={cycles}"));
            }
            line
        })
        .collect();
    lines.extend(anchor_lines("fig5", &fig5_anchors(&rows)));
    lines
}

fn batching() -> Vec<String> {
    let mut lines: Vec<String> = ablate_batching()
        .iter()
        .map(|r| {
            format!(
                "ablate_batching children={} kernels=1+{} plain={} batched={}",
                r.children, r.kernels, r.plain, r.batched
            )
        })
        .collect();
    lines.extend(anchor_lines("ablate_batching", &[]));
    lines
}

fn handshake() -> Vec<String> {
    let h = ablate_handshake();
    let mut lines = vec![format!(
        "ablate_handshake two_way_leaks={} one_way_leaks={} two_way_cycles={} one_way_cycles={}",
        h.two_way_leaks, h.one_way_leaks, h.two_way_cycles, h.one_way_cycles
    )];
    lines.extend(anchor_lines("ablate_handshake", &[]));
    lines
}

#[test]
fn paper_figures_match_golden() {
    let actual: Vec<String> = [table2, table3, fig4, fig5, batching, handshake]
        .into_iter()
        .flat_map(|figure| figure())
        .collect();
    let expected: Vec<&str> = include_str!("goldens/paper_figures.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();

    let mut report = String::new();
    for i in 0..expected.len().max(actual.len()) {
        let (e, a) = (expected.get(i).copied(), actual.get(i).map(String::as_str));
        if e != a {
            report.push_str(&format!(
                "expected: {}\n  actual: {}\n",
                e.unwrap_or("(no line)"),
                a.unwrap_or("(no line)")
            ));
        }
    }
    assert!(
        report.is_empty(),
        "paper figure rows differ from crates/bench/tests/goldens/paper_figures.txt:\n{report}\
         If a cost-model or protocol change moved them on purpose, paste the actual \
         lines over the expected ones and say so in CHANGES.md."
    );
}
