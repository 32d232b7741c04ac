//! # gallium-bench — the evaluation harness
//!
//! One binary per table/figure of the paper's §6 (see DESIGN.md's
//! experiment index):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1 — lines of code before/after compilation |
//! | `fig7`   | Figure 7 — microbenchmark throughput vs packet size |
//! | `table2` | Table 2 — end-to-end latency comparison |
//! | `table3` | Table 3 — control-plane update latency |
//! | `fig8`   | Figure 8 — realistic-workload throughput (+ fast-path stats) |
//! | `fig9`   | Figure 9 — flow completion time by flow-size bin |
//! | `ablation_costmodel` | §7 cost-model discussion — lookup-weighted vs count-maximizing |
//! | `ablation_sync` | §4.3.3 — atomic update vs naive immediate writes |
//! | `ablation_constraints` | §4.2.2 — offload vs switch-resource sweep |
//! | `bench_pr2` | compile-time and telemetry-primitive perf baseline |
//! | `bench_dataplane` | §6 fast path — plan vs interpreter, zero-alloc drains, register IR, table layout, tracing; exits 1 if a gate fails |
//!
//! plus two Criterion suites (`cargo bench`): `compiler` (dependency
//! extraction, labeling, end-to-end compilation) and `dataplane`
//! (per-packet switch processing, server slow path, state-sync batches).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gallium_sim::{MbKind, MbProfile};
use gallium_telemetry::TelemetrySnapshot;

/// Print `snap` as the run's single machine-readable artifact, fenced by
/// a marker line so scripts can split it from the human-readable tables.
pub fn emit_snapshot(snap: &TelemetrySnapshot) {
    println!("--- telemetry snapshot (json) ---");
    print!("{}", snap.to_json());
}

/// Render a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Format Gbps with one decimal.
pub fn gbps(v: f64) -> String {
    format!("{v:.1}")
}

/// Format nanoseconds as microseconds with two decimals.
pub fn us(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1000.0)
}

/// Profile all five middleboxes at `frame_len`, in Table 1 order.
pub fn all_profiles(frame_len: usize) -> Vec<MbProfile> {
    MbKind::ALL
        .iter()
        .map(|k| gallium_sim::profile::profile_middlebox(*k, frame_len))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(gbps(93.456), "93.5");
        assert_eq!(us(15_980), "15.98");
        assert_eq!(row(&["a".into(), "bb".into()], &[3, 4]), "  a    bb");
    }
}
