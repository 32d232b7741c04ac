//! `BENCH_pr7.json` — the packet flight recorder's overhead contract.
//!
//! PR 7 adds sampled per-hop tracing, stage latency histograms, and drop
//! attribution to the dataplane. This bin carries the proof obligations:
//!
//! 1. **Tracing off is free** — with no recorder installed, the warm
//!    MazuNAT fast path must stay within noise of the PR 6 baseline
//!    (265 ns/pkt measured, 277 ns/pkt gate) and allocate nothing.
//! 2. **Tracing on is alloc-free** — with a recorder installed (both a
//!    production-style 1-in-64 and a worst-case 1-in-1 sampler), the
//!    warm drain must still allocate zero bytes per packet; ring writes
//!    are lock-free stores into preallocated slots.
//! 3. **Traces are faithful** — a sampled MazuNAT slow-path packet's
//!    trace must reconstruct the switch→server→switch hop journey, and
//!    the telemetry snapshot must export the `gallium.telemetry.trace.*`
//!    and `gallium.*.drop.*` key families.
//!
//! Usage: `bench_pr7 [--quick] [OUT_PATH]`. Exits non-zero if the
//! tracing-off gate, the zero-allocation contract, or the trace
//! reconstruction check fails.

use gallium_core::{compile, Deployment};
use gallium_middleboxes::{mazunat, INTERNAL_PORT};
use gallium_net::{FiveTuple, IpProtocol, Packet, PacketBuilder, PortId, TcpFlags};
use gallium_partition::SwitchModel;
use gallium_server::CostModel;
use gallium_switchsim::SwitchConfig;
use gallium_telemetry::names;
use gallium_telemetry::trace::{EventKind, Hop};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// PR 6's measured warm fast path (BENCH_pr6.json) and the CI gate the
/// tracing-off path must stay under.
const PR6_BASELINE_NS_PER_PKT: f64 = 265.0;
const GATE_NS_PER_PKT: f64 = 277.0;

#[path = "../counting_alloc.rs"]
mod counting_alloc;

const BURST: usize = 64;

/// A MazuNAT deployment with one warm outbound flow; returns the
/// deployment plus an ACK packet of that flow (a pure fast-path probe).
fn warm_nat() -> (Deployment, Packet) {
    let nat = mazunat::mazunat();
    let compiled = compile(&nat.prog, &SwitchModel::tofino_like()).unwrap();
    let mut d =
        Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    let t = FiveTuple {
        saddr: 0x0A00_0009,
        daddr: 0x0808_0404,
        sport: 50_123,
        dport: 443,
        proto: IpProtocol::Tcp,
    };
    let syn = PacketBuilder::tcp(t, TcpFlags(TcpFlags::SYN), 200).build(PortId(INTERNAL_PORT));
    d.inject(syn).unwrap();
    let probe = PacketBuilder::tcp(t, TcpFlags(TcpFlags::ACK), 200).build(PortId(INTERNAL_PORT));
    let before = d.stats.slow_path;
    d.inject(probe.clone()).unwrap();
    assert_eq!(d.stats.slow_path, before, "probe must stay on the switch");
    (d, probe)
}

/// `(median, best, allocs/pkt)` of the warm batch drain: pre-built bursts
/// of uniquely-owned packets through one reused emissions buffer, the
/// allocation counter read around the timed region only.
fn time_warm_drain(
    d: &mut Deployment,
    probe: &Packet,
    iters: u64,
    trials: usize,
) -> (f64, f64, f64) {
    let bursts_per_trial = (iters as usize / BURST).max(8);
    let mut out: Vec<(PortId, Packet)> = Vec::with_capacity(BURST * 2);
    let warm: Vec<Packet> = (0..BURST).map(|_| probe.deep_clone()).collect();
    d.inject_batch_into(warm, &mut out).unwrap();

    let mut runs: Vec<u64> = Vec::with_capacity(trials);
    let mut total_allocs = 0u64;
    let mut total_pkts = 0u64;
    for _ in 0..trials {
        let mut bursts: Vec<Vec<Packet>> = (0..bursts_per_trial)
            .map(|_| (0..BURST).map(|_| probe.deep_clone()).collect())
            .collect();
        let t0 = Instant::now();
        let ((), allocs) = counting_alloc::count(|| {
            for burst in bursts.drain(..) {
                out.clear();
                black_box(d.inject_batch_into(burst, &mut out).unwrap());
            }
        });
        let dt = t0.elapsed().as_nanos() as u64;
        total_allocs += allocs;
        total_pkts += (bursts_per_trial * BURST) as u64;
        runs.push(dt / (bursts_per_trial * BURST) as u64);
    }
    runs.sort_unstable();
    (
        runs[runs.len() / 2] as f64,
        runs[0] as f64,
        total_allocs as f64 / total_pkts as f64,
    )
}

/// Reconstruct a sampled MazuNAT slow-path packet's journey and verify
/// the hop sequence plus the snapshot's trace/drop key families. Returns
/// `(ok, detail)`.
fn check_trace_reconstruction() -> (bool, String) {
    let nat = mazunat::mazunat();
    let compiled = compile(&nat.prog, &SwitchModel::tofino_like()).unwrap();
    let mut d =
        Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    d.enable_flight_recorder(1, 1024);
    let syn = PacketBuilder::tcp(
        FiveTuple {
            saddr: 0x0A00_0009,
            daddr: 0x0808_0404,
            sport: 50_123,
            dport: 443,
            proto: IpProtocol::Tcp,
        },
        TcpFlags(TcpFlags::SYN),
        200,
    )
    .build(PortId(INTERNAL_PORT));
    if d.inject(syn).is_err() {
        return (false, "slow-path inject failed".to_string());
    }
    let report = match d.trace_report() {
        Some(r) => r,
        None => return (false, "no trace report".to_string()),
    };
    let t = match report.trace(0) {
        Some(t) => t,
        None => return (false, "trace 0 missing".to_string()),
    };
    let want = [
        Hop::SwitchPre,
        Hop::Transfer,
        Hop::Server,
        Hop::Transfer,
        Hop::SwitchPost,
    ];
    if t.hop_path() != want {
        return (
            false,
            format!(
                "hop path {:?} != expected:\n{}",
                t.hop_path(),
                report.render_text()
            ),
        );
    }
    for kind in [
        EventKind::Ingress,
        EventKind::ToServer,
        EventKind::ServerRx,
        EventKind::Emit,
    ] {
        if !t.has(kind) {
            return (false, format!("missing {kind:?} event"));
        }
    }
    let snap = d.telemetry_snapshot();
    for key in [
        names::TRACE_SAMPLED,
        names::TRACE_EVENTS,
        names::TRACE_RING_CAPACITY,
        names::DROP_SWITCH_MARKED,
        names::DROP_SERVER_PROGRAM,
        names::DROP_DEPLOY_SYNC_REJECTED,
    ] {
        if snap.counter(key).is_none() {
            return (false, format!("snapshot missing {key}"));
        }
    }
    if snap.histogram(names::STAGE_SERVER_NS).map(|h| h.count) != Some(1) {
        return (false, "server stage histogram not recorded".to_string());
    }
    (true, String::new())
}

fn main() {
    let mut quick = false;
    let mut out_path: Option<String> = None;
    for a in std::env::args().skip(1) {
        if a == "--quick" {
            quick = true;
        } else {
            out_path = Some(a);
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_pr7.json".to_string());
    let iters: u64 = if quick { 5_000 } else { 50_000 };
    let trials = if quick { 3 } else { 5 };

    // ---- 1. Tracing off: the PR 6 contract must hold unchanged ----------
    let (mut d_off, probe) = warm_nat();
    let (off_ns, off_best_ns, off_allocs) = time_warm_drain(&mut d_off, &probe, iters, trials);
    let off_within_gate = off_best_ns <= GATE_NS_PER_PKT;
    println!(
        "tracing off: {off_ns:.0} ns/pkt (best {off_best_ns:.0}), {off_allocs:.4} allocs/pkt \
         [PR6 baseline {PR6_BASELINE_NS_PER_PKT:.0}, gate {GATE_NS_PER_PKT:.0}]"
    );

    // ---- 2. Tracing on: 1-in-64 sampling, then worst-case 1-in-1 --------
    let (mut d_s64, probe64) = warm_nat();
    d_s64.enable_flight_recorder(64, 4096);
    let (s64_ns, s64_best_ns, s64_allocs) = time_warm_drain(&mut d_s64, &probe64, iters, trials);
    println!(
        "tracing 1-in-64: {s64_ns:.0} ns/pkt (best {s64_best_ns:.0}), {s64_allocs:.4} allocs/pkt"
    );

    let (mut d_s1, probe1) = warm_nat();
    d_s1.enable_flight_recorder(1, 4096);
    let (s1_ns, s1_best_ns, s1_allocs) = time_warm_drain(&mut d_s1, &probe1, iters, trials);
    println!("tracing 1-in-1: {s1_ns:.0} ns/pkt (best {s1_best_ns:.0}), {s1_allocs:.4} allocs/pkt");

    let zero_alloc = off_allocs == 0.0 && s64_allocs == 0.0 && s1_allocs == 0.0;
    if !zero_alloc {
        eprintln!(
            "warm drain allocated (off {off_allocs}, 1-in-64 {s64_allocs}, 1-in-1 {s1_allocs})"
        );
    }
    if !off_within_gate {
        eprintln!(
            "tracing-off fast path {off_best_ns:.0} ns/pkt exceeds the {GATE_NS_PER_PKT:.0} gate"
        );
    }

    // ---- 3. Trace reconstruction + telemetry keys -----------------------
    let (trace_ok, trace_detail) = check_trace_reconstruction();
    if trace_ok {
        println!("trace reconstruction: OK (switch.pre -> transfer -> server -> transfer -> switch.post)");
    } else {
        eprintln!("trace reconstruction FAILED: {trace_detail}");
    }

    // ---- JSON -----------------------------------------------------------
    let overhead_1_in_64 = s64_best_ns / off_best_ns;
    let overhead_1_in_1 = s1_best_ns / off_best_ns;
    let mut json = String::new();
    let _ = writeln!(json, "{{\n  \"bench\": \"pr7\",\n  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"tracing_off\": {{\"ns_per_pkt\": {off_ns:.1}, \"best_ns_per_pkt\": {off_best_ns:.1}, \
         \"allocs_per_pkt\": {off_allocs:.4}, \"pr6_baseline_ns_per_pkt\": {PR6_BASELINE_NS_PER_PKT:.0}, \
         \"gate_ns_per_pkt\": {GATE_NS_PER_PKT:.0}, \"within_gate\": {off_within_gate}}},"
    );
    let _ = writeln!(
        json,
        "  \"tracing_1_in_64\": {{\"ns_per_pkt\": {s64_ns:.1}, \"best_ns_per_pkt\": {s64_best_ns:.1}, \
         \"allocs_per_pkt\": {s64_allocs:.4}, \"overhead_vs_off\": {overhead_1_in_64:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"tracing_1_in_1\": {{\"ns_per_pkt\": {s1_ns:.1}, \"best_ns_per_pkt\": {s1_best_ns:.1}, \
         \"allocs_per_pkt\": {s1_allocs:.4}, \"overhead_vs_off\": {overhead_1_in_1:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"zero_alloc\": {zero_alloc},\n  \"trace_reconstruction_ok\": {trace_ok},"
    );
    json.push_str("  \"telemetry\": ");
    // The 1-in-1 deployment's snapshot carries every key family this PR
    // introduces — the keys CI greps for.
    let snap = d_s1.telemetry_snapshot();
    for line in snap.to_json().lines() {
        json.push_str(line);
        json.push('\n');
        json.push_str("  ");
    }
    while json.ends_with(' ') {
        json.pop();
    }
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_pr7.json");
    println!("wrote {out_path}");
    if !off_within_gate || !zero_alloc || !trace_ok {
        std::process::exit(1);
    }
}
