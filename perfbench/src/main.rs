//! The repository benchmark: seeded traffic mixes through
//! `gallium_core::Deployment`, end-to-end metrics from untraced runs and
//! a per-layer split from traced runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nat-established|lb-short-flows|conga-five-mb> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, closed loop: every inject call returns
//! before the next is made, so latency is service time with no queueing.
//! Human-readable lines go to standard output first; the last line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits non-zero, printing no result, on bad arguments or when a
//! deployment cannot be stood up.

mod alloc;
mod run;
mod stats;
mod traffic;

use run::{Layer, RunTotals};
use stats::{median, LogHist};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use traffic::{Sizes, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Rounds every run makes even when `--seconds` is shorter, so set-up
/// time is always a median of several stand-ups.
const MIN_ROUNDS: usize = 3;

/// Packets of the last traced pass whose spans are written out (ids
/// number the packets of all the workload's middleboxes in turn).
const SPANS_WRITTEN: u32 = 1 << 17;

/// End-to-end metrics (untraced run): name and unit.
const END_TO_END: [(&str, &str); 8] = [
    ("throughput_mpps", "Mpkt/s"),
    ("latency_p50_ns", "ns"),
    ("latency_p99_ns", "ns"),
    ("setup_s", "s"),
    ("fast_path_frac", "ratio"),
    ("server_cycles_saved_per_pkt", "cycles"),
    ("delivered_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run): name and unit.
const PER_LAYER: [(&str, &str); 41] = [
    ("compiler.compile_ms", "ms"),
    ("compiler.server_inst_frac", "ratio"),
    ("switchsim.load_ms", "ms"),
    ("switchsim.load.micro_ops", "count"),
    ("control.configure_ms", "ms"),
    ("switchsim.pre.calls", "count"),
    ("switchsim.pre.ns_p50", "ns"),
    ("switchsim.pre.ns_p99", "ns"),
    ("switchsim.pre.busy_frac", "ratio"),
    ("switchsim.pre.after_sync_ns_p50", "ns"),
    ("switchsim.post.calls", "count"),
    ("switchsim.post.ns_p50", "ns"),
    ("switchsim.post.busy_frac", "ratio"),
    ("switchsim.table.probes_per_pkt", "1/pkt"),
    ("switchsim.table.hit_frac", "ratio"),
    ("switchsim.table.rebuilds", "count"),
    ("switchsim.table.live_entries", "count"),
    ("transfer.bytes_per_slow_pkt", "B"),
    ("server.calls", "count"),
    ("server.ns_p50", "ns"),
    ("server.ns_p99", "ns"),
    ("server.busy_frac", "ratio"),
    ("server.sync_ops_per_call", "count"),
    ("server.cycles_per_call", "cycles"),
    ("server.cycles_per_pkt", "cycles"),
    ("control.batches", "count"),
    ("control.ops", "count"),
    ("control.ns_p50", "ns"),
    ("control.busy_frac", "ratio"),
    ("control.modeled_visible_ns_p99", "ns"),
    ("deployment.residual_ns_per_pkt", "ns"),
    ("deployment.allocs_per_pkt", "1/pkt"),
    ("deployment.single_ns_per_pkt_mean", "ns"),
    ("deployment.trace_overhead_frac", "ratio"),
    ("deployment.slow_path_frac", "ratio"),
    ("deployment.failed_frac", "ratio"),
    ("deployment.mb.mazunat.ns_per_pkt", "ns"),
    ("deployment.mb.lb.ns_per_pkt", "ns"),
    ("deployment.mb.firewall.ns_per_pkt", "ns"),
    ("deployment.mb.proxy.ns_per_pkt", "ns"),
    ("deployment.mb.trojan.ns_per_pkt", "ns"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        traffic::WORKLOADS.join("|")
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Traffic properties of the mix, as measured in this run.
fn describe(w: &Workload, t: &RunTotals, out: &mut String) {
    let n = w.stream.len() as f64;
    let small = w
        .stream
        .iter()
        .filter(|p| p.len == traffic::SMALL_FRAME)
        .count() as f64;
    let control = w.stream.iter().filter(|p| p.is_control()).count() as f64;
    let batch_passes = t.batch_passes.max(1) as f64;
    let injected = n * w.mbs.len() as f64 * batch_passes;
    let _ = writeln!(
        out,
        "traffic: {} middlebox(es) [{}], {} packets per middlebox, {} flows, \
         {:.2} packets/flow",
        w.mbs.len(),
        w.mbs.iter().map(|m| m.label).collect::<Vec<_>>().join(", "),
        w.stream.len(),
        w.flows,
        ratio(n, w.flows as f64)
    );
    let _ = writeln!(
        out,
        "traffic: frames {:.2}% 64 B / {:.2}% 1500 B, SYN/FIN {:.3}%, \
         slow path {:.4}%, {} live switch-table entries after a pass",
        100.0 * small / n,
        100.0 * (n - small) / n,
        100.0 * control / n,
        100.0 * ratio(t.counters.to_server as f64, injected),
        t.counters.live as f64 / batch_passes
    );
}

/// Wall-clock metrics come from the least time the run measured at each
/// stream position. Every pass replays the same stream on a freshly
/// stood-up deployment, so a burst or packet does the same work in every
/// pass, and its least time over the passes is its cost with the
/// least interference: throughput is the measured packets of a pass over
/// the summed least call time of each burst, and the latency
/// percentiles are taken over each packet's least service time.
/// Interference on a shared host comes in stretches that slow whole
/// passes by up to twice; a run sees enough quiet moments that the
/// least times repeat from run to run, where any statistic over whole
/// passes moves with the mix of states. `setup_s` is the median over
/// stand-ups.
fn end_to_end(
    w: &Workload,
    t: &RunTotals,
    refs: &[run::Reference],
) -> Result<Vec<(&'static str, f64)>, String> {
    let batch_passes = t.batch_passes.max(1) as f64;
    let pass_pkts = t.batch_pkts as f64 / batch_passes;
    let least_batch_ns: u64 = t.least_burst_ns.iter().flatten().sum();
    let mut latency = LogHist::default();
    for &v in t.least_latency_ns.iter().flatten() {
        latency.record(u64::from(v));
    }
    let setups: Vec<f64> = t.setups.iter().map(|s| s.total_s()).collect();
    // The exact metrics cover every packet of every batched pass.
    let baseline = refs.iter().map(|r| r.cycles).sum::<u64>() as f64 * batch_passes;
    let c = &t.counters;
    let pkts = (w.stream.len() * w.mbs.len()) as f64 * batch_passes;
    Ok(vec![
        (
            "throughput_mpps",
            ratio(pass_pkts * 1e3, least_batch_ns as f64),
        ),
        ("latency_p50_ns", latency.quantile(0.50)),
        ("latency_p99_ns", latency.quantile(0.99)),
        ("setup_s", median(&setups)),
        ("fast_path_frac", 1.0 - ratio(c.to_server as f64, pkts)),
        (
            "server_cycles_saved_per_pkt",
            ratio(baseline - c.server_cycles as f64, pkts),
        ),
        (
            "delivered_frac",
            1.0 - ratio(t.counts.failed as f64, t.counts.attempted as f64),
        ),
        ("peak_rss_mb", peak_rss_mb()?),
    ])
}

fn per_layer(w: &Workload, t: &RunTotals, shape: (f64, u64)) -> Vec<(&'static str, f64)> {
    let l = &t.layers;
    let passes = t.traced_passes.max(1) as f64;
    let dur = |x: Layer| &l.dur[x as usize];
    let busy_total = dur(Layer::Deployment).sum() as f64;
    let busy = |x: Layer| ratio(l.self_ns[x as usize] as f64, busy_total);
    let calls = |x: Layer| dur(x).count() as f64 / passes;
    let setup_ms = |f: fn(&run::SetupTimes) -> u64| {
        let v: Vec<f64> = t.setups.iter().map(|s| f(s) as f64 * 1e-6).collect();
        median(&v)
    };
    let c = &t.traced_counters;
    let e = &t.extras;
    let pkts = dur(Layer::Deployment).count() as f64;
    let per_mb_pkts = t.batch_pkts as f64 / w.mbs.len().max(1) as f64;
    let mb_ns = |label: &str| {
        w.mbs
            .iter()
            .position(|m| m.label == label)
            .map_or(0.0, |i| ratio(t.batch[i].ns as f64, per_mb_pkts))
    };
    let allocs: u64 = t.batch.iter().map(|b| b.allocs).sum();
    vec![
        ("compiler.compile_ms", setup_ms(|s| s.compile_ns)),
        ("compiler.server_inst_frac", shape.0),
        ("switchsim.load_ms", setup_ms(|s| s.load_ns)),
        ("switchsim.load.micro_ops", shape.1 as f64),
        ("control.configure_ms", setup_ms(|s| s.configure_ns)),
        ("switchsim.pre.calls", calls(Layer::Pre)),
        ("switchsim.pre.ns_p50", dur(Layer::Pre).quantile(0.50)),
        ("switchsim.pre.ns_p99", dur(Layer::Pre).quantile(0.99)),
        ("switchsim.pre.busy_frac", busy(Layer::Pre)),
        (
            "switchsim.pre.after_sync_ns_p50",
            l.pre_after_sync.quantile(0.50),
        ),
        ("switchsim.post.calls", calls(Layer::Post)),
        ("switchsim.post.ns_p50", dur(Layer::Post).quantile(0.50)),
        ("switchsim.post.busy_frac", busy(Layer::Post)),
        (
            "switchsim.table.probes_per_pkt",
            ratio(c.probes as f64, pkts),
        ),
        (
            "switchsim.table.hit_frac",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
        ),
        ("switchsim.table.rebuilds", c.rebuilds as f64 / passes),
        ("switchsim.table.live_entries", c.live as f64 / passes),
        (
            "transfer.bytes_per_slow_pkt",
            ratio(e.transfer_bytes as f64, c.to_server as f64),
        ),
        ("server.calls", calls(Layer::Server)),
        ("server.ns_p50", dur(Layer::Server).quantile(0.50)),
        ("server.ns_p99", dur(Layer::Server).quantile(0.99)),
        ("server.busy_frac", busy(Layer::Server)),
        (
            "server.sync_ops_per_call",
            ratio(c.sync_ops as f64, c.server_rx as f64),
        ),
        (
            "server.cycles_per_call",
            ratio(c.server_cycles as f64, c.server_rx as f64),
        ),
        ("server.cycles_per_pkt", ratio(c.server_cycles as f64, pkts)),
        ("control.batches", e.control_batches as f64 / passes),
        ("control.ops", e.control_ops as f64 / passes),
        ("control.ns_p50", dur(Layer::Control).quantile(0.50)),
        ("control.busy_frac", busy(Layer::Control)),
        (
            "control.modeled_visible_ns_p99",
            e.modeled_visible.quantile(0.99),
        ),
        (
            "deployment.residual_ns_per_pkt",
            ratio(l.self_ns[Layer::Deployment as usize] as f64, pkts),
        ),
        (
            "deployment.allocs_per_pkt",
            ratio(allocs as f64, t.batch_pkts as f64),
        ),
        ("deployment.single_ns_per_pkt_mean", t.latency.mean()),
        (
            "deployment.trace_overhead_frac",
            ratio(dur(Layer::Deployment).mean(), t.latency.mean()) - 1.0,
        ),
        ("deployment.slow_path_frac", ratio(c.to_server as f64, pkts)),
        (
            "deployment.failed_frac",
            ratio(t.counts.failed as f64, t.counts.attempted as f64),
        ),
        ("deployment.mb.mazunat.ns_per_pkt", mb_ns("mazunat")),
        ("deployment.mb.lb.ns_per_pkt", mb_ns("lb")),
        ("deployment.mb.firewall.ns_per_pkt", mb_ns("firewall")),
        ("deployment.mb.proxy.ns_per_pkt", mb_ns("proxy")),
        ("deployment.mb.trojan.ns_per_pkt", mb_ns("trojan")),
    ]
}

/// Write the spans of the last traced pass (first [`SPANS_WRITTEN`]
/// packets) as tab-separated text; returns the file written.
fn write_spans(workload: &str, t: &RunTotals) -> Result<String, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.tsv"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    writeln!(w, "packet\tspan\tparent\tname\tstart_ns\tend_ns").map_err(io)?;
    for (i, s) in t.last_spans.iter().enumerate() {
        if s.packet >= SPANS_WRITTEN {
            continue;
        }
        let parent = if s.parent == run::NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{}\t{i}\t{parent}\t{}\t{}\t{}",
            s.packet,
            s.layer.name(),
            s.start,
            s.end
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)?;
    Ok(path.display().to_string())
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn bench(args: &Args) -> Result<String, String> {
    let sizes = Sizes::default();
    let w = traffic::build(&args.workload, args.seed, &sizes)
        .ok_or_else(|| format!("unknown workload `{}`\n{}", args.workload, usage()))?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench: workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let refs = w
        .mbs
        .iter()
        .map(|mb| run::reference(mb, &w.stream))
        .collect::<Result<Vec<_>, _>>()?;
    let shape = run::static_shape(&w)?;
    let t = run::run(&w, &refs, args.seconds, MIN_ROUNDS, args.trace)?;
    describe(&w, &t, &mut report);
    let _ = writeln!(
        report,
        "rounds: {} batched passes, {} set-ups, {} latency samples, {} traced passes",
        t.batch_passes,
        t.setups.len(),
        t.latency.count(),
        t.traced_passes
    );
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let pass_pkts = t.batch_pkts as f64 / t.batch_passes.max(1) as f64;
    let pass_ns_per_pkt: Vec<f64> = t
        .pass_batch_ns
        .iter()
        .map(|&ns| ratio(ns as f64, pass_pkts))
        .collect();
    let _ = writeln!(
        report,
        "per batched pass, ns/pkt: {}",
        show(&pass_ns_per_pkt)
    );
    let _ = writeln!(report, "per per-packet pass, p50 ns: {}", show(&t.pass_p50));
    let _ = writeln!(report, "per per-packet pass, p99 ns: {}", show(&t.pass_p99));
    let _ = writeln!(
        report,
        "least time per burst, summed, ns/pkt: {:.1}",
        ratio(
            t.least_burst_ns.iter().flatten().sum::<u64>() as f64,
            pass_pkts
        )
    );
    let (table, values) = if args.trace {
        let path = write_spans(w.name, &t)?;
        let _ = writeln!(report, "spans: {path}");
        (&PER_LAYER[..], per_layer(&w, &t, shape))
    } else {
        (&END_TO_END[..], end_to_end(&w, &t, &refs)?)
    };
    let mut correct = t.mismatches.is_empty();
    for m in t.mismatches.iter().take(20) {
        let _ = writeln!(report, "OUTPUT CHECK FAILED: {m}");
    }
    assert_eq!(table.len(), values.len(), "one value per declared metric");
    let metrics: Vec<(&str, &str, f64)> = table
        .iter()
        .zip(&values)
        .map(|(&(name, unit), &(got, v))| {
            assert_eq!(name, got, "metrics computed in declaration order");
            (name, unit, v)
        })
        .collect();
    for &(name, unit, v) in &metrics {
        if !v.is_finite() {
            correct = false;
            let _ = writeln!(report, "NON-FINITE METRIC: {name}");
        }
        let _ = writeln!(report, "{name:<40} {v:>16.4} {unit}");
    }
    let metrics: Vec<(&str, &str, f64)> = metrics
        .into_iter()
        .map(|(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 }))
        .collect();
    report.push_str(&json_line(
        correct,
        t.counts.attempted,
        t.counts.failed,
        &metrics,
    ));
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(&[
            "--workload",
            "lb-short-flows",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "lb-short-flows".into(),
                seed: 3,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&args(&["--seed", "3"])).is_err());
        assert!(parse_args(&args(&["--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--seconds"])).is_err());
    }

    /// The metric tables printed here are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let declared: Vec<(String, String)> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|chunk| {
                    let name = chunk[..chunk.find('"').expect("name closes")].to_string();
                    let u = chunk.find("\"unit\": \"").expect("unit present") + 9;
                    let unit = chunk[u..u + chunk[u..].find('"').expect("unit closes")].to_string();
                    (name, unit)
                })
                .collect();
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{section}");
        }
    }
}
