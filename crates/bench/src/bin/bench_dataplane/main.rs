//! `bench_dataplane` — the dataplane harness behind the §6 fast-path
//! claims: the compiled execution plan against the reference AST
//! interpreter, allocation-free warm drains, the register-IR expression
//! compiler, perfect-hash match tables, and flight-recorder overhead.
//!
//! One run gathers an [`Observed`] record and one [`Verdict`] judges it,
//! gate by gate:
//!
//! 1. **Differential suite** — every packaged middlebox deployed on the
//!    compiled plan and on the AST interpreter, driven with the same
//!    pseudo-random stream, must agree on every observable (emissions,
//!    counters, state, evictions). A cache-mode row covers the §7 replay
//!    path, a batch row checks `inject_batch_into` ≡ per-packet `inject`
//!    (the batch walk must not reorder or coalesce), and a fused ≡ unfused
//!    row compares plans built with and without superinstruction fusion.
//! 2. **Zero allocations** — every middlebox's warm `inject_batch_into`
//!    drain, and the MazuNAT drain with a 1-in-64 and a 1-in-1 flight
//!    recorder installed, must make no heap allocation, as counted by this
//!    process's counting global allocator.
//! 3. **Trace reconstruction** — a sampled MazuNAT slow-path packet's
//!    trace must replay the switch → server → switch hop journey.
//! 4. **Exact work counters** — these do not wobble, so they are gated
//!    exactly: the MazuNAT plan's register-IR build stats are pinned; over
//!    the timed MazuNAT window the perfect-hash probe count must equal the
//!    packets timed × the probes one packet makes, with zero full layout
//!    builds; and the snapshot must carry every telemetry key dashboards
//!    scrape.
//! 5. **Timing bounds** — the MazuNAT best-of-trials per-packet `inject`
//!    must stay under 265 ns/pkt and the batched drain under 210 ns/pkt.
//!    Both are host-dependent. Scheduler noise only ever inflates a trial,
//!    so the best trial is the robust estimator on shared machines.
//!
//! Usage: `bench_dataplane [--quick] [OUT_PATH]` (default
//! `BENCH_dataplane.json`). `--quick` shrinks stream lengths and timing
//! iterations; every gate still runs. Prints one line per gate and a final
//! `verdict:` line, writes the JSON artifact, and exits 1 if any gate
//! fails.

mod counting_alloc;

use gallium_core::{compile, CompiledMiddlebox, Deployment};
use gallium_middleboxes::{firewall, lb, mazunat, minilb, proxy, trojan};
use gallium_middleboxes::{EXTERNAL_PORT, INTERNAL_PORT};
use gallium_mir::{Program, StateId, StateStore};
use gallium_net::{FiveTuple, IpProtocol, Packet, PacketBuilder, PortId, TcpFlags};
use gallium_partition::SwitchModel;
use gallium_server::CostModel;
use gallium_switchsim::{ExecPlan, LoadError, PlanExprStats, SwitchConfig};
use gallium_telemetry::trace::{EventKind, Hop};
use gallium_telemetry::{json_escape, names, TelemetrySnapshot};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Bound on the MazuNAT per-packet `inject` best-of-trials (ns/pkt): the
/// postfix-pool plan's measured fast path (BENCH_pr6.json).
const PLAN_BEST_BOUND_NS: f64 = 265.0;

/// Bound on the MazuNAT batched-drain best-of-trials (ns/pkt): the
/// register-IR plan's measured batch path (BENCH_pr8.json).
const BATCH_BEST_BOUND_NS: f64 = 210.0;

/// The MazuNAT plan's register-IR build stats. A lowering change that
/// moves any of them must re-pin them here.
const PINNED_EXPR: PlanExprStats = PlanExprStats {
    micro_ops: 20,
    regs: 4,
    folded: 13,
    cse_hits: 15,
    fused: 4,
    dead: 11,
};

/// Telemetry keys dashboards scrape. The traced MazuNAT snapshot (plan
/// build, register IR, per-table, batch, flight-recorder, drop, and stage
/// families) must carry every one.
const REQUIRED_KEYS: [&str; 21] = [
    "gallium.switchsim.plan.build_ns",
    "gallium.switchsim.plan.compiled",
    "gallium.switchsim.plan.ops",
    "gallium.switchsim.plan.expr.micro_ops",
    "gallium.switchsim.plan.expr.regs",
    "gallium.switchsim.plan.expr.const_folded",
    "gallium.switchsim.plan.expr.cse_hits",
    "gallium.switchsim.plan.expr.fused",
    "gallium.switchsim.plan.expr.dead_ops",
    "gallium.switchsim.table.nat_in.hits",
    "gallium.switchsim.table.nat_out.hits",
    "gallium.switchsim.table.rebuilds",
    "gallium.switchsim.table.probe",
    "gallium.core.deployment.batches",
    "gallium.core.deployment.batch_pkts",
    "gallium.telemetry.trace.sampled",
    "gallium.telemetry.trace.events",
    "gallium.telemetry.trace.ring_capacity",
    "gallium.switchsim.switch.drop.marked",
    "gallium.server.drop.program",
    "gallium.core.deployment.stage.fast_path_ns",
];

/// Packets per `inject_batch_into` burst.
const BURST: usize = 64;

/// Deterministic splitmix-style generator so both engines (and every run)
/// see byte-identical traffic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn tuple(saddr: u32, daddr: u32, sport: u16, dport: u16) -> FiveTuple {
    FiveTuple {
        saddr,
        daddr,
        sport,
        dport,
        proto: IpProtocol::Tcp,
    }
}

/// A 200 B TCP segment of `t` arriving on the internal port.
fn tcp(t: FiveTuple, flags: u8) -> Packet {
    PacketBuilder::tcp(t, TcpFlags(flags), 200).build(PortId(INTERNAL_PORT))
}

/// The differential stream: repeated flows, fresh flows, FIN teardowns,
/// the trojan stage ports, the proxy intercept port, both networks, and
/// periodic NAT external-range probes.
fn traffic(n: usize) -> Vec<Packet> {
    let mut r = Rng(7);
    let dports = [22u16, 21, 80, 80, 443, 6667, 3128];
    (0..n)
        .map(|i| {
            let x = r.next();
            if i % 7 == 3 {
                let dport = mazunat::NAT_PORT_BASE + (x % 64) as u16;
                let t = tuple(0x0808_0404, mazunat::NAT_EXTERNAL_IP, 443, dport);
                return PacketBuilder::tcp(t, TcpFlags(TcpFlags::ACK), 200)
                    .build(PortId(EXTERNAL_PORT));
            }
            let flags = match x % 5 {
                0 => TcpFlags::SYN,
                4 => TcpFlags::FIN | TcpFlags::ACK,
                _ => TcpFlags::ACK,
            };
            let ingress = if x & 0x10 == 0 {
                INTERNAL_PORT
            } else {
                EXTERNAL_PORT
            };
            let t = tuple(
                0x0A00_0000 + (x % 23) as u32,
                0x0B00_0000 + ((x >> 8) % 11) as u32,
                1024 + ((x >> 16) % 13) as u16,
                dports[(x >> 24) as usize % dports.len()],
            );
            PacketBuilder::tcp(t, TcpFlags(flags), 64 + (x % 400) as usize).build(PortId(ingress))
        })
        .collect()
}

/// Provision a load balancer's backend list with `n` addresses.
fn set_backends(s: &mut StateStore, backends: StateId, n: u32) {
    s.vec_set_all(
        backends,
        (1..=n).map(|i| u64::from(0xC0A8_0000 + i)).collect(),
    )
    .unwrap();
}

/// Outcome of one differential row; `failure` names the first divergence.
struct DiffResult {
    name: String,
    packets: usize,
    emissions: usize,
    failure: Option<String>,
}

/// First difference between two emission lists, if any.
fn emissions_diverge(a: &[(PortId, Packet)], b: &[(PortId, Packet)]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} vs {} emissions", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .position(|((pa, fa), (pb, fb))| pa != pb || fa.bytes() != fb.bytes())
        .map(|j| format!("emission {j} diverges"))
}

/// First difference in counters, authoritative state, or cache evictions,
/// or a replicated-state inconsistency on either side.
fn state_divergence(a: &mut Deployment, b: &mut Deployment) -> Option<String> {
    if a.stats != b.stats {
        return Some(format!(
            "deployment stats diverge: {:?} vs {:?}",
            a.stats, b.stats
        ));
    }
    if a.switch.stats != b.switch.stats {
        let (x, y) = (&a.switch.stats, &b.switch.stats);
        return Some(format!("switch stats diverge: {x:?} vs {y:?}"));
    }
    let why = if a.server.stats != b.server.stats {
        "server stats diverge"
    } else if a.server.store != b.server.store {
        "authoritative state stores diverge"
    } else if a.switch.drain_evictions() != b.switch.drain_evictions() {
        "cache evictions diverge"
    } else if !a.replicated_consistent() || !b.replicated_consistent() {
        "replicated state inconsistent"
    } else {
        return None;
    };
    Some(why.to_string())
}

/// Provision two deployments alike, drive `pkts` through both packet by
/// packet, and compare everything observable.
fn compare_deployments(
    name: &str,
    mut a: Deployment,
    mut b: Deployment,
    configure: &dyn Fn(&mut StateStore),
    pkts: &[Packet],
) -> DiffResult {
    a.configure(configure).expect("configure");
    b.configure(configure).expect("configure");
    let mut emissions = 0;
    let mut failure = None;
    for (i, p) in pkts.iter().enumerate() {
        failure = match (a.inject(p.clone()), b.inject(p.clone())) {
            (Ok(ea), Ok(eb)) => {
                emissions += ea.len();
                emissions_diverge(&ea, &eb).map(|m| format!("pkt {i}: {m}"))
            }
            (Err(x), Err(y)) => (x.to_string() != y.to_string())
                .then(|| format!("pkt {i}: errors diverge: {x} vs {y}")),
            (x, y) => Some(format!(
                "pkt {i}: one engine errored: {:?} vs {:?}",
                x.is_ok(),
                y.is_ok()
            )),
        };
        if failure.is_some() {
            break;
        }
    }
    let failure = failure.or_else(|| state_divergence(&mut a, &mut b));
    DiffResult {
        name: name.to_string(),
        packets: pkts.len(),
        emissions,
        failure,
    }
}

/// Plan-vs-interpreter differential for one middlebox program.
fn differential(
    name: &str,
    prog: &Program,
    configure: &dyn Fn(&mut StateStore),
    pkts: &[Packet],
) -> DiffResult {
    let compiled = compile(prog, &SwitchModel::tofino_like()).expect("compiles");
    let (cfg, cost) = (SwitchConfig::default(), CostModel::calibrated());
    let plan = Deployment::new(&compiled, cfg.clone(), cost).unwrap();
    let interp = Deployment::new_interpreter(&compiled, cfg, cost).unwrap();
    assert!(plan.switch.uses_plan() && !interp.switch.uses_plan());
    compare_deployments(name, plan, interp, configure, pkts)
}

/// Fused-vs-unfused differential: the same stream through a MazuNAT plan
/// built with `BuildKeyProbe`/`Branch` fusion (the default) and one built
/// with `SwitchConfig::plan_fusion = false`. The superinstructions are
/// pure codegen, so every observable must agree.
fn differential_unfused(pkts: &[Packet]) -> DiffResult {
    let nat = mazunat::mazunat();
    let compiled = compile(&nat.prog, &SwitchModel::tofino_like()).expect("compiles");
    let unfused_cfg = SwitchConfig {
        plan_fusion: false,
        ..SwitchConfig::default()
    };
    let fused =
        Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    let unfused = Deployment::new(&compiled, unfused_cfg, CostModel::calibrated()).unwrap();
    assert!(fused.switch.uses_plan() && unfused.switch.uses_plan());
    compare_deployments("MazuNAT fused≡unfused", fused, unfused, &|_| {}, pkts)
}

/// Cache-mode differential: a 4-entry FIFO cache on the LB connection
/// table, small enough that the stream thrashes it (evictions + §7
/// replays).
fn differential_cached(pkts: &[Packet]) -> DiffResult {
    let lb = lb::load_balancer();
    let compiled = compile(&lb.prog, &SwitchModel::tofino_like()).expect("compiles");
    let caches = [(lb.conn, 4usize)];
    let (cfg, cost) = (SwitchConfig::default(), CostModel::calibrated());
    let plan = Deployment::new_cached(&compiled, cfg.clone(), cost, &caches).unwrap();
    let interp = Deployment::new_cached_interpreter(&compiled, cfg, cost, &caches).unwrap();
    let backends = lb.backends;
    let configure = move |s: &mut StateStore| set_backends(s, backends, 3);
    let mut res = compare_deployments("LB cached(4)", plan, interp, &configure, pkts);
    if res.failure.is_none() && res.emissions == 0 {
        res.failure = Some("cache differential saw no emissions".to_string());
    }
    res
}

/// `inject_batch_into` vs per-packet `inject` on the same engine: the
/// emission stream, counters, and state must be identical (the batch API
/// reuses buffers; it does not reorder or coalesce).
fn differential_batch(pkts: &[Packet]) -> DiffResult {
    let nat = mazunat::mazunat();
    let compiled = compile(&nat.prog, &SwitchModel::tofino_like()).expect("compiles");
    let deploy =
        || Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    let (mut seq, mut bat) = (deploy(), deploy());
    let mut expected = Vec::new();
    for p in pkts {
        expected.extend(seq.inject(p.clone()).expect("inject"));
    }
    let mut out = Vec::new();
    for chunk in pkts.chunks(BURST) {
        bat.inject_batch_into(chunk.iter().cloned(), &mut out)
            .expect("batch");
    }
    let failure =
        emissions_diverge(&out, &expected).or_else(|| state_divergence(&mut seq, &mut bat));
    DiffResult {
        name: "MazuNAT batch≡inject".to_string(),
        packets: pkts.len(),
        emissions: out.len(),
        failure,
    }
}

/// Every differential row over one `stream_len`-packet stream.
fn differential_suite(stream_len: usize) -> Vec<DiffResult> {
    let pkts = traffic(stream_len);
    let nat = mazunat::mazunat();
    let l = lb::load_balancer();
    let fw = firewall::firewall();
    let px = proxy::proxy(0x0A09_0909, 3128);
    let tr = trojan::trojan_detector();
    let ml = minilb::minilb();
    let (lb_backends, ml_backends) = (l.backends, ml.backends);
    // Allow every internal flow the stream can draw toward port 80.
    let allow_all = |s: &mut StateStore| {
        for (saddr, daddr, sport) in
            (0..8u32).flat_map(|a| (0..11u32).flat_map(move |b| (0..13u16).map(move |c| (a, b, c))))
        {
            let t = tuple(0x0A00_0000 + saddr, 0x0B00_0000 + daddr, 1024 + sport, 80);
            fw.allow(s, &t);
        }
    };
    vec![
        differential("MazuNAT", &nat.prog, &|_| {}, &pkts),
        differential(
            "Load Balancer",
            &l.prog,
            &|s: &mut StateStore| set_backends(s, lb_backends, 3),
            &pkts,
        ),
        differential("Firewall", &fw.prog, &allow_all, &pkts),
        differential(
            "Proxy",
            &px.prog,
            &|s: &mut StateStore| px.intercept(s, 80),
            &pkts,
        ),
        differential("Trojan Detector", &tr.prog, &|_| {}, &pkts),
        differential(
            "MiniLB",
            &ml.prog,
            &|s: &mut StateStore| set_backends(s, ml_backends, 2),
            &pkts,
        ),
        differential_cached(&pkts),
        differential_batch(&pkts),
        differential_unfused(&pkts),
    ]
}

/// Stands up a deployment on one engine (compiled plan or interpreter).
type Engine = fn(&CompiledMiddlebox, SwitchConfig, CostModel) -> Result<Deployment, LoadError>;

/// One middlebox wired up for fast-path timing: a deployment with warm
/// state plus a probe packet proven to stay on the switch.
struct PerfCase {
    name: &'static str,
    d: Deployment,
    probe: Packet,
}

/// Deploy `prog` on `engine`, provision it, open the probe flow with a SYN
/// when `syn`, then settle the flow's ACK probe on the fast path: inject
/// it until an injection leaves `slow_path` untouched (state replication
/// from the warm-up may take a round trip).
fn warm_case(
    name: &'static str,
    prog: &Program,
    engine: Engine,
    configure: impl FnOnce(&mut StateStore),
    t: FiveTuple,
    syn: bool,
) -> PerfCase {
    let compiled = compile(prog, &SwitchModel::tofino_like()).unwrap();
    let mut d = engine(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    d.configure(configure).unwrap();
    if syn {
        d.inject(tcp(t, TcpFlags::SYN)).unwrap();
    }
    let probe = tcp(t, TcpFlags::ACK);
    for _ in 0..16 {
        let before = d.stats.slow_path;
        d.inject(probe.clone()).unwrap();
        if d.stats.slow_path == before {
            return PerfCase { name, d, probe };
        }
    }
    panic!("{name}: probe never settled on the fast path");
}

/// MazuNAT with one warm outbound flow: the SYN establishes the mapping,
/// the ACK probe rides it.
fn warm_nat(engine: Engine) -> PerfCase {
    let t = tuple(0x0A00_0009, 0x0808_0404, 50_123, 443);
    warm_case("mazunat", &mazunat::mazunat().prog, engine, |_| {}, t, true)
}

/// A warm fast-path case for every packaged middlebox, MazuNAT first.
fn perf_cases() -> Vec<PerfCase> {
    let new: Engine = Deployment::new;
    let l = lb::load_balancer();
    let fw = firewall::firewall();
    let px = proxy::proxy(0x0A09_0909, 3128);
    let ml = minilb::minilb();
    let fw_t = tuple(0x0A00_0002, 0x0B00_0002, 2_001, 80);
    vec![
        warm_nat(new),
        // The SYN picks a backend and installs the connection entry; the
        // ACK hits the replicated connection table.
        warm_case(
            "lb",
            &l.prog,
            new,
            |s| set_backends(s, l.backends, 3),
            tuple(0x0A00_0001, 0x0B00_0001, 2_000, 80),
            true,
        ),
        // Allowed flows match the replicated allow table on the switch.
        warm_case(
            "firewall",
            &fw.prog,
            new,
            |s| fw.allow(s, &fw_t),
            fw_t,
            false,
        ),
        // Port 80 is intercepted; a 443 flow passes straight through.
        warm_case(
            "proxy",
            &px.prog,
            new,
            |s| px.intercept(s, 80),
            tuple(0x0A00_0003, 0x0B00_0003, 2_002, 443),
            false,
        ),
        // Only the SSH/FTP/IRC stage ports mutate state; port 80 is pure
        // pass-through.
        warm_case(
            "trojan",
            &trojan::trojan_detector().prog,
            new,
            |_| {},
            tuple(0x0A00_0004, 0x0B00_0004, 2_003, 80),
            false,
        ),
        warm_case(
            "minilb",
            &ml.prog,
            new,
            |s| set_backends(s, ml.backends, 2),
            tuple(0x0A00_0005, 0x0B00_0005, 2_004, 80),
            true,
        ),
    ]
}

/// `(median, best)` ns/pkt over `trials` timed loops of `iters` per-packet
/// injections.
fn time_fast_path(c: &mut PerfCase, iters: u64, trials: usize) -> (f64, f64) {
    let mut runs: Vec<u64> = (0..trials)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(c.d.inject(black_box(c.probe.clone())).unwrap());
            }
            t0.elapsed().as_nanos() as u64 / iters
        })
        .collect();
    runs.sort_unstable();
    (runs[runs.len() / 2] as f64, runs[0] as f64)
}

/// `(median, best, allocs/pkt)` of `inject_batch_into` draining pre-built
/// bursts of uniquely-owned packets through one reused emissions buffer.
/// The allocation count covers the timed region only: the bursts are
/// deep-cloned outside it.
fn time_batch_path(c: &mut PerfCase, iters: u64, trials: usize) -> (f64, f64, f64) {
    let bursts_per_trial = (iters as usize / BURST).max(8);
    let pkts_per_trial = (bursts_per_trial * BURST) as u64;
    let mut out: Vec<(PortId, Packet)> = Vec::with_capacity(BURST * 2);
    // Warm the emissions buffer and the deployment scratch.
    let warm: Vec<Packet> = (0..BURST).map(|_| c.probe.deep_clone()).collect();
    c.d.inject_batch_into(warm, &mut out).unwrap();

    let mut runs: Vec<u64> = Vec::with_capacity(trials);
    let mut total_allocs = 0u64;
    for _ in 0..trials {
        let mut bursts: Vec<Vec<Packet>> = (0..bursts_per_trial)
            .map(|_| (0..BURST).map(|_| c.probe.deep_clone()).collect())
            .collect();
        let t0 = Instant::now();
        let ((), allocs) = counting_alloc::count(|| {
            for burst in bursts.drain(..) {
                out.clear();
                black_box(c.d.inject_batch_into(burst, &mut out).unwrap());
            }
        });
        runs.push(t0.elapsed().as_nanos() as u64 / pkts_per_trial);
        total_allocs += allocs;
    }
    runs.sort_unstable();
    let allocs_per_pkt = total_allocs as f64 / (pkts_per_trial * trials as u64) as f64;
    (runs[runs.len() / 2] as f64, runs[0] as f64, allocs_per_pkt)
}

/// `(perfect-hash layout probes, full layout builds)` so far on `d`.
fn layout_counters(d: &Deployment) -> (u64, u64) {
    let snap = d.telemetry_snapshot();
    let get = |k: &str| snap.counter(k).unwrap_or(0);
    (get(names::TABLE_PROBES), get(names::TABLE_REBUILDS))
}

/// Reconstruct a sampled MazuNAT slow-path packet's journey and check the
/// hop sequence, its events, and the snapshot's trace/drop key families.
fn check_trace_reconstruction() -> Result<(), String> {
    let compiled = compile(&mazunat::mazunat().prog, &SwitchModel::tofino_like()).unwrap();
    let mut d =
        Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    d.enable_flight_recorder(1, 1024);
    d.inject(tcp(
        tuple(0x0A00_0009, 0x0808_0404, 50_123, 443),
        TcpFlags::SYN,
    ))
    .map_err(|e| format!("slow-path inject failed: {e}"))?;
    let report = d.trace_report().ok_or("no trace report")?;
    let t = report.trace(0).ok_or("trace 0 missing")?;
    let want = [
        Hop::SwitchPre,
        Hop::Transfer,
        Hop::Server,
        Hop::Transfer,
        Hop::SwitchPost,
    ];
    if t.hop_path() != want {
        let text = report.render_text();
        return Err(format!("hop path {:?} != expected:\n{text}", t.hop_path()));
    }
    for kind in [
        EventKind::Ingress,
        EventKind::ToServer,
        EventKind::ServerRx,
        EventKind::Emit,
    ] {
        if !t.has(kind) {
            return Err(format!("missing {kind:?} event"));
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
            return Err(format!("snapshot missing {key}"));
        }
    }
    if snap.histogram(names::STAGE_SERVER_NS).map(|h| h.count) != Some(1) {
        return Err("server stage histogram not recorded".to_string());
    }
    Ok(())
}

/// The register-IR stats by the names the JSON artifact and telemetry use.
fn expr_fields(x: &PlanExprStats) -> [(&'static str, u64); 6] {
    [
        ("micro_ops", x.micro_ops),
        ("regs", x.regs),
        ("const_folded", x.folded),
        ("cse_hits", x.cse_hits),
        ("fused", x.fused),
        ("dead_ops", x.dead),
    ]
}

/// The timed MazuNAT window's perfect-hash work counters.
struct Window {
    /// Packets injected inside the window.
    packets: u64,
    /// Layout probes one warm probe packet makes (measured just before).
    probes_per_pkt: u64,
    /// Layout probes counted inside the window.
    probes: u64,
    /// Full layout builds counted inside the window.
    rebuilds: u64,
}

/// Everything the gates read, gathered by one run.
struct Observed {
    differential: Vec<DiffResult>,
    /// `(drain, allocs/pkt)` for every warm batch drain.
    drain_allocs: Vec<(String, f64)>,
    trace: Result<(), String>,
    /// Snapshot of the traced 1-in-1 MazuNAT deployment.
    snapshot: TelemetrySnapshot,
    expr: PlanExprStats,
    window: Window,
    /// MazuNAT best-of-trials per-packet and batched ns/pkt.
    plan_best_ns: f64,
    batch_best_ns: f64,
}

/// One gate's outcome: its name, the value it read, and whether it held.
struct Gate {
    name: String,
    value: String,
    pass: bool,
}

/// The pass/fail decision over every gate of one run.
struct Verdict {
    gates: Vec<Gate>,
}

impl Verdict {
    fn judge(o: &Observed) -> Verdict {
        let mut gates = Vec::new();
        let mut gate = |name: String, value: String, pass: bool| {
            gates.push(Gate { name, value, pass });
        };
        for r in &o.differential {
            let value = match &r.failure {
                None => format!("{} pkts, {} emissions", r.packets, r.emissions),
                Some(why) => why.clone(),
            };
            gate(
                format!("differential {}", r.name),
                value,
                r.failure.is_none(),
            );
        }
        for (drain, allocs) in &o.drain_allocs {
            let value = format!("{allocs:.4} allocs/pkt");
            gate(format!("zero_alloc {drain}"), value, *allocs == 0.0);
        }
        let value = match &o.trace {
            Ok(()) => "switch.pre -> transfer -> server -> transfer -> switch.post".to_string(),
            Err(why) => why.clone(),
        };
        gate("trace reconstruction".into(), value, o.trace.is_ok());
        let missing: Vec<&str> = REQUIRED_KEYS
            .into_iter()
            .filter(|k| !o.snapshot.has_keys(&[*k]))
            .collect();
        let value = if missing.is_empty() {
            format!("{} keys present", REQUIRED_KEYS.len())
        } else {
            format!("missing {}", missing.join(", "))
        };
        gate("telemetry keys".into(), value, missing.is_empty());
        for ((stat, got), (_, want)) in expr_fields(&o.expr)
            .into_iter()
            .zip(expr_fields(&PINNED_EXPR))
        {
            gate(
                format!("expr {stat}"),
                format!("{got} (pinned {want})"),
                got == want,
            );
        }
        let w = &o.window;
        let want = w.packets * w.probes_per_pkt;
        let value = format!(
            "{} (want {} pkts x {} per pkt)",
            w.probes, w.packets, w.probes_per_pkt
        );
        gate("layout probes".into(), value, want > 0 && w.probes == want);
        gate(
            "layout rebuilds".into(),
            format!("{} (want 0)", w.rebuilds),
            w.rebuilds == 0,
        );
        for (name, best, bound) in [
            (
                "mazunat per-packet best",
                o.plan_best_ns,
                PLAN_BEST_BOUND_NS,
            ),
            ("mazunat batched best", o.batch_best_ns, BATCH_BEST_BOUND_NS),
        ] {
            gate(
                name.into(),
                format!("{best:.0} ns/pkt (< {bound:.0})"),
                best < bound,
            );
        }
        Verdict { gates }
    }

    fn pass(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// Names of the gates that failed.
    fn failed(&self) -> Vec<&str> {
        self.gates
            .iter()
            .filter(|g| !g.pass)
            .map(|g| g.name.as_str())
            .collect()
    }
}

/// Per-middlebox timing row.
struct PerfRow {
    name: &'static str,
    ns: f64,
    best_ns: f64,
    batch_ns: f64,
    batch_best_ns: f64,
    allocs_per_pkt: f64,
}

/// Time one case's per-packet path and then its batched drain.
fn time_case(c: &mut PerfCase, iters: u64, trials: usize) -> PerfRow {
    let (ns, best_ns) = time_fast_path(c, iters, trials);
    let (batch_ns, batch_best_ns, allocs_per_pkt) = time_batch_path(c, iters, trials);
    println!(
        "fast path {}: {ns:.0} ns/pkt (best {best_ns:.0}), batch {batch_ns:.0} ns/pkt \
         (best {batch_best_ns:.0}), {allocs_per_pkt:.4} allocs/pkt",
        c.name
    );
    PerfRow {
        name: c.name,
        ns,
        best_ns,
        batch_ns,
        batch_best_ns,
        allocs_per_pkt,
    }
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_dataplane.json".to_string();
    for a in std::env::args().skip(1) {
        if a == "--quick" {
            quick = true;
        } else {
            out_path = a;
        }
    }
    let stream_len = if quick { 600 } else { 2_000 };
    let iters: u64 = if quick { 5_000 } else { 50_000 };
    let trials = if quick { 3 } else { 5 };

    // ---- 1. Differential suite ------------------------------------------
    let differential = differential_suite(stream_len);

    // ---- 2. Register-IR compiler stats (MazuNAT plan) -------------------
    let nat_compiled = compile(&mazunat::mazunat().prog, &SwitchModel::tofino_like()).unwrap();
    let expr = ExecPlan::build(&nat_compiled.p4).unwrap().expr_stats();

    // ---- 3. Per-middlebox fast path + batched drain ---------------------
    // The MazuNAT window is bracketed by its work counters; one probe
    // packet injected just before it gives the per-packet probe count.
    let mut cases = perf_cases();
    let nat = &mut cases[0];
    let (probes_before, _) = layout_counters(&nat.d);
    nat.d.inject(nat.probe.clone()).unwrap();
    let (probes_start, rebuilds_start) = layout_counters(&nat.d);
    let injected_start = nat.d.stats.injected;
    let rows: Vec<PerfRow> = cases
        .iter_mut()
        .map(|c| time_case(c, iters, trials))
        .collect();
    let (probes_end, rebuilds_end) = layout_counters(&cases[0].d);
    let window = Window {
        packets: cases[0].d.stats.injected - injected_start,
        probes_per_pkt: probes_start - probes_before,
        probes: probes_end - probes_start,
        rebuilds: rebuilds_end - rebuilds_start,
    };

    // ---- 4. MazuNAT plan vs interpreter ---------------------------------
    let nat_row = &rows[0];
    let (interp_ns, _) = time_fast_path(&mut warm_nat(Deployment::new_interpreter), iters, trials);
    let speedup = interp_ns / nat_row.ns;
    println!(
        "mazunat: plan {:.0} ns/pkt, interpreter {interp_ns:.0} ns/pkt ({speedup:.2}x)",
        nat_row.ns
    );

    // ---- 5. Flight recorder: the MazuNAT drain traced -------------------
    let mut traced = Vec::new();
    let mut snapshot = TelemetrySnapshot::default();
    for (label, one_in) in [("1-in-64", 64), ("1-in-1", 1)] {
        let mut c = warm_nat(Deployment::new);
        c.d.enable_flight_recorder(one_in, 4096);
        let (ns, best_ns, allocs) = time_batch_path(&mut c, iters, trials);
        println!("tracing {label}: {ns:.0} ns/pkt (best {best_ns:.0}), {allocs:.4} allocs/pkt");
        traced.push((label, ns, best_ns, allocs));
        // The 1-in-1 snapshot carries every key family, stage histograms
        // included.
        snapshot = c.d.telemetry_snapshot();
    }
    let trace = check_trace_reconstruction();

    // ---- Verdict ----------------------------------------------------------
    let drain_allocs = rows
        .iter()
        .map(|r| (r.name.to_string(), r.allocs_per_pkt))
        .chain(traced.iter().map(|t| (format!("mazunat {}", t.0), t.3)))
        .collect();
    let observed = Observed {
        differential,
        drain_allocs,
        trace,
        snapshot,
        expr,
        window,
        plan_best_ns: nat_row.best_ns,
        batch_best_ns: nat_row.batch_best_ns,
    };
    let verdict = Verdict::judge(&observed);
    for g in &verdict.gates {
        let status = if g.pass { "PASS" } else { "FAIL" };
        println!("gate {}: {status} — {}", g.name, g.value);
    }
    let passed = verdict.gates.iter().filter(|g| g.pass).count();
    let summary = format!(
        "{passed}/{} gates pass; mazunat per-packet best {:.0} ns/pkt, batched best {:.0} \
         ns/pkt, plan {speedup:.2}x interpreter",
        verdict.gates.len(),
        nat_row.best_ns,
        nat_row.batch_best_ns
    );
    if verdict.pass() {
        println!("verdict: PASS — {summary}");
    } else {
        println!(
            "verdict: FAIL ({}) — {summary}",
            verdict.failed().join(", ")
        );
    }

    // ---- JSON -------------------------------------------------------------
    let mut json = String::new();
    let _ = writeln!(
        json,
        "{{\n  \"bench\": \"dataplane\",\n  \"quick\": {quick},"
    );
    json.push_str("  \"differential\": {");
    for (i, r) in observed.differential.iter().enumerate() {
        let detail = r.failure.as_ref().map_or(String::new(), |d| {
            format!(", \"detail\": {}", json_escape(d))
        });
        let _ = write!(
            json,
            "{}\n    {}: {{\"packets\": {}, \"emissions\": {}, \"ok\": {}{detail}}}",
            if i > 0 { "," } else { "" },
            json_escape(&r.name),
            r.packets,
            r.emissions,
            r.failure.is_none(),
        );
    }
    json.push_str("\n  },\n  \"expr\": {\"middlebox\": \"mazunat\"");
    for (stat, v) in expr_fields(&expr) {
        let _ = write!(json, ", \"{stat}\": {v}");
    }
    let _ = writeln!(
        json,
        "}},\n  \"mazunat\": {{\"iters\": {iters}, \"burst\": {BURST}, \
         \"plan_ns_per_pkt\": {:.1}, \"plan_best_ns_per_pkt\": {:.1}, \
         \"interp_ns_per_pkt\": {interp_ns:.1}, \"speedup\": {speedup:.3}, \
         \"batch_ns_per_pkt\": {:.1}, \"batch_best_ns_per_pkt\": {:.1}}},",
        nat_row.ns, nat_row.best_ns, nat_row.batch_ns, nat_row.batch_best_ns
    );
    let w = &observed.window;
    let _ = writeln!(
        json,
        "  \"table\": {{\"packets\": {}, \"probes_per_pkt\": {}, \"probes\": {}, \
         \"rebuilds\": {}}},",
        w.packets, w.probes_per_pkt, w.probes, w.rebuilds
    );
    json.push_str("  \"tracing\": {");
    for (i, (label, ns, best_ns, allocs)) in traced.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    \"{label}\": {{\"ns_per_pkt\": {ns:.1}, \"best_ns_per_pkt\": {best_ns:.1}, \
             \"allocs_per_pkt\": {allocs:.4}, \"overhead_vs_off\": {:.3}}}",
            if i > 0 { "," } else { "" },
            best_ns / nat_row.batch_best_ns
        );
    }
    json.push_str("\n  },\n  \"middleboxes\": {");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    \"{}\": {{\"ns_per_pkt\": {:.1}, \"best_ns_per_pkt\": {:.1}, \
             \"batch_ns_per_pkt\": {:.1}, \"batch_best_ns_per_pkt\": {:.1}, \
             \"warm_allocs_per_pkt\": {:.4}}}",
            if i > 0 { "," } else { "" },
            r.name,
            r.ns,
            r.best_ns,
            r.batch_ns,
            r.batch_best_ns,
            r.allocs_per_pkt
        );
    }
    let _ = write!(
        json,
        "\n  }},\n  \"verdict\": {{\"pass\": {}, \"gates\": [",
        verdict.pass()
    );
    for (i, g) in verdict.gates.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"name\": {}, \"value\": {}, \"pass\": {}}}",
            if i > 0 { "," } else { "" },
            json_escape(&g.name),
            json_escape(&g.value),
            g.pass
        );
    }
    json.push_str("\n  ]},\n  \"telemetry\": ");
    for line in observed.snapshot.to_json().lines() {
        json.push_str(line);
        json.push_str("\n  ");
    }
    json.truncate(json.trim_end().len());
    json.push_str("\n}\n");

    std::fs::write(&out_path, &json).expect("write the JSON artifact");
    println!("wrote {out_path}");
    if !verdict.pass() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An observation every gate accepts.
    fn passing() -> Observed {
        let mut snapshot = TelemetrySnapshot::default();
        for key in REQUIRED_KEYS {
            snapshot.set_counter(key, 1);
        }
        Observed {
            differential: vec![DiffResult {
                name: "MazuNAT".to_string(),
                packets: 600,
                emissions: 351,
                failure: None,
            }],
            drain_allocs: vec![
                ("mazunat".to_string(), 0.0),
                ("mazunat 1-in-1".to_string(), 0.0),
            ],
            trace: Ok(()),
            snapshot,
            expr: PINNED_EXPR,
            window: Window {
                packets: 30_040,
                probes_per_pkt: 1,
                probes: 30_040,
                rebuilds: 0,
            },
            plan_best_ns: 200.0,
            batch_best_ns: 150.0,
        }
    }

    /// Judge `o`, which must fail, and return the failed gates' names.
    fn failed(o: &Observed) -> Vec<String> {
        let v = Verdict::judge(o);
        assert!(!v.pass());
        v.failed().into_iter().map(String::from).collect()
    }

    #[test]
    fn passing_input_passes() {
        let v = Verdict::judge(&passing());
        assert!(v.pass(), "failed: {:?}", v.failed());
        assert!(v.gates.iter().any(|g| g.name == "layout probes"));
    }

    #[test]
    fn failed_differential_row_fails() {
        let mut o = passing();
        o.differential[0].failure = Some("pkt 3: emission 0 diverges".to_string());
        assert_eq!(failed(&o), ["differential MazuNAT"]);
    }

    #[test]
    fn an_allocation_fails() {
        let mut o = passing();
        o.drain_allocs[1].1 = 1.0 / 64.0;
        assert_eq!(failed(&o), ["zero_alloc mazunat 1-in-1"]);
    }

    #[test]
    fn a_missing_telemetry_key_fails() {
        let mut o = passing();
        o.snapshot.counters.remove("gallium.switchsim.table.probe");
        assert_eq!(failed(&o), ["telemetry keys"]);
    }

    #[test]
    fn a_failed_trace_reconstruction_fails() {
        let mut o = passing();
        o.trace = Err("missing Emit event".to_string());
        assert_eq!(failed(&o), ["trace reconstruction"]);
    }

    #[test]
    fn a_probe_count_mismatch_fails() {
        let mut o = passing();
        o.window.probes -= 1;
        assert_eq!(failed(&o), ["layout probes"]);
        // Lookups that all fell back to map serving probe nothing at all.
        o.window.probes = 0;
        o.window.probes_per_pkt = 0;
        assert_eq!(failed(&o), ["layout probes"]);
    }

    #[test]
    fn a_full_layout_build_fails() {
        let mut o = passing();
        o.window.rebuilds = 1;
        assert_eq!(failed(&o), ["layout rebuilds"]);
    }

    #[test]
    fn a_pinned_stat_mismatch_fails() {
        let mut o = passing();
        o.expr.cse_hits += 1;
        assert_eq!(failed(&o), ["expr cse_hits"]);
    }

    #[test]
    fn an_exceeded_ns_bound_fails() {
        let mut o = passing();
        o.plan_best_ns = PLAN_BEST_BOUND_NS;
        assert_eq!(failed(&o), ["mazunat per-packet best"]);
        let mut o = passing();
        o.batch_best_ns = BATCH_BEST_BOUND_NS + 1.0;
        assert_eq!(failed(&o), ["mazunat batched best"]);
    }
}
