//! Set-up, the three passes over a stream, and the output checks.
//!
//! * **Batched pass** (untraced): `Deployment::inject_batch_into` in
//!   bursts of [`BURST`]; only the calls are timed. Gives throughput and
//!   allocations per packet.
//! * **Per-packet pass** (untraced): `Deployment::inject_into` on a fresh
//!   deployment, every call timed. Gives the latency distribution.
//! * **Traced pass**: the benchmark composes the layers itself —
//!   `Switch::process_into` (pre), `MiddleboxServer::process`,
//!   `ControlPlane::control_batch` split at the write-back flip, and
//!   `Switch::process_into` on re-injected frames (post) — exactly as
//!   `Deployment::inject_into` does, and records one span per call.
//!
//! Every pass covers the whole stream on a freshly stood-up deployment,
//! so each pass of a run sees the same state and must produce the same
//! emissions, counters and final state. Each is checked against the
//! reference interpreter running the unpartitioned program.

use crate::alloc;
use crate::stats::{Digest, LogHist};
use crate::traffic::{Middlebox, PktDesc, Workload};
use gallium_core::{compile, Deployment};
use gallium_mir::{StateId, StateKind};
use gallium_net::{Packet, PortId};
use gallium_p4::ControlPlaneOp;
use gallium_partition::{Partition, SwitchModel};
use gallium_server::{CostModel, ReferenceServer, ServerStats};
use gallium_switchsim::{ControlPlane, ExecPlan, PlanOptions, SwitchConfig, SwitchStats};
use gallium_telemetry::names;
use std::time::Instant;

/// Packets per `inject_batch_into` call.
pub const BURST: usize = 64;
/// Stream prefix injected during set-up (fills buffers and runs the
/// first layout flush), a multiple of [`BURST`].
pub const WARMUP: usize = 4 * BURST;

/// Middlebox clock at stream position `k`: 1 µs per packet, stepped once
/// per burst because `inject_batch_into` runs a burst at one clock value.
/// Every pass and the reference use it, so time-stamped state agrees.
pub fn clock_ns(k: usize) -> u64 {
    1_000_000_000 + (k / BURST * BURST) as u64 * 1_000
}

fn ns(t0: Instant, t1: Instant) -> u64 {
    u64::try_from(t1.duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// Length of the warm-up prefix of a stream of `len` packets.
fn warmup_len(len: usize) -> usize {
    WARMUP.min(len / BURST * BURST)
}

/// Wall time of one stand-up of a workload's deployments, summed over
/// its middleboxes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `gallium_core::compile`.
    pub compile_ns: u64,
    /// `Deployment::new`: `Switch::load` plus the server's construction.
    pub load_ns: u64,
    /// `Deployment::configure`: provisioning through the control plane.
    pub configure_ns: u64,
    /// Warm-up bursts.
    pub warmup_ns: u64,
}

impl SetupTimes {
    /// Total set-up time in seconds.
    pub fn total_s(&self) -> f64 {
        (self.compile_ns + self.load_ns + self.configure_ns + self.warmup_ns) as f64 * 1e-9
    }
}

/// A stood-up middlebox: its deployment and what the warm-up emitted.
struct Stood {
    d: Deployment,
    digest: Digest,
}

/// Packets attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Packets attempted (each once, however often its burst was resubmitted).
    pub attempted: u64,
    /// Injects that returned `Err`.
    pub failed: u64,
}

/// Inject `descs`, which start at stream position `k0`, in bursts through
/// `inject_batch_into`. Only the calls are timed and allocation-counted;
/// `bursts` gets the call time of each burst.
/// A failing packet ends its call; the rest of the burst is resubmitted,
/// so a failure never shortens the run.
#[allow(clippy::too_many_arguments)]
fn drive_batched(
    d: &mut Deployment,
    descs: &[PktDesc],
    k0: usize,
    out: &mut Vec<(PortId, Packet)>,
    digest: &mut Digest,
    counts: &mut PassCounts,
    timed: &mut BatchTiming,
    bursts: &mut Vec<u64>,
) {
    bursts.clear();
    bursts.resize(descs.len().div_ceil(BURST), 0);
    let mut burst: Vec<Packet> = Vec::with_capacity(BURST);
    for (ci, chunk) in descs.chunks(BURST).enumerate() {
        d.set_time_ns(clock_ns(k0 + ci * BURST));
        let mut next = 0usize;
        while next < chunk.len() {
            burst.extend(chunk[next..].iter().map(PktDesc::packet));
            let injected_before = d.stats.injected;
            let t0 = Instant::now();
            let (res, allocs) = alloc::counted(|| d.inject_batch_into(burst.drain(..), out));
            let t1 = Instant::now();
            timed.ns += ns(t0, t1);
            bursts[ci] += ns(t0, t1);
            timed.allocs += allocs;
            // `injected` counts the failing packet too.
            let injected = (d.stats.injected - injected_before) as usize;
            counts.attempted += injected as u64;
            if res.is_err() {
                counts.failed += 1;
            }
            next += injected.max(1);
        }
        digest.emissions(out);
        out.clear();
    }
}

/// Time and allocations inside the batched calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchTiming {
    /// Summed wall time of the calls.
    pub ns: u64,
    /// Heap allocations made inside them.
    pub allocs: u64,
}

/// Compile, load, provision and warm up one middlebox.
fn stand_up(
    mb: &Middlebox,
    stream: &[PktDesc],
    times: &mut SetupTimes,
    counts: &mut PassCounts,
    out: &mut Vec<(PortId, Packet)>,
) -> Result<Stood, String> {
    let t0 = Instant::now();
    let compiled = compile(&mb.prog, &SwitchModel::tofino_like())
        .map_err(|e| format!("{}: compile: {e}", mb.label))?;
    let t1 = Instant::now();
    let mut d = Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated())
        .map_err(|e| format!("{}: load: {e}", mb.label))?;
    let t2 = Instant::now();
    d.configure(|store| mb.provision.apply(&mb.prog, store))
        .map_err(|e| format!("{}: configure: {e}", mb.label))?;
    let t3 = Instant::now();
    let mut digest = Digest::default();
    let mut untimed = BatchTiming::default();
    let warm = warmup_len(stream.len());
    drive_batched(
        &mut d,
        &stream[..warm],
        0,
        out,
        &mut digest,
        counts,
        &mut untimed,
        &mut Vec::new(),
    );
    let t4 = Instant::now();
    times.compile_ns += ns(t0, t1);
    times.load_ns += ns(t1, t2);
    times.configure_ns += ns(t2, t3);
    times.warmup_ns += ns(t3, t4);
    Ok(Stood { d, digest })
}

/// A map's entries, sorted by key.
type MapEntries = Vec<(Vec<u64>, Vec<u64>)>;

/// What the reference interpreter produced for one middlebox.
pub struct Reference {
    digest: Digest,
    /// Baseline (unpartitioned, all-software) cycles for the whole
    /// stream.
    pub cycles: u64,
    maps: Vec<(StateId, MapEntries)>,
}

/// Run the unpartitioned program on the reference interpreter over the
/// same stream, with the same provisioning and clock.
pub fn reference(mb: &Middlebox, stream: &[PktDesc]) -> Result<Reference, String> {
    let mut server = ReferenceServer::new(mb.prog.clone(), CostModel::calibrated());
    mb.provision.apply(&mb.prog, &mut server.store);
    let mut digest = Digest::default();
    let mut cycles = 0u64;
    let mut out = Vec::new();
    for (ci, chunk) in stream.chunks(BURST).enumerate() {
        cycles += server
            .process_batch_into(
                chunk.iter().map(PktDesc::packet),
                clock_ns(ci * BURST),
                &mut out,
            )
            .map_err(|e| format!("{}: reference interpreter: {e}", mb.label))?;
        for p in out.drain(..) {
            digest.frame(p.bytes());
        }
    }
    let maps = map_states(mb)
        .map(|sid| {
            let entries = server.store.map_entries(sid).expect("declared map");
            (sid, entries)
        })
        .collect();
    Ok(Reference {
        digest,
        cycles,
        maps,
    })
}

fn map_states(mb: &Middlebox) -> impl Iterator<Item = StateId> + '_ {
    mb.prog
        .states
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.kind, StateKind::Map { .. }))
        .map(|(i, _)| StateId(u32::try_from(i).expect("state index fits 32 bits")))
}

/// Everything a pass leaves that two passes of one run must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    emissions: (u64, u64, u64),
    switch: SwitchStats,
    server: ServerStats,
    counts: PassCounts,
}

/// Check a finished pass against the reference; returns the mismatches.
fn check_against_reference(
    label: &str,
    pass: &str,
    d: &Deployment,
    digest: &Digest,
    r: &Reference,
) -> Vec<String> {
    let mut bad = Vec::new();
    if digest.content() != r.digest.content() {
        bad.push(format!(
            "{label} {pass}: emissions differ from the reference interpreter \
             ({} frames vs {})",
            digest.frames, r.digest.frames
        ));
    }
    for (sid, want) in &r.maps {
        let got = d.server.store.map_entries(*sid).expect("declared map");
        if &got != want {
            bad.push(format!(
                "{label} {pass}: final state of map {sid} differs from the reference \
                 ({} entries vs {})",
                got.len(),
                want.len()
            ));
        }
    }
    if !d.replicated_consistent() {
        bad.push(format!(
            "{label} {pass}: switch replicas disagree with the server store"
        ));
    }
    bad
}

/// Switch- and server-side counters, read from the layers' own
/// telemetry snapshots (not the deployment's, which merges the
/// process-wide registry).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounters {
    /// Packets the switch sent to the server.
    pub to_server: u64,
    /// Table lookups served by the perfect-hash layout.
    pub probes: u64,
    /// Table lookups that matched.
    pub hits: u64,
    /// Table lookups that missed.
    pub misses: u64,
    /// Read-layout rebuilds.
    pub rebuilds: u64,
    /// Entries resident in the switch tables.
    pub live: u64,
    /// Frames the server received.
    pub server_rx: u64,
    /// Modeled server cycles.
    pub server_cycles: u64,
    /// Write-back operations the server issued.
    pub sync_ops: u64,
}

impl LayerCounters {
    fn of(d: &Deployment) -> Self {
        let sw = &d.switch;
        let s = sw.telemetry_snapshot();
        let c = |name: &str| s.counter(name).unwrap_or(0);
        let per_table = |metric: &str| -> u64 {
            sw.program()
                .tables
                .iter()
                .map(|t| c(&names::table_metric(&t.name, metric)))
                .sum()
        };
        let srv = d.server.telemetry_snapshot();
        let sc = |name: &str| srv.counter(name).unwrap_or(0);
        LayerCounters {
            to_server: c(names::SWITCH_TO_SERVER),
            probes: c(names::TABLE_PROBES),
            hits: per_table("hits"),
            misses: per_table("misses"),
            rebuilds: c(names::TABLE_REBUILDS),
            live: per_table("entries"),
            server_rx: sc(names::SERVER_SLOW_PATH_PKTS),
            server_cycles: sc(names::SERVER_CYCLES),
            sync_ops: sc(names::SERVER_SYNC_OPS_ISSUED),
        }
    }

    /// `self - before`, except `live`, which is a level: the entries
    /// resident at the end.
    fn since(&self, before: &Self) -> Self {
        LayerCounters {
            to_server: self.to_server - before.to_server,
            probes: self.probes - before.probes,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            rebuilds: self.rebuilds - before.rebuilds,
            live: self.live,
            server_rx: self.server_rx - before.server_rx,
            server_cycles: self.server_cycles - before.server_cycles,
            sync_ops: self.sync_ops - before.sync_ops,
        }
    }

    fn add(&mut self, o: &Self) {
        self.to_server += o.to_server;
        self.probes += o.probes;
        self.hits += o.hits;
        self.misses += o.misses;
        self.rebuilds += o.rebuilds;
        self.live += o.live;
        self.server_rx += o.server_rx;
        self.server_cycles += o.server_cycles;
        self.sync_ops += o.sync_ops;
    }
}

/// Layers a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One packet through the composition (the root span).
    Deployment,
    /// `Switch::process_into` on a network packet.
    Pre,
    /// `MiddleboxServer::process`.
    Server,
    /// `ControlPlane::control_batch`.
    Control,
    /// `Switch::process_into` on a re-injected frame.
    Post,
}

impl Layer {
    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Deployment => "deployment",
            Layer::Pre => "switchsim.pre",
            Layer::Server => "server",
            Layer::Control => "control",
            Layer::Post => "switchsim.post",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One traced call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Packet id; every span of one packet shares it.
    pub packet: u32,
    /// Index of the parent span in the pass's span vector.
    pub parent: u32,
    /// Layer called.
    pub layer: Layer,
    /// A pre call on the first packet after one that wrote the tables.
    pub after_sync: bool,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Values the traced pass observes that are not durations.
#[derive(Debug, Clone, Default)]
pub struct TraceExtras {
    /// Transfer-header bytes crossing the boundary, both directions.
    pub transfer_bytes: u64,
    /// `control_batch` calls.
    pub control_batches: u64,
    /// Control-plane operations applied.
    pub control_ops: u64,
    /// Modeled time until the write-back flip made a batch visible, per
    /// server call that synced (the output-commit hold).
    pub modeled_visible: LogHist,
}

/// Buffers the traced composition reuses across packets.
#[derive(Debug, Default)]
pub struct TraceScratch {
    to_server: Vec<Packet>,
    /// Child calls of the packet in flight: `(layer, start, end, after_sync)`.
    children: Vec<(Layer, Instant, Instant, bool)>,
}

/// The traced composition of one packet; mirrors `Deployment::inject_into`
/// call for call. Returns whether the packet wrote the switch tables, or
/// `Err` where `inject_into` would have failed.
#[allow(clippy::too_many_arguments)]
fn traced_packet(
    d: &mut Deployment,
    pkt: Packet,
    now: u64,
    id: u32,
    after_sync: bool,
    epoch: Instant,
    out: &mut Vec<(PortId, Packet)>,
    scratch: &mut TraceScratch,
    spans: &mut Vec<Span>,
    extras: &mut TraceExtras,
) -> Result<bool, ()> {
    let server_port = SwitchConfig::default().server_port;
    let children = &mut scratch.children;
    children.clear();
    let in_len = pkt.len();
    let t_pkt = Instant::now();
    let mark = out.len();
    let t0 = Instant::now();
    d.switch.process_into(pkt, out);
    let t1 = Instant::now();
    children.push((Layer::Pre, t0, t1, after_sync));
    let mut i = mark;
    while i < out.len() {
        if out[i].0 == server_port {
            scratch.to_server.push(out.remove(i).1);
        } else {
            i += 1;
        }
    }
    let mut synced = false;
    let mut result = Ok(());
    'frames: for mut frame in scratch.to_server.drain(..) {
        frame.ingress = server_port;
        extras.transfer_bytes += frame.len().saturating_sub(in_len) as u64;
        let t0 = Instant::now();
        let srv = d.server.process(frame, now);
        let t1 = Instant::now();
        children.push((Layer::Server, t0, t1, false));
        let Ok(srv) = srv else {
            result = Err(());
            break;
        };
        if !srv.sync_ops.is_empty() {
            // Split at the write-back flip, as `Deployment` does: the
            // packet is released once the prefix is visible.
            let ops = &srv.sync_ops;
            let flip = ops
                .iter()
                .position(|o| matches!(o, ControlPlaneOp::SetWriteBackBit(true)))
                .map_or(ops.len(), |i| i + 1);
            for (k, part) in [&ops[..flip], &ops[flip..]].into_iter().enumerate() {
                let t0 = Instant::now();
                let r = d.switch.control_batch(part);
                let t1 = Instant::now();
                children.push((Layer::Control, t0, t1, false));
                extras.control_batches += 1;
                extras.control_ops += part.len() as u64;
                match r {
                    Ok(modeled) if k == 0 => extras.modeled_visible.record(modeled),
                    Ok(_) => {}
                    Err(_) => {
                        result = Err(());
                        break 'frames;
                    }
                }
            }
            synced = true;
        }
        for mut back in srv.to_switch {
            back.ingress = server_port;
            extras.transfer_bytes += back.len().saturating_sub(in_len) as u64;
            let back_mark = out.len();
            let t0 = Instant::now();
            d.switch.process_into(back, out);
            let t1 = Instant::now();
            children.push((Layer::Post, t0, t1, false));
            if out[back_mark..].iter().any(|(p, _)| *p == server_port) {
                result = Err(());
                break 'frames;
            }
        }
    }
    let t_end = Instant::now();
    let root = u32::try_from(spans.len()).expect("span count fits 32 bits");
    spans.push(Span {
        packet: id,
        parent: NO_PARENT,
        layer: Layer::Deployment,
        after_sync: false,
        start: ns(epoch, t_pkt),
        end: ns(epoch, t_end),
    });
    spans.extend(children.iter().map(|&(layer, t0, t1, a)| Span {
        packet: id,
        parent: root,
        layer,
        after_sync: a,
        start: ns(epoch, t0),
        end: ns(epoch, t1),
    }));
    if result.is_err() {
        out.truncate(mark);
    }
    result.map(|()| synced)
}

/// Per-layer accumulation over every traced pass of a run.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Call durations per layer (indexed by `Layer as usize`).
    pub dur: [LogHist; 5],
    /// Self time per layer.
    pub self_ns: [u128; 5],
    /// Pre calls right after a table write.
    pub pre_after_sync: LogHist,
}

impl LayerStats {
    /// Fold one pass's spans: a span's self time is its duration minus
    /// its children's.
    pub fn fold(&mut self, spans: &[Span]) {
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur();
            }
        }
        for (s, c) in spans.iter().zip(&child) {
            let l = s.layer as usize;
            self.dur[l].record(s.dur());
            self.self_ns[l] += u128::from(s.dur().saturating_sub(*c));
            if s.after_sync {
                self.pre_after_sync.record(s.dur());
            }
        }
    }
}

/// The kinds of pass over a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Batched,
    PerPacket,
    Traced,
}

impl Pass {
    fn name(self) -> &'static str {
        match self {
            Pass::Batched => "batched",
            Pass::PerPacket => "per-packet",
            Pass::Traced => "traced",
        }
    }
}

/// Totals of one run. Counts are summed over every pass of their kind;
/// every pass of a kind repeats the same counts, so dividing by the
/// number of passes gives the exact per-pass value.
#[derive(Debug, Clone, Default)]
pub struct RunTotals {
    /// Set-up samples, one per stand-up of the workload's deployments.
    pub setups: Vec<SetupTimes>,
    /// Packets and failures across all passes, warm-up included.
    pub counts: PassCounts,
    /// Batched passes run.
    pub batch_passes: u64,
    /// Measured packets over all batched passes and middleboxes.
    pub batch_pkts: u64,
    /// Timing of the batched calls, per middlebox.
    pub batch: Vec<BatchTiming>,
    /// Summed batched-call time of each batched pass.
    pub pass_batch_ns: Vec<u64>,
    /// Per middlebox and burst of the measured stream: the least time
    /// any batched pass spent in that burst's calls.
    pub least_burst_ns: Vec<Vec<u64>>,
    /// Counters at the end of each batched pass (whole stream, warm-up
    /// included), summed over passes.
    pub counters: LayerCounters,
    /// Per-packet service times, all passes.
    pub latency: LogHist,
    /// Median service time of each per-packet pass.
    pub pass_p50: Vec<f64>,
    /// 99th-percentile service time of each per-packet pass.
    pub pass_p99: Vec<f64>,
    /// Per middlebox and measured packet: the least service time any
    /// per-packet pass measured for it.
    pub least_latency_ns: Vec<Vec<u32>>,
    /// Traced passes run.
    pub traced_passes: u64,
    /// Spans folded over all traced passes.
    pub layers: LayerStats,
    /// Non-duration values of the traced passes.
    pub extras: TraceExtras,
    /// Counter deltas of the traced passes.
    pub traced_counters: LayerCounters,
    /// Spans of the last traced pass.
    pub last_spans: Vec<Span>,
    /// Output-check failures.
    pub mismatches: Vec<String>,
}

/// Inject `descs`, which start at stream position `k0`, one
/// `inject_into` call at a time, timing each call; `samples` gets every
/// service time in stream order.
#[allow(clippy::too_many_arguments)]
fn drive_per_packet(
    d: &mut Deployment,
    descs: &[PktDesc],
    k0: usize,
    out: &mut Vec<(PortId, Packet)>,
    digest: &mut Digest,
    counts: &mut PassCounts,
    latency: &mut LogHist,
    samples: &mut Vec<u32>,
) {
    samples.clear();
    for (i, desc) in descs.iter().enumerate() {
        let pkt = desc.packet();
        d.set_time_ns(clock_ns(k0 + i));
        let t0 = Instant::now();
        let r = d.inject_into(pkt, out);
        let t1 = Instant::now();
        latency.record(ns(t0, t1));
        samples.push(u32::try_from(ns(t0, t1)).unwrap_or(u32::MAX));
        counts.attempted += 1;
        if r.is_err() {
            // As `inject_batch_into` does: drop the failing packet's
            // partial emissions.
            counts.failed += 1;
            out.clear();
        }
        digest.emissions(out);
        out.clear();
    }
}

/// Inject `descs`, which start at stream position `k0`, through the
/// traced composition, appending one span tree per packet to `spans`;
/// packets get ids from `first_id` on.
#[allow(clippy::too_many_arguments)]
fn drive_traced(
    d: &mut Deployment,
    descs: &[PktDesc],
    k0: usize,
    first_id: usize,
    epoch: Instant,
    out: &mut Vec<(PortId, Packet)>,
    digest: &mut Digest,
    counts: &mut PassCounts,
    spans: &mut Vec<Span>,
    extras: &mut TraceExtras,
) {
    let mut scratch = TraceScratch::default();
    let mut after_sync = false;
    for (i, desc) in descs.iter().enumerate() {
        let id = u32::try_from(first_id + i).expect("a pass fits 32-bit packet ids");
        let r = traced_packet(
            d,
            desc.packet(),
            clock_ns(k0 + i),
            id,
            after_sync,
            epoch,
            out,
            &mut scratch,
            spans,
            extras,
        );
        counts.attempted += 1;
        match r {
            Ok(synced) => after_sync = synced,
            Err(()) => counts.failed += 1,
        }
        digest.emissions(out);
        out.clear();
    }
}

/// Fold one pass's times into the run's least time per stream position
/// (`none` stands for a position no pass has timed yet).
fn keep_least<T: Copy + Ord>(least: &mut Vec<T>, pass: &[T], none: T) {
    if least.len() < pass.len() {
        least.resize(pass.len(), none);
    }
    for (l, &p) in least.iter_mut().zip(pass) {
        *l = (*l).min(p);
    }
}

/// Measure `w` for at least `seconds` (and at least `min_rounds` rounds):
/// each round runs a batched and a per-packet pass, plus a traced pass
/// when `traced`, each on freshly stood-up deployments.
pub fn run(
    w: &Workload,
    refs: &[Reference],
    seconds: f64,
    min_rounds: usize,
    traced: bool,
) -> Result<RunTotals, String> {
    let mut t = RunTotals {
        batch: vec![BatchTiming::default(); w.mbs.len()],
        least_burst_ns: vec![Vec::new(); w.mbs.len()],
        least_latency_ns: vec![Vec::new(); w.mbs.len()],
        ..RunTotals::default()
    };
    let warm = warmup_len(w.stream.len());
    let measured = &w.stream[warm..];
    let passes: &[Pass] = if traced {
        &[Pass::Batched, Pass::PerPacket, Pass::Traced]
    } else {
        &[Pass::Batched, Pass::PerPacket]
    };
    let mut out: Vec<(PortId, Packet)> = Vec::new();
    let mut latency = LogHist::default();
    let mut bursts: Vec<u64> = Vec::new();
    let mut samples: Vec<u32> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    // Per middlebox, what the first pass observed; later passes must match.
    let mut first: Vec<Option<Observed>> = vec![None; w.mbs.len()];
    let epoch = Instant::now();
    let mut rounds = 0usize;
    while rounds < min_rounds || epoch.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        for &pass in passes {
            let mut times = SetupTimes::default();
            let mut counts = PassCounts::default();
            let mut stood = Vec::with_capacity(w.mbs.len());
            for mb in &w.mbs {
                stood.push(stand_up(mb, &w.stream, &mut times, &mut counts, &mut out)?);
            }
            t.setups.push(times);
            let batch_ns_before: u64 = t.batch.iter().map(|b| b.ns).sum();
            latency.clear();
            spans.clear();
            for (m, (mb, s)) in w.mbs.iter().zip(&mut stood).enumerate() {
                let mut pass_counts = PassCounts::default();
                let (d, digest) = (&mut s.d, &mut s.digest);
                match pass {
                    Pass::Batched => {
                        drive_batched(
                            d,
                            measured,
                            warm,
                            &mut out,
                            digest,
                            &mut pass_counts,
                            &mut t.batch[m],
                            &mut bursts,
                        );
                        keep_least(&mut t.least_burst_ns[m], &bursts, u64::MAX);
                        // Whole-stream totals (warm-up included): the
                        // exact metrics then depend on the flow mix only,
                        // not on which packets the seed put in the warm-up.
                        t.counters.add(&LayerCounters::of(d));
                        t.batch_pkts += pass_counts.attempted;
                    }
                    Pass::PerPacket => {
                        drive_per_packet(
                            d,
                            measured,
                            warm,
                            &mut out,
                            digest,
                            &mut pass_counts,
                            &mut latency,
                            &mut samples,
                        );
                        keep_least(&mut t.least_latency_ns[m], &samples, u32::MAX);
                    }
                    Pass::Traced => {
                        let before = LayerCounters::of(d);
                        drive_traced(
                            d,
                            measured,
                            warm,
                            m * measured.len(),
                            epoch,
                            &mut out,
                            digest,
                            &mut pass_counts,
                            &mut spans,
                            &mut t.extras,
                        );
                        t.traced_counters.add(&LayerCounters::of(d).since(&before));
                    }
                }
                let name = pass.name();
                t.mismatches.extend(check_against_reference(
                    mb.label, name, &s.d, &s.digest, &refs[m],
                ));
                let observed = Observed {
                    emissions: s.digest.full(),
                    switch: s.d.switch.stats,
                    server: s.d.server.stats,
                    counts: pass_counts,
                };
                match &first[m] {
                    None => first[m] = Some(observed),
                    Some(o) if *o != observed => t.mismatches.push(format!(
                        "{} {name}: emissions, switch/server counters or failures differ \
                         from the run's first pass",
                        mb.label
                    )),
                    Some(_) => {}
                }
                counts.attempted += pass_counts.attempted;
                counts.failed += pass_counts.failed;
            }
            match pass {
                Pass::Batched => {
                    t.batch_passes += 1;
                    let batch_ns: u64 = t.batch.iter().map(|b| b.ns).sum();
                    t.pass_batch_ns.push(batch_ns - batch_ns_before);
                }
                Pass::PerPacket => {
                    t.pass_p50.push(latency.quantile(0.50));
                    t.pass_p99.push(latency.quantile(0.99));
                    t.latency.merge(&latency);
                }
                Pass::Traced => {
                    t.layers.fold(&spans);
                    t.traced_passes += 1;
                }
            }
            t.counts.attempted += counts.attempted;
            t.counts.failed += counts.failed;
        }
    }
    t.last_spans = spans;
    Ok(t)
}

/// Share of the workload's instructions the partitioner left on the
/// server, and the micro-ops of the switch plans, over all middleboxes.
pub fn static_shape(w: &Workload) -> Result<(f64, u64), String> {
    let mut server_insts = 0usize;
    let mut insts = 0usize;
    let mut micro_ops = 0u64;
    for mb in &w.mbs {
        let compiled = compile(&mb.prog, &SwitchModel::tofino_like())
            .map_err(|e| format!("{}: compile: {e}", mb.label))?;
        let a = &compiled.staged.assignment;
        insts += a.len();
        server_insts += a.iter().filter(|p| **p == Partition::NonOffloaded).count();
        let plan = ExecPlan::build_with(
            &compiled.p4,
            PlanOptions {
                fuse: SwitchConfig::default().plan_fusion,
            },
        )
        .map_err(|e| format!("{}: plan: {e}", mb.label))?;
        micro_ops += plan.expr_stats().micro_ops;
    }
    Ok((server_insts as f64 / insts.max(1) as f64, micro_ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{self, Sizes};

    fn small() -> Sizes {
        Sizes {
            nat_flows: 128,
            nat_packets: 1024,
            lb_idle: 32,
            lb_flows: 128,
            conga_flows: 20,
        }
    }

    fn references(w: &Workload) -> Vec<Reference> {
        w.mbs
            .iter()
            .map(|mb| reference(mb, &w.stream).expect("reference runs"))
            .collect()
    }

    #[test]
    fn every_workload_matches_the_reference_in_every_pass() {
        for name in traffic::WORKLOADS {
            let w = traffic::build(name, 1, &small()).expect("known workload");
            let t = run(&w, &references(&w), 0.0, 1, true).expect("stands up");
            assert!(t.mismatches.is_empty(), "{name}: {:?}", t.mismatches);
            assert_eq!(t.counts.failed, 0, "{name}");
            assert_eq!(
                t.counts.attempted,
                3 * (w.stream.len() * w.mbs.len()) as u64
            );
            assert_eq!(t.traced_passes, 1);
            let pre = &t.layers.dur[Layer::Pre as usize];
            assert_eq!(
                pre.count() as usize,
                (w.stream.len() - WARMUP) * w.mbs.len()
            );
        }
    }

    #[test]
    fn least_times_are_kept_per_stream_position() {
        let mut least = Vec::new();
        keep_least(&mut least, &[5u64, 9, 7], u64::MAX);
        keep_least(&mut least, &[6, 3, 7], u64::MAX);
        keep_least(&mut least, &[4, 8, 8], u64::MAX);
        assert_eq!(least, [4, 3, 7]);
    }

    #[test]
    fn nat_established_never_reaches_the_server_or_allocates() {
        let w = traffic::build("nat-established", 2, &small()).expect("known workload");
        let t = run(&w, &references(&w), 0.0, 1, true).expect("stands up");
        assert_eq!(t.counters.to_server, 0);
        assert_eq!(t.layers.dur[Layer::Server as usize].count(), 0);
        let allocs: u64 = t.batch.iter().map(|b| b.allocs).sum();
        assert_eq!(allocs, 0, "warm batched injects allocate nothing");
    }

    /// An under-sized connection table makes the sync inserts of new
    /// flows fail. Every failure is counted and the rest of its burst is
    /// resubmitted, so the run still attempts every packet.
    #[test]
    fn undersized_table_yields_failures_without_shortening_the_run() {
        let sizes = small();
        let mut w = traffic::build("lb-short-flows", 1, &sizes).expect("known workload");
        let prog = &mut w.mbs[0].prog;
        let conn = prog.state_by_name("conn").expect("lb declares conn");
        match &mut prog.states[conn.0 as usize].kind {
            StateKind::Map { max_entries, .. } => {
                *max_entries = Some(sizes.lb_idle as usize + 4);
            }
            other => panic!("conn is a map, not {other:?}"),
        }
        let t = run(&w, &references(&w), 0.0, 1, false).expect("stands up");
        let failed_frac = t.counts.failed as f64 / t.counts.attempted as f64;
        assert!(failed_frac > 0.0, "failures counted: {:?}", t.counts);
        assert_eq!(t.counts.attempted, 2 * w.stream.len() as u64);
        assert!(
            !t.mismatches.is_empty(),
            "dropped packets cannot match the reference"
        );
    }
}
