//! The data-plane execution engine.
//!
//! Two packet paths share the same runtime state (tables, registers,
//! routes, counters):
//!
//! * the **compiled plan** (default, [`Switch::load`]) — the program is
//!   lowered once at load time by [`crate::plan`] and each packet runs a
//!   flat opcode stream with a reusable scratch buffer;
//! * the **AST interpreter** ([`Switch::load_interpreter`]) — the original
//!   reference semantics, retained as the differential-testing oracle.

use crate::fasthash::FastBuildHasher;
use crate::loader::{load_check, LoadError};
use crate::plan::{route_for, run_plan, ExecPlan, PlanCtx, PlanOptions, PlanScratch};
use crate::table::RtTable;
use gallium_mir::interp::{
    hash_values, read_header_field, refresh_ip_checksum, write_header_field,
};
use gallium_mir::types::mask_to_width;
use gallium_net::transfer::{FLAG_TO_SERVER, FLAG_TO_SWITCH};
use gallium_net::{Packet, PortId, TransferValues};
use gallium_p4::{NodeNext, P4Expr, P4Program, P4Stmt};
use gallium_partition::SwitchModel;
use gallium_telemetry::names;
use gallium_telemetry::trace::{DropReason, EventKind, Hop, Tracer};
use std::collections::HashMap;
use std::sync::Arc;

/// Flag bit on server→switch packets: run the post-processing traversal.
pub const FLAG_RUN_POST: u8 = 0x04;
/// Flag bit on server→switch packets: the server already emitted this
/// packet (a server-side `send`); forward it out without processing.
pub const FLAG_PASSTHROUGH: u8 = 0x08;
/// Flag bit on switch→server packets: a lookup missed in a *cached* table
/// (§7 extension); the server must replay the whole program against its
/// authoritative state.
pub const FLAG_CACHE_MISS: u8 = 0x10;

/// Static switch configuration.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Port the middlebox server is attached to.
    pub server_port: PortId,
    /// Egress for destinations without an explicit route.
    pub default_port: PortId,
    /// Resource model enforced at load time.
    pub model: SwitchModel,
    /// Tables operated as FIFO caches of the server's authoritative map,
    /// with the given entry capacity (§7 "reducing memory usage").
    pub cached_tables: Vec<(String, usize)>,
    /// Enable the plan compiler's fusion layer (cross-statement CSE,
    /// store fusion into superinstructions, dead-store elimination,
    /// branch folding). On by default; the unfused lowering is kept for
    /// fused ≡ unfused differential tests.
    pub plan_fusion: bool,
    /// Run the symbolic translation validator ([`crate::symcheck`]) on
    /// the compiled plan at load time, rejecting a load whose plan is
    /// not provably equal to the P4 AST. On by default in debug builds
    /// and tests; opt-in in release (validation is load-time only — the
    /// warm path never pays for it either way).
    pub validate_plan: bool,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            server_port: PortId::SERVER,
            default_port: PortId(0),
            model: SwitchModel::tofino_like(),
            cached_tables: Vec::new(),
            plan_fusion: true,
            validate_plan: cfg!(debug_assertions),
        }
    }
}

/// Data-plane counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets received from the network.
    pub rx_network: u64,
    /// Packets received from the server.
    pub rx_server: u64,
    /// Packets fully handled in the data plane (never saw the server).
    pub fast_path: u64,
    /// Packets encapsulated and forwarded to the server.
    pub to_server: u64,
    /// Packets emitted toward the network.
    pub emitted: u64,
    /// Packets dropped by `mark_to_drop`.
    pub dropped: u64,
    /// Pre-traversal lookups that missed in a cached table (each forces a
    /// server replay).
    pub cache_misses: u64,
    /// Drop attribution: drops from an explicit program `mark_to_drop`.
    /// Together with [`SwitchStats::drop_malformed`] this partitions
    /// [`SwitchStats::dropped`] — every switch drop has exactly one reason.
    pub drop_marked: u64,
    /// Drop attribution: frames that cannot cross the switch/server
    /// boundary — server-origin frames that failed encapsulation sanity
    /// checks, and server-bound network frames too short for an Ethernet
    /// header or already carrying the Gallium EtherType.
    pub drop_malformed: u64,
}

/// The simulated switch: a loaded program plus its runtime state.
#[derive(Debug)]
pub struct Switch {
    prog: P4Program,
    cfg: SwitchConfig,
    /// The compiled execution plan; `None` on the interpreter path.
    plan: Option<ExecPlan>,
    /// Per-switch scratch reused across packets on the plan path.
    scratch: PlanScratch,
    tables: Vec<RtTable>,
    registers: Vec<u64>,
    pub(crate) wb_active: bool,
    routes: HashMap<u32, PortId, FastBuildHasher>,
    meta_bits: HashMap<String, u16>,
    /// Set during a traversal when a cached table misses.
    cache_missed: bool,
    /// Keys displaced from cache-mode tables by control-plane inserts,
    /// as `(table name, key)` pairs awaiting [`Switch::drain_evictions`].
    /// LPM evictions are recorded as `[prefix, prefix_len]`.
    pub(crate) evictions: Vec<(String, Vec<u64>)>,
    /// Flight recorder shared with the rest of the deployment; `None`
    /// (the default) keeps the packet path free of trace checks beyond
    /// one branch.
    tracer: Option<Arc<Tracer>>,
    /// Trace id of the packet currently in flight, when sampled.
    active_trace: Option<u32>,
    /// Data-plane counters.
    pub stats: SwitchStats,
}

impl Switch {
    /// Load `prog` after validating it against `cfg.model`, lowering it to
    /// a compiled execution plan (the default packet path).
    pub fn load(prog: P4Program, cfg: SwitchConfig) -> Result<Self, LoadError> {
        Self::load_inner(prog, cfg, true)
    }

    /// Load `prog` on the AST-interpreter path (no plan compilation).
    ///
    /// The interpreter is the reference semantics the plan is validated
    /// against; production paths should use [`Switch::load`].
    pub fn load_interpreter(prog: P4Program, cfg: SwitchConfig) -> Result<Self, LoadError> {
        Self::load_inner(prog, cfg, false)
    }

    fn load_inner(
        prog: P4Program,
        cfg: SwitchConfig,
        compile_plan: bool,
    ) -> Result<Self, LoadError> {
        load_check(&prog, &cfg.model)?;
        let plan = if compile_plan {
            let reg = gallium_telemetry::global();
            let timer = reg.histogram(names::PLAN_BUILD_NS).time();
            let built = ExecPlan::build_with(
                &prog,
                PlanOptions {
                    fuse: cfg.plan_fusion,
                },
            )
            .map_err(|e| LoadError::Plan {
                reason: e.to_string(),
            })?;
            drop(timer);
            reg.counter(names::PLAN_COMPILED).inc();
            reg.histogram(names::PLAN_OPS)
                .record(built.op_count() as u64);
            reg.histogram(names::PLAN_META_SLOTS)
                .record(built.slot_count() as u64);
            let xs = built.expr_stats();
            reg.histogram(names::PLAN_EXPR_MICRO_OPS)
                .record(xs.micro_ops);
            reg.histogram(names::PLAN_EXPR_REGS).record(xs.regs);
            reg.counter(names::PLAN_EXPR_CONST_FOLDED).add(xs.folded);
            reg.counter(names::PLAN_EXPR_CSE_HITS).add(xs.cse_hits);
            reg.counter(names::PLAN_EXPR_FUSED).add(xs.fused);
            reg.counter(names::PLAN_EXPR_DEAD_OPS).add(xs.dead);
            if cfg.validate_plan {
                let timer = reg.histogram(names::VERIFY_PLAN_SYMCHECK_NS).time();
                let checked = crate::symcheck::check_plan(&prog, &built);
                drop(timer);
                match checked {
                    Ok(_) => reg.counter(names::VERIFY_PLAN_PROVED).inc(),
                    Err(e) => {
                        reg.counter(names::VERIFY_PLAN_ERRORS).inc();
                        return Err(LoadError::PlanEquivalence(e));
                    }
                }
            }
            Some(built)
        } else {
            None
        };
        let scratch = plan
            .as_ref()
            .map(PlanScratch::sized_for)
            .unwrap_or_default();
        let mut tables: Vec<RtTable> = prog
            .tables
            .iter()
            .map(|t| {
                let mut rt = RtTable::new(t.size);
                if t.match_kind == gallium_p4::TableMatchKind::Lpm {
                    rt.make_lpm(t.key_widths.first().copied().unwrap_or(32));
                }
                rt
            })
            .collect();
        for (name, entries) in &cfg.cached_tables {
            if let Some(i) = prog.tables.iter().position(|t| &t.name == name) {
                tables[i].make_cache(*entries);
            }
        }
        let registers = vec![0; prog.registers.len()];
        let meta_bits = prog
            .metadata
            .iter()
            .map(|m| (m.name.clone(), m.bits))
            .collect();
        Ok(Switch {
            prog,
            cfg,
            plan,
            scratch,
            tables,
            registers,
            wb_active: false,
            routes: HashMap::default(),
            meta_bits,
            cache_missed: false,
            evictions: Vec::new(),
            tracer: None,
            active_trace: None,
            stats: SwitchStats::default(),
        })
    }

    /// Whether packets run through the compiled execution plan (`true`
    /// after [`Switch::load`]) or the AST interpreter (`false` after
    /// [`Switch::load_interpreter`]).
    pub fn uses_plan(&self) -> bool {
        self.plan.is_some()
    }

    /// Attach (or detach, with `None`) a flight recorder. Events are only
    /// emitted while a sampled packet is marked in flight via
    /// [`Switch::set_active_trace`].
    pub fn set_tracer(&mut self, tracer: Option<Arc<Tracer>>) {
        self.tracer = tracer;
    }

    /// Mark the packet currently being processed as sampled under the
    /// given trace id (or clear with `None`). Set by the deployment
    /// around each sampled packet's flight.
    #[inline]
    pub fn set_active_trace(&mut self, id: Option<u32>) {
        self.active_trace = id;
    }

    /// Number of cache-eviction records awaiting
    /// [`Switch::drain_evictions`] — lets observers detect eviction
    /// activity across a window without consuming the records.
    pub fn eviction_count(&self) -> usize {
        self.evictions.len()
    }

    /// Take the keys evicted from cache-mode tables since the last drain,
    /// as `(table name, key)` pairs in eviction order. The control plane
    /// uses this to learn which entries fell out of a FIFO cache (§7);
    /// LPM evictions are reported as `[prefix, prefix_len]`.
    pub fn drain_evictions(&mut self) -> Vec<(String, Vec<u64>)> {
        std::mem::take(&mut self.evictions)
    }

    /// The loaded program.
    pub fn program(&self) -> &P4Program {
        &self.prog
    }

    /// Install a route: packets whose IPv4 destination equals `daddr`
    /// egress on `port`.
    pub fn add_route(&mut self, daddr: u32, port: PortId) {
        self.routes.insert(daddr, port);
    }

    /// Runtime table access (tests and the control plane). Writes through
    /// it update the table's perfect-hash read layout in place, so the
    /// next packet probes the current entries with nothing to fold in.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut RtTable> {
        let i = self.prog.tables.iter().position(|t| t.name == name)?;
        Some(&mut self.tables[i])
    }

    /// Read-only table access.
    pub fn table(&self, name: &str) -> Option<&RtTable> {
        let i = self.prog.tables.iter().position(|t| t.name == name)?;
        Some(&self.tables[i])
    }

    /// Read a register by name.
    pub fn register(&self, name: &str) -> Option<u64> {
        let i = self.prog.registers.iter().position(|r| r.name == name)?;
        Some(self.registers[i])
    }

    /// Set a register by name (control plane).
    pub(crate) fn set_register(&mut self, name: &str, value: u64) -> bool {
        if let Some(i) = self.prog.registers.iter().position(|r| r.name == name) {
            self.registers[i] = mask_to_width(value, self.prog.registers[i].width);
            true
        } else {
            false
        }
    }

    /// Whether staged write-back entries are currently visible.
    pub fn write_back_active(&self) -> bool {
        self.wb_active
    }

    /// Export the switch's runtime counters as a telemetry snapshot:
    /// data-plane totals under `gallium.switchsim.switch.*`, per-table
    /// hit/miss/eviction counters and occupancy under
    /// `gallium.switchsim.table.<name>.*`, and register occupancy under
    /// `gallium.switchsim.registers.*`.
    pub fn telemetry_snapshot(&self) -> gallium_telemetry::TelemetrySnapshot {
        let mut snap = gallium_telemetry::TelemetrySnapshot::default();
        let s = &self.stats;
        snap.set_counter(names::SWITCH_RX_NETWORK, s.rx_network);
        snap.set_counter(names::SWITCH_RX_SERVER, s.rx_server);
        snap.set_counter(names::SWITCH_FAST_PATH, s.fast_path);
        snap.set_counter(names::SWITCH_TO_SERVER, s.to_server);
        snap.set_counter(names::SWITCH_EMITTED, s.emitted);
        snap.set_counter(names::SWITCH_DROPPED, s.dropped);
        snap.set_counter(names::SWITCH_CACHE_MISSES, s.cache_misses);
        snap.set_counter(names::DROP_SWITCH_MARKED, s.drop_marked);
        snap.set_counter(names::DROP_SWITCH_MALFORMED_ENCAP, s.drop_malformed);
        let mut rebuilds = 0u64;
        let mut probes = 0u64;
        for (decl, rt) in self.prog.tables.iter().zip(&self.tables) {
            snap.set_counter(
                &names::table_metric(&decl.name, "hits"),
                rt.stats.hits.get(),
            );
            snap.set_counter(
                &names::table_metric(&decl.name, "misses"),
                rt.stats.misses.get(),
            );
            snap.set_counter(
                &names::table_metric(&decl.name, "evictions"),
                rt.stats.evictions.get(),
            );
            snap.set_counter(&names::table_metric(&decl.name, "entries"), rt.len() as u64);
            snap.set_counter(
                &names::table_metric(&decl.name, "capacity"),
                decl.size as u64,
            );
            snap.set_counter(
                &names::table_metric(&decl.name, "rebuilds"),
                rt.stats.rebuilds.get(),
            );
            snap.set_counter(
                &names::table_metric(&decl.name, "probe"),
                rt.stats.probes.get(),
            );
            rebuilds += rt.stats.rebuilds.get();
            probes += rt.stats.probes.get();
        }
        // Aggregates across all tables: full perfect-hash layout builds
        // and one-shot probes served by the flat layout.
        snap.set_counter(names::TABLE_REBUILDS, rebuilds);
        snap.set_counter(names::TABLE_PROBES, probes);
        snap.set_counter(names::SWITCH_REGISTERS_COUNT, self.registers.len() as u64);
        snap.set_counter(
            names::SWITCH_REGISTERS_NONZERO,
            self.registers.iter().filter(|&&v| v != 0).count() as u64,
        );
        snap
    }

    /// Process one packet; returns `(egress port, frame)` pairs.
    pub fn process(&mut self, pkt: Packet) -> Vec<(PortId, Packet)> {
        let mut out = Vec::new();
        self.process_into(pkt, &mut out);
        out
    }

    /// Process one packet, appending `(egress port, frame)` pairs to
    /// `out` — the allocation-reusing core of [`Switch::process`].
    pub fn process_into(&mut self, pkt: Packet, out: &mut Vec<(PortId, Packet)>) {
        if self.plan.is_some() {
            self.process_planned(pkt, out);
        } else {
            self.process_interp(pkt, out);
        }
    }

    /// Process a burst of packets, appending every emission to `out` in
    /// arrival order: a plain loop over [`Switch::process_into`], so a
    /// burst behaves exactly like the same packets processed one by one.
    /// Lets callers reuse one output buffer across bursts.
    pub fn process_batch(
        &mut self,
        pkts: impl IntoIterator<Item = Packet>,
        out: &mut Vec<(PortId, Packet)>,
    ) {
        for pkt in pkts {
            self.process_into(pkt, out);
        }
    }

    /// The compiled-plan packet path.
    fn process_planned(&mut self, mut pkt: Packet, out: &mut Vec<(PortId, Packet)>) {
        let Switch {
            prog,
            cfg,
            plan,
            scratch,
            tables,
            registers,
            wb_active,
            routes,
            tracer,
            active_trace,
            stats,
            ..
        } = self;
        // One option construction per packet; `None` whenever tracing is
        // disabled or this packet was not sampled.
        let trace = match (tracer.as_deref(), *active_trace) {
            (Some(t), Some(id)) => Some((t, id)),
            _ => None,
        };
        let plan = plan
            .as_ref()
            .expect("planned path requires a compiled plan");
        if pkt.ingress == cfg.server_port {
            stats.rx_server += 1;
            scratch.meta.fill(0);
            let meta = &mut scratch.meta;
            let slots = &plan.from_server_slots;
            let Ok(flags) = prog
                .header_to_switch
                .detach_with(&mut pkt, |i, _, v| meta[usize::from(slots[i])] = v)
            else {
                // Malformed encapsulation: drop, as hardware would.
                drop_malformed(stats, trace, Hop::SwitchPost);
                return;
            };
            if flags & FLAG_PASSTHROUGH != 0 {
                stats.emitted += 1;
                let port = route_for(routes, cfg.default_port, &pkt);
                if let Some((t, id)) = trace {
                    t.emit(id, Hop::SwitchPost, EventKind::Emit, u64::from(port.0));
                }
                out.push((port, pkt));
                return;
            }
            let mut ctx = PlanCtx {
                tables: tables.as_slice(),
                registers: registers.as_mut_slice(),
                wb_active: *wb_active,
                routes,
                default_port: cfg.default_port,
                trace: trace.map(|(t, id)| (t, id, Hop::SwitchPost)),
                stats,
            };
            run_plan(&plan.post, &mut ctx, scratch, &mut pkt, out);
        } else {
            stats.rx_network += 1;
            // Cache mode: keep a pristine copy; a cached-table miss voids
            // the traversal and the original packet is replayed on the
            // server.
            let pristine = tables.iter().any(|t| t.is_cache()).then(|| pkt.clone());
            scratch.meta.fill(0);
            let mark = out.len();
            let run = {
                let mut ctx = PlanCtx {
                    tables: tables.as_slice(),
                    registers: registers.as_mut_slice(),
                    wb_active: *wb_active,
                    routes,
                    default_port: cfg.default_port,
                    trace: trace.map(|(t, id)| (t, id, Hop::SwitchPre)),
                    stats: &mut *stats,
                };
                run_plan(&plan.pre, &mut ctx, scratch, &mut pkt, out)
            };
            if run.cache_missed {
                out.truncate(mark);
                stats.cache_misses += 1;
                let mut orig = pristine.expect("pristine kept in cache mode");
                if prog
                    .header_to_server
                    .attach_with(&mut orig, FLAG_TO_SERVER | FLAG_CACHE_MISS, |_, _| 0)
                    .is_err()
                {
                    drop_malformed(stats, trace, Hop::SwitchPre);
                    return;
                }
                stats.to_server += 1;
                if let Some((t, id)) = trace {
                    t.emit(id, Hop::Transfer, EventKind::ToServer, orig.len() as u64);
                }
                out.push((cfg.server_port, orig));
                return;
            }
            if run.saw_foreign {
                let meta = &scratch.meta;
                let slots = &plan.to_server_slots;
                if prog
                    .header_to_server
                    .attach_with(&mut pkt, FLAG_TO_SERVER, |i, _| meta[usize::from(slots[i])])
                    .is_err()
                {
                    drop_malformed(stats, trace, Hop::SwitchPre);
                    return;
                }
                stats.to_server += 1;
                if let Some((t, id)) = trace {
                    t.emit(id, Hop::Transfer, EventKind::ToServer, pkt.len() as u64);
                }
                out.push((cfg.server_port, pkt));
            } else {
                stats.fast_path += 1;
            }
        }
    }

    /// The legacy AST-interpreter path (differential-testing oracle).
    fn process_interp(&mut self, mut pkt: Packet, out: &mut Vec<(PortId, Packet)>) {
        let Switch {
            prog,
            cfg,
            tables,
            registers,
            wb_active,
            routes,
            meta_bits,
            cache_missed,
            tracer,
            active_trace,
            stats,
            ..
        } = self;
        let trace = match (tracer.as_deref(), *active_trace) {
            (Some(t), Some(id)) => Some((t, id)),
            _ => None,
        };
        let prog = &*prog;
        if pkt.ingress == cfg.server_port {
            stats.rx_server += 1;
            let Ok((flags, values)) = prog.header_to_switch.detach(&mut pkt) else {
                // Malformed encapsulation: drop, as hardware would.
                drop_malformed(stats, trace, Hop::SwitchPost);
                return;
            };
            if flags & FLAG_PASSTHROUGH != 0 {
                stats.emitted += 1;
                let port = route_for(routes, cfg.default_port, &pkt);
                if let Some((t, id)) = trace {
                    t.emit(id, Hop::SwitchPost, EventKind::Emit, u64::from(port.0));
                }
                out.push((port, pkt));
                return;
            }
            let mut meta: HashMap<String, u64> =
                values.iter().map(|(k, v)| (k.to_string(), v)).collect();
            let mut ctx = InterpCtx {
                tables: tables.as_slice(),
                registers: registers.as_mut_slice(),
                meta_bits,
                routes,
                default_port: cfg.default_port,
                wb_active: *wb_active,
                trace: trace.map(|(t, id)| (t, id, Hop::SwitchPost)),
                stats: &mut *stats,
                cache_missed: &mut *cache_missed,
            };
            run_traversal(prog, false, &mut ctx, &mut pkt, &mut meta, out);
        } else {
            stats.rx_network += 1;
            // Cache mode: keep a pristine copy; a cached-table miss voids
            // the traversal and the original packet is replayed on the
            // server.
            let pristine = tables.iter().any(|t| t.is_cache()).then(|| pkt.clone());
            *cache_missed = false;
            let mut meta = HashMap::new();
            let mark = out.len();
            let needs_server = {
                let mut ctx = InterpCtx {
                    tables: tables.as_slice(),
                    registers: registers.as_mut_slice(),
                    meta_bits,
                    routes,
                    default_port: cfg.default_port,
                    wb_active: *wb_active,
                    trace: trace.map(|(t, id)| (t, id, Hop::SwitchPre)),
                    stats: &mut *stats,
                    cache_missed: &mut *cache_missed,
                };
                run_traversal(prog, true, &mut ctx, &mut pkt, &mut meta, out)
            };
            if *cache_missed {
                out.truncate(mark);
                stats.cache_misses += 1;
                let mut orig = pristine.expect("pristine kept in cache mode");
                if prog
                    .header_to_server
                    .attach(
                        &mut orig,
                        FLAG_TO_SERVER | FLAG_CACHE_MISS,
                        &TransferValues::default(),
                    )
                    .is_err()
                {
                    drop_malformed(stats, trace, Hop::SwitchPre);
                    return;
                }
                stats.to_server += 1;
                if let Some((t, id)) = trace {
                    t.emit(id, Hop::Transfer, EventKind::ToServer, orig.len() as u64);
                }
                out.push((cfg.server_port, orig));
                return;
            }
            if needs_server {
                if prog
                    .header_to_server
                    .attach_with(&mut pkt, FLAG_TO_SERVER, |_, f| {
                        meta.get(&f.name).copied().unwrap_or(0)
                    })
                    .is_err()
                {
                    drop_malformed(stats, trace, Hop::SwitchPre);
                    return;
                }
                stats.to_server += 1;
                if let Some((t, id)) = trace {
                    t.emit(id, Hop::Transfer, EventKind::ToServer, pkt.len() as u64);
                }
                out.push((cfg.server_port, pkt));
            } else {
                stats.fast_path += 1;
            }
        }
    }
}

/// The mutable runtime state the AST interpreter touches, borrowed
/// field-by-field so the program's node lists need no per-packet clone.
struct InterpCtx<'a> {
    tables: &'a [RtTable],
    registers: &'a mut [u64],
    meta_bits: &'a HashMap<String, u16>,
    routes: &'a HashMap<u32, PortId, FastBuildHasher>,
    default_port: PortId,
    wb_active: bool,
    /// Flight-recorder hook for the sampled packet in flight, with the
    /// hop label of this traversal.
    trace: Option<(&'a Tracer, u32, Hop)>,
    stats: &'a mut SwitchStats,
    cache_missed: &'a mut bool,
}

/// Drop a frame that cannot cross the switch/server boundary: a
/// server-origin frame without a valid transfer header, or a server-bound
/// network frame the transfer header cannot be attached to (shorter than
/// an Ethernet header, or already carrying the Gallium EtherType). Counted
/// under exactly one reason, [`SwitchStats::drop_malformed`]. Cold: kept
/// out of line so the packet paths stay compact.
#[cold]
fn drop_malformed(stats: &mut SwitchStats, trace: Option<(&Tracer, u32)>, hop: Hop) {
    stats.dropped += 1;
    stats.drop_malformed += 1;
    if let Some((t, id)) = trace {
        t.emit(
            id,
            hop,
            EventKind::Drop,
            DropReason::SwitchMalformedEncap as u64,
        );
    }
}

/// Walk one traversal of `prog` (pre or post). Emitted packets are
/// appended to `out`; returns whether later-stage work was encountered on
/// the path (meaningful for pre only).
fn run_traversal(
    prog: &P4Program,
    is_pre: bool,
    ctx: &mut InterpCtx<'_>,
    pkt: &mut Packet,
    meta: &mut HashMap<String, u64>,
    out: &mut Vec<(PortId, Packet)>,
) -> bool {
    let nodes = if is_pre {
        &prog.pre_nodes
    } else {
        &prog.post_nodes
    };
    let mut saw_foreign = false;
    let mut cur = prog.entry;
    let mut steps = 0usize;
    loop {
        steps += 1;
        assert!(
            steps <= nodes.len() + 1,
            "pipeline traversal revisited a node (loop in generated P4)"
        );
        let node = &nodes[cur];
        saw_foreign |= is_pre && node.has_foreign_work;
        for stmt in &node.stmts {
            exec_stmt(prog, stmt, ctx, pkt, meta, out);
        }
        match &node.next {
            NodeNext::Jump(n) => cur = *n,
            NodeNext::Cond {
                meta: m,
                then_n,
                else_n,
            } => {
                let v = meta.get(m).copied().unwrap_or(0);
                cur = if v != 0 { *then_n } else { *else_n };
            }
            NodeNext::SkipJoin {
                join,
                skipped_has_foreign,
            } => {
                saw_foreign |= is_pre && *skipped_has_foreign;
                match join {
                    Some(j) => cur = *j,
                    None => break,
                }
            }
            NodeNext::End => break,
        }
    }
    saw_foreign
}

fn exec_stmt(
    prog: &P4Program,
    stmt: &P4Stmt,
    ctx: &mut InterpCtx<'_>,
    pkt: &mut Packet,
    meta: &mut HashMap<String, u64>,
    out: &mut Vec<(PortId, Packet)>,
) {
    match stmt {
        P4Stmt::SetMeta(name, e) => {
            let w = ctx.meta_bits.get(name).copied().unwrap_or(64);
            let v = eval_ast(e, pkt, meta);
            meta.insert(name.clone(), mask_to_width(v, w.min(64) as u8));
        }
        P4Stmt::SetHeader(f, e) => {
            let v = mask_to_width(eval_ast(e, pkt, meta), f.bits());
            write_header_field(pkt.bytes_mut(), *f, v);
        }
        P4Stmt::TableLookup {
            table,
            keys,
            hit_meta,
            value_metas,
        } => {
            let key: Vec<u64> = keys.iter().map(|k| eval_ast(k, pkt, meta)).collect();
            match ctx.tables[*table].lookup_ref(&key, ctx.wb_active) {
                Some(vals) => {
                    if let Some((t, id, hop)) = ctx.trace {
                        t.emit(id, hop, EventKind::TableHit, *table as u64);
                    }
                    meta.insert(hit_meta.clone(), 1);
                    for (m, v) in value_metas.iter().zip(vals) {
                        meta.insert(m.clone(), *v);
                    }
                }
                None => {
                    // A miss in a cached table is inconclusive — the
                    // authoritative map may hold the entry.
                    let cached = ctx.tables[*table].is_cache();
                    if cached {
                        *ctx.cache_missed = true;
                    }
                    if let Some((t, id, hop)) = ctx.trace {
                        let kind = if cached {
                            EventKind::CacheMiss
                        } else {
                            EventKind::TableMiss
                        };
                        t.emit(id, hop, kind, *table as u64);
                    }
                    meta.insert(hit_meta.clone(), 0);
                    for m in value_metas {
                        meta.insert(m.clone(), 0);
                    }
                }
            }
        }
        P4Stmt::RegRead { reg, dst } => {
            meta.insert(dst.clone(), ctx.registers[*reg]);
        }
        P4Stmt::RegWrite { reg, src } => {
            let w = prog.registers[*reg].width;
            ctx.registers[*reg] = mask_to_width(eval_ast(src, pkt, meta), w);
        }
        P4Stmt::RegFetchAdd { reg, dst, delta } => {
            let w = prog.registers[*reg].width;
            let old = ctx.registers[*reg];
            let d = eval_ast(delta, pkt, meta);
            ctx.registers[*reg] = mask_to_width(old.wrapping_add(d), w);
            meta.insert(dst.clone(), old);
        }
        P4Stmt::UpdateChecksum => refresh_ip_checksum(pkt.bytes_mut()),
        P4Stmt::EmitCopy => {
            ctx.stats.emitted += 1;
            let port = route_for(ctx.routes, ctx.default_port, pkt);
            if let Some((t, id, hop)) = ctx.trace {
                t.emit(id, hop, EventKind::Emit, u64::from(port.0));
            }
            out.push((port, pkt.clone()));
        }
        P4Stmt::MarkDrop => {
            ctx.stats.dropped += 1;
            ctx.stats.drop_marked += 1;
            if let Some((t, id, hop)) = ctx.trace {
                t.emit(id, hop, EventKind::Drop, DropReason::SwitchMarked as u64);
            }
        }
    }
}

pub(crate) fn eval_ast(e: &P4Expr, pkt: &Packet, meta: &HashMap<String, u64>) -> u64 {
    match e {
        P4Expr::Const(v, _) => *v,
        P4Expr::Meta(n) => meta.get(n).copied().unwrap_or(0),
        P4Expr::Header(f) => read_header_field(pkt.bytes(), *f),
        P4Expr::IngressPort => u64::from(pkt.ingress.0),
        P4Expr::Bin(op, a, b) => op.eval(eval_ast(a, pkt, meta), eval_ast(b, pkt, meta), 64),
        P4Expr::Not(a) => !eval_ast(a, pkt, meta),
        P4Expr::Cast(a, w) => mask_to_width(eval_ast(a, pkt, meta), *w),
        P4Expr::Hash(parts, w) => {
            let inputs: Vec<u64> = parts.iter().map(|p| eval_ast(p, pkt, meta)).collect();
            hash_values(&inputs, *w)
        }
    }
}

/// Build a server→switch frame: attach the post-traversal header.
pub fn encapsulate_to_switch(
    prog: &P4Program,
    pkt: &mut Packet,
    values: &TransferValues,
    run_post: bool,
    passthrough: bool,
) {
    let mut flags = FLAG_TO_SWITCH;
    if run_post {
        flags |= FLAG_RUN_POST;
    }
    if passthrough {
        flags |= FLAG_PASSTHROUGH;
    }
    prog.header_to_switch
        .attach(pkt, flags, values)
        .expect("plain frame from server");
}

#[cfg(test)]
mod tests {
    use super::*;
    use gallium_mir::{BinOp, FuncBuilder, HeaderField};
    use gallium_net::{FiveTuple, IpProtocol, PacketBuilder, TcpFlags};
    use gallium_partition::partition_program;

    fn minilb_p4() -> P4Program {
        let mut b = FuncBuilder::new("minilb");
        let map = b.decl_map("map", vec![16], vec![32], Some(65536));
        let backends = b.decl_vector("backends", 32, 16);
        let saddr = b.read_field(HeaderField::IpSaddr);
        let daddr = b.read_field(HeaderField::IpDaddr);
        let hash32 = b.bin(BinOp::Xor, saddr, daddr);
        let mask = b.cnst(0xFFFF, 32);
        let low = b.bin(BinOp::And, hash32, mask);
        let key = b.cast(low, 16);
        let res = b.map_get(map, vec![key]);
        let null = b.is_null(res);
        let hit = b.new_block();
        let miss = b.new_block();
        b.branch(null, miss, hit);
        b.switch_to(hit);
        let bk = b.extract(res, 0);
        b.write_field(HeaderField::IpDaddr, bk);
        b.send();
        b.ret();
        b.switch_to(miss);
        let len = b.vec_len(backends);
        let idx = b.bin(BinOp::Mod, hash32, len);
        let bk2 = b.vec_get(backends, idx);
        b.write_field(HeaderField::IpDaddr, bk2);
        b.map_put(map, vec![key], vec![bk2]);
        b.send();
        b.ret();
        let p = b.finish().unwrap();
        let staged = partition_program(&p, &SwitchModel::tofino_like()).unwrap();
        gallium_p4::generate(&staged).unwrap()
    }

    fn minilb_switch() -> Switch {
        Switch::load(minilb_p4(), SwitchConfig::default()).unwrap()
    }

    fn tcp_pkt(saddr: u32, daddr: u32) -> Packet {
        PacketBuilder::tcp(
            FiveTuple {
                saddr,
                daddr,
                sport: 1000,
                dport: 80,
                proto: IpProtocol::Tcp,
            },
            TcpFlags(TcpFlags::ACK),
            100,
        )
        .build(PortId(1))
    }

    #[test]
    fn plan_is_the_default_path() {
        assert!(minilb_switch().uses_plan());
        assert!(
            !Switch::load_interpreter(minilb_p4(), SwitchConfig::default())
                .unwrap()
                .uses_plan()
        );
    }

    #[test]
    fn miss_goes_to_server_with_header() {
        let mut sw = minilb_switch();
        let out = sw.process(tcp_pkt(0x0A000001, 0x0A000099));
        assert_eq!(out.len(), 1);
        let (port, pkt) = &out[0];
        assert_eq!(*port, PortId::SERVER);
        // The frame grew by the transfer header.
        assert_eq!(pkt.len(), 100 + sw.program().header_to_server.wire_bytes());
        assert_eq!(sw.stats.to_server, 1);
        assert_eq!(sw.stats.fast_path, 0);
        // The header carries hash32 (saddr ^ daddr) and the miss bit.
        let (flags, values) = {
            let mut p = pkt.clone();
            sw.program().header_to_server.detach(&mut p).unwrap()
        };
        assert_eq!(flags & FLAG_TO_SERVER, FLAG_TO_SERVER);
        assert_eq!(
            values.get("v2"),
            Some(u64::from(0x0A000001u32 ^ 0x0A000099))
        );
        assert_eq!(values.get("v7"), Some(1), "miss bit set");
    }

    #[test]
    fn hit_takes_fast_path() {
        let mut sw = minilb_switch();
        // Install the connection entry the way the server's control plane
        // would: key = low 16 bits of saddr ^ daddr.
        let key = u64::from((0x0A000001u32 ^ 0x0A000099) & 0xFFFF);
        sw.table_mut("map")
            .unwrap()
            .insert_main(vec![key], vec![0xC0A80001])
            .unwrap();
        sw.add_route(0xC0A80001, PortId(7));
        let out = sw.process(tcp_pkt(0x0A000001, 0x0A000099));
        assert_eq!(out.len(), 1);
        let (port, pkt) = &out[0];
        assert_eq!(*port, PortId(7));
        assert_eq!(pkt.len(), 100, "no transfer header on the fast path");
        assert_eq!(
            read_header_field(pkt.bytes(), HeaderField::IpDaddr),
            0xC0A80001
        );
        assert_eq!(sw.stats.fast_path, 1);
        assert_eq!(sw.stats.emitted, 1);
    }

    #[test]
    fn post_traversal_rewrites_and_emits() {
        let mut sw = minilb_switch();
        // Simulate the server's reply: branch bit set (miss path), backend
        // chosen = v13.
        let mut pkt = tcp_pkt(0x0A000001, 0x0A000099);
        pkt.ingress = PortId::SERVER;
        let mut values = TransferValues::default();
        values.set("v7", 1);
        values.set("v13", 0xC0A80002);
        let prog = sw.program().clone();
        encapsulate_to_switch(&prog, &mut pkt, &values, true, false);
        let out = sw.process(pkt);
        assert_eq!(out.len(), 1);
        let (_, emitted) = &out[0];
        assert_eq!(emitted.len(), 100, "header stripped");
        assert_eq!(
            read_header_field(emitted.bytes(), HeaderField::IpDaddr),
            0xC0A80002
        );
    }

    #[test]
    fn passthrough_emits_without_processing() {
        let mut sw = minilb_switch();
        let mut pkt = tcp_pkt(1, 2);
        pkt.ingress = PortId::SERVER;
        let prog = sw.program().clone();
        encapsulate_to_switch(&prog, &mut pkt, &TransferValues::default(), false, true);
        let out = sw.process(pkt);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.len(), 100);
        assert_eq!(sw.stats.emitted, 1);
    }

    #[test]
    fn write_back_visibility_follows_bit() {
        let mut sw = minilb_switch();
        let key = u64::from((0x0A000001u32 ^ 0x0A000099) & 0xFFFF);
        sw.table_mut("map")
            .unwrap()
            .stage(vec![key], Some(vec![0xC0A80003]));
        // Bit clear: the staged entry is invisible, packet misses.
        let out = sw.process(tcp_pkt(0x0A000001, 0x0A000099));
        assert_eq!(out[0].0, PortId::SERVER);
        // Bit set: the staged entry hits.
        sw.wb_active = true;
        let out = sw.process(tcp_pkt(0x0A000001, 0x0A000099));
        assert_ne!(out[0].0, PortId::SERVER);
        assert_eq!(
            read_header_field(out[0].1.bytes(), HeaderField::IpDaddr),
            0xC0A80003
        );
    }

    #[test]
    fn malformed_server_frame_dropped() {
        let mut sw = minilb_switch();
        let mut pkt = tcp_pkt(1, 2);
        pkt.ingress = PortId::SERVER; // no gallium header attached
        let out = sw.process(pkt);
        assert!(out.is_empty());
        assert_eq!(sw.stats.dropped, 1);
    }

    /// Drive the same packet mix through a planned and an interpreted
    /// switch and demand identical emissions, state, and counters.
    #[test]
    fn interpreter_and_plan_agree_on_minilb() {
        let mut planned = minilb_switch();
        let mut interp = Switch::load_interpreter(minilb_p4(), SwitchConfig::default()).unwrap();
        for sw in [&mut planned, &mut interp] {
            sw.add_route(0xC0A80001, PortId(7));
            let key = u64::from((0x0A000001u32 ^ 0x0A000099) & 0xFFFF);
            sw.table_mut("map")
                .unwrap()
                .insert_main(vec![key], vec![0xC0A80001])
                .unwrap();
        }
        let flows = [
            (0x0A000001, 0x0A000099), // table hit → fast path
            (0x0A000002, 0x0A000098), // miss → server
            (0x0A000001, 0x0A000099), // hit again
        ];
        for (s, d) in flows {
            let a = planned.process(tcp_pkt(s, d));
            let b = interp.process(tcp_pkt(s, d));
            assert_eq!(a, b);
        }
        assert_eq!(planned.stats, interp.stats);
        assert_eq!(planned.registers, interp.registers);
    }

    #[test]
    fn process_batch_matches_sequential() {
        let mut one = minilb_switch();
        let mut batch = minilb_switch();
        let pkts: Vec<Packet> = (0..8)
            .map(|i| tcp_pkt(0x0A000001 + i, 0x0A000099))
            .collect();
        let mut expect = Vec::new();
        for p in pkts.clone() {
            expect.extend(one.process(p));
        }
        let mut got = Vec::new();
        batch.process_batch(pkts, &mut got);
        assert_eq!(expect, got);
        assert_eq!(one.stats, batch.stats);
    }
}
