//! Per-packet flight recorder: deterministic sampling plus a lock-free,
//! preallocated ring buffer of compact trace events.
//!
//! The dataplane splits one middlebox across two machines, so a single
//! packet's behaviour spans switch → server → switch. This module holds
//! the recording half of the story: a [`Tracer`] decides (deterministic
//! 1-in-N sampling) which packets get a trace id, and every layer that
//! touches a sampled packet appends [`TraceEvent`]s describing what
//! happened at that hop. Rendering and name resolution live with the
//! deployment (`Deployment::trace_report`), which knows table and state
//! names; this module is deliberately domain-agnostic.
//!
//! Design constraints (the reason this is not just a `Mutex<Vec<_>>`):
//!
//! * **Alloc-free, lock-free emission.** [`Tracer::emit`] is a seq
//!   `fetch_add`, a write-index `fetch_add`, and three relaxed atomic
//!   stores into a preallocated slot. No locks, no allocation — safe on
//!   the packet path, compatible with the workspace-wide zero-allocation
//!   warm-path contract.
//! * **Fixed memory.** The ring has a fixed capacity chosen at
//!   construction; when full, new events overwrite the oldest
//!   (flight-recorder semantics). [`Tracer::overwritten`] counts how many
//!   events were lost that way.
//! * **Deterministic sampling.** Packet `i` (0-based, in injection order)
//!   is sampled iff `i % N == 0`, so `P` injected packets yield exactly
//!   `⌈P/N⌉` traces with ids `0, 1, 2, …` — reproducible run to run.
//!
//! Concurrency note: emission is thread-safe in the memory-model sense
//! (all slot words are atomics), but the three stores of one event are
//! not a single transaction. The intended discipline — one deployment,
//! one packet in flight, all hops on the injecting thread — makes each
//! event's words and their order exact. Concurrent writers would remain
//! memory-safe but could interleave slot words; [`Tracer::snapshot`] is
//! meant for quiescent post-run reporting either way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::metrics::Counter;

/// Which stage of the switch→server→switch pipeline emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Hop {
    /// Switch pre-processing: the network-ingress traversal.
    SwitchPre = 0,
    /// The partition boundary: encap/decap, sync, re-injection plumbing.
    Transfer = 1,
    /// The middlebox server executing the non-offloaded partition.
    Server = 2,
    /// Switch post-processing: the server-return traversal.
    SwitchPost = 3,
}

impl Hop {
    /// Stable short label used by renderers and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Hop::SwitchPre => "switch.pre",
            Hop::Transfer => "transfer",
            Hop::Server => "server",
            Hop::SwitchPost => "switch.post",
        }
    }

    /// Decode from the packed slot representation.
    pub fn from_u8(v: u8) -> Option<Hop> {
        Some(match v {
            0 => Hop::SwitchPre,
            1 => Hop::Transfer,
            2 => Hop::Server,
            3 => Hop::SwitchPost,
            _ => return None,
        })
    }
}

/// What happened at a hop. The `arg` of a [`TraceEvent`] is
/// kind-dependent (table index, egress port, block id, …) and is resolved
/// to names by the deployment-level renderer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Packet entered the deployment; `arg` = ingress port.
    Ingress = 0,
    /// A table lookup matched; `arg` = table index.
    TableHit = 1,
    /// A table lookup missed; `arg` = table index.
    TableMiss = 2,
    /// A cache-mode lookup missed and flagged replay; `arg` = table index.
    CacheMiss = 3,
    /// Cache-mode FIFO eviction displaced entries; `arg` = count.
    TableEvict = 4,
    /// Packet emitted on a network port; `arg` = egress port.
    Emit = 5,
    /// Packet dropped; `arg` = drop reason code ([`DropReason`]).
    Drop = 6,
    /// Transfer set shipped to the server; `arg` = encapsulated frame bytes.
    ToServer = 7,
    /// State-sync operations issued back to the switch; `arg` = op count.
    SyncOps = 8,
    /// Output held for write-back commit; `arg` = visible-latency ns.
    HoldForCommit = 9,
    /// Server-side frame re-injected into the switch; `arg` = frame bytes.
    Reinject = 10,
    /// Server received the transfer frame; `arg` = payload bytes.
    ServerRx = 11,
    /// Server executed a MIR block; `arg` = block id.
    ServerBlock = 12,
    /// Server applied a replicated state op; `arg` = state id.
    ServerStateOp = 13,
    /// Server replayed a cache-missed packet; `arg` = instructions run.
    ServerReplay = 14,
}

impl EventKind {
    /// Stable short label used by renderers and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Ingress => "ingress",
            EventKind::TableHit => "table.hit",
            EventKind::TableMiss => "table.miss",
            EventKind::CacheMiss => "cache.miss",
            EventKind::TableEvict => "table.evict",
            EventKind::Emit => "emit",
            EventKind::Drop => "drop",
            EventKind::ToServer => "to_server",
            EventKind::SyncOps => "sync.ops",
            EventKind::HoldForCommit => "hold_for_commit",
            EventKind::Reinject => "reinject",
            EventKind::ServerRx => "server.rx",
            EventKind::ServerBlock => "server.block",
            EventKind::ServerStateOp => "server.state_op",
            EventKind::ServerReplay => "server.replay",
        }
    }

    /// Decode from the packed slot representation.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::Ingress,
            1 => EventKind::TableHit,
            2 => EventKind::TableMiss,
            3 => EventKind::CacheMiss,
            4 => EventKind::TableEvict,
            5 => EventKind::Emit,
            6 => EventKind::Drop,
            7 => EventKind::ToServer,
            8 => EventKind::SyncOps,
            9 => EventKind::HoldForCommit,
            10 => EventKind::Reinject,
            11 => EventKind::ServerRx,
            12 => EventKind::ServerBlock,
            13 => EventKind::ServerStateOp,
            14 => EventKind::ServerReplay,
            _ => return None,
        })
    }
}

/// Drop reason codes carried in the `arg` of [`EventKind::Drop`] events.
/// Mirrors the `gallium.*.drop.<reason>` counter family one-for-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DropReason {
    /// The program executed an explicit drop action on the switch.
    SwitchMarked = 0,
    /// A frame failed Gallium encapsulation on the switch: a server-origin
    /// frame without a valid transfer header, or a server-bound network
    /// frame shorter than an Ethernet header or already carrying the
    /// Gallium EtherType.
    SwitchMalformedEncap = 1,
    /// The program executed an explicit drop action on the server.
    ServerProgram = 2,
    /// The server slow path returned a typed execution error.
    DeployServerError = 3,
    /// A state-sync op was rejected by the switch control plane.
    DeploySyncRejected = 4,
    /// A server-return frame tried to leave the switch again.
    DeployPostLoop = 5,
}

impl DropReason {
    /// Stable short label; also the final segment of the matching
    /// `gallium.*.drop.<reason>` counter name.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::SwitchMarked => "marked",
            DropReason::SwitchMalformedEncap => "malformed_encap",
            DropReason::ServerProgram => "program",
            DropReason::DeployServerError => "server_error",
            DropReason::DeploySyncRejected => "sync_rejected",
            DropReason::DeployPostLoop => "post_loop",
        }
    }

    /// Decode from a trace-event `arg`.
    pub fn from_u64(v: u64) -> Option<DropReason> {
        Some(match v {
            0 => DropReason::SwitchMarked,
            1 => DropReason::SwitchMalformedEncap,
            2 => DropReason::ServerProgram,
            3 => DropReason::DeployServerError,
            4 => DropReason::DeploySyncRejected,
            5 => DropReason::DeployPostLoop,
            _ => return None,
        })
    }
}

/// One decoded flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which sampled packet this event belongs to (dense: 0, 1, 2, …).
    pub trace_id: u32,
    /// Position in the tracer-wide emission order (wraps at 2^16; the
    /// ring is far smaller, so order within a snapshot is unambiguous).
    pub seq: u16,
    /// Pipeline stage that emitted the event.
    pub hop: Hop,
    /// What happened.
    pub kind: EventKind,
    /// Kind-dependent payload (table index, port, block id, bytes, …).
    pub arg: u64,
    /// Nanoseconds since the tracer was created.
    pub ts_ns: u64,
}

/// One ring slot: three atomic words. `head` packs
/// `trace_id:32 | seq:16 | hop:8 | kind:8`.
#[derive(Debug)]
struct Slot {
    head: AtomicU64,
    arg: AtomicU64,
    ts: AtomicU64,
}

fn pack_head(trace_id: u32, seq: u16, hop: Hop, kind: EventKind) -> u64 {
    (u64::from(trace_id) << 32) | (u64::from(seq) << 16) | (u64::from(hop as u8) << 8) | kind as u64
}

fn unpack_head(head: u64, arg: u64, ts: u64) -> Option<TraceEvent> {
    Some(TraceEvent {
        trace_id: (head >> 32) as u32,
        seq: (head >> 16) as u16,
        hop: Hop::from_u8((head >> 8) as u8)?,
        kind: EventKind::from_u8(head as u8)?,
        arg,
        ts_ns: ts,
    })
}

/// The flight recorder: deterministic 1-in-N sampler plus a fixed-capacity
/// ring of [`TraceEvent`]s. Shared by every dataplane layer via
/// `Arc<Tracer>`; all methods take `&self`.
#[derive(Debug)]
pub struct Tracer {
    sample_one_in: u64,
    ring: Vec<Slot>,
    /// Total events ever emitted; `% ring.len()` is the next slot.
    write: AtomicU64,
    /// Injected-packet counter driving the sampler.
    injected: AtomicU64,
    /// Tracer-wide emission sequence (truncated to u16 in the record).
    seq: AtomicU64,
    base: Instant,
    sampled: Counter,
    events: Counter,
    overwritten: Counter,
}

impl Tracer {
    /// A tracer sampling one packet in `sample_one_in` (clamped to ≥ 1)
    /// into a ring of `capacity` events (clamped to ≥ 16). All memory is
    /// allocated here, up front.
    pub fn new(sample_one_in: u64, capacity: usize) -> Self {
        let capacity = capacity.max(16);
        Tracer {
            sample_one_in: sample_one_in.max(1),
            ring: (0..capacity)
                .map(|_| Slot {
                    head: AtomicU64::new(0),
                    arg: AtomicU64::new(0),
                    ts: AtomicU64::new(0),
                })
                .collect(),
            write: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            base: Instant::now(),
            sampled: Counter::new(),
            events: Counter::new(),
            overwritten: Counter::new(),
        }
    }

    /// The sampling period N (one packet in N is traced).
    pub fn sample_one_in(&self) -> u64 {
        self.sample_one_in
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Count this injection against the sampler. Packet `i` (0-based) is
    /// sampled iff `i % N == 0`; the returned trace id is dense
    /// (`i / N`), so `P` injections yield exactly `⌈P/N⌉` trace ids,
    /// deterministically. Lock-free, alloc-free.
    #[inline]
    pub fn try_sample(&self) -> Option<u32> {
        let i = self.injected.fetch_add(1, Ordering::Relaxed);
        if i.is_multiple_of(self.sample_one_in) {
            self.sampled.inc();
            Some((i / self.sample_one_in) as u32)
        } else {
            None
        }
    }

    /// Append one event to the ring. Lock-free and alloc-free: two
    /// relaxed `fetch_add`s plus three relaxed stores into a
    /// preallocated slot. When the ring is full the oldest event is
    /// overwritten (and counted in [`Tracer::overwritten`]).
    #[inline]
    pub fn emit(&self, trace_id: u32, hop: Hop, kind: EventKind, arg: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) as u16;
        let ts = u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let idx = self.write.fetch_add(1, Ordering::Relaxed);
        let cap = self.ring.len() as u64;
        if idx >= cap {
            self.overwritten.inc();
        }
        let slot = &self.ring[(idx % cap) as usize];
        slot.arg.store(arg, Ordering::Relaxed);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.head
            .store(pack_head(trace_id, seq, hop, kind), Ordering::Release);
        self.events.inc();
    }

    /// Decode the ring's current contents, oldest event first. Allocates
    /// (report time only — never on the packet path).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let written = self.write.load(Ordering::Acquire);
        let cap = self.ring.len() as u64;
        let valid = written.min(cap);
        let start = written - valid;
        (start..written)
            .filter_map(|i| {
                let slot = &self.ring[(i % cap) as usize];
                let head = slot.head.load(Ordering::Acquire);
                let arg = slot.arg.load(Ordering::Relaxed);
                let ts = slot.ts.load(Ordering::Relaxed);
                unpack_head(head, arg, ts)
            })
            .collect()
    }

    /// Packets sampled so far.
    pub fn sampled(&self) -> u64 {
        self.sampled.get()
    }

    /// Events emitted so far (including any since overwritten).
    pub fn events(&self) -> u64 {
        self.events.get()
    }

    /// Events lost to ring overwrites so far.
    pub fn overwritten(&self) -> u64 {
        self.overwritten.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_exact() {
        for n in [1u64, 2, 3, 7, 64] {
            for pkts in [0u64, 1, 2, 5, 63, 64, 65, 200] {
                let t = Tracer::new(n, 64);
                let ids: Vec<u32> = (0..pkts).filter_map(|_| t.try_sample()).collect();
                let expect = pkts.div_ceil(n);
                assert_eq!(ids.len() as u64, expect, "pkts={pkts} n={n}");
                assert_eq!(t.sampled(), expect);
                // Dense, deterministic ids.
                assert_eq!(ids, (0..expect as u32).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn roundtrip_through_ring() {
        let t = Tracer::new(1, 64);
        t.emit(3, Hop::Server, EventKind::ServerBlock, 42);
        t.emit(3, Hop::SwitchPost, EventKind::Emit, 7);
        let evs = t.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[0],
            TraceEvent {
                trace_id: 3,
                seq: 0,
                hop: Hop::Server,
                kind: EventKind::ServerBlock,
                arg: 42,
                ts_ns: evs[0].ts_ns,
            }
        );
        assert_eq!(evs[1].kind, EventKind::Emit);
        assert_eq!(evs[1].arg, 7);
        assert_eq!(evs[1].seq, 1);
        assert!(evs[1].ts_ns >= evs[0].ts_ns, "timestamps are monotone");
    }

    #[test]
    fn ring_overwrites_oldest() {
        let t = Tracer::new(1, 16); // minimum capacity
        for i in 0..20u64 {
            t.emit(0, Hop::SwitchPre, EventKind::Emit, i);
        }
        let evs = t.snapshot();
        assert_eq!(evs.len(), 16, "ring holds exactly its capacity");
        let args: Vec<u64> = evs.iter().map(|e| e.arg).collect();
        assert_eq!(args, (4..20).collect::<Vec<_>>(), "oldest 4 overwritten");
        assert_eq!(t.overwritten(), 4);
        assert_eq!(t.events(), 20);
    }

    #[test]
    fn labels_and_codes_roundtrip() {
        for v in 0..=u8::MAX {
            if let Some(h) = Hop::from_u8(v) {
                assert_eq!(h as u8, v);
                assert!(!h.label().is_empty());
            }
            if let Some(k) = EventKind::from_u8(v) {
                assert_eq!(k as u8, v);
                assert!(!k.label().is_empty());
            }
            if let Some(r) = DropReason::from_u64(u64::from(v)) {
                assert_eq!(r as u8, v);
                assert!(!r.label().is_empty());
            }
        }
        assert!(Hop::from_u8(4).is_none());
        assert!(EventKind::from_u8(15).is_none());
        assert!(DropReason::from_u64(6).is_none());
    }
}
