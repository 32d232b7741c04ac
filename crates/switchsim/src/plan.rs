//! The compiled dataplane execution plan.
//!
//! Real RMT backends do not interpret a program AST per packet: the
//! compiler lowers the match-action pipeline into a fixed stage program
//! before any packet arrives. This module is that lowering for the
//! simulator. [`ExecPlan::build`] runs once at [`crate::Switch`] load time
//! and produces, per traversal (pre/post):
//!
//! * **Interned metadata** — every metadata field name is assigned a dense
//!   slot index; per-packet metadata becomes one reusable `Vec<u64>`
//!   scratch buffer instead of a `HashMap<String, u64>`.
//! * **Register-compiled expressions** — every [`P4Expr`] tree is lowered
//!   to a flat three-address micro-op stream ([`MOp`]) over a small
//!   virtual register file (reused via [`PlanScratch`]). The compiler
//!   folds constants, reuses common subexpressions within a node (value
//!   numbering keyed on resolved operands, so invalidation cascades
//!   automatically), eliminates dead values, and compacts the register
//!   file with a linear-scan allocation, all at build time.
//! * **Fused superinstructions** — the `SetMeta` runs that build table
//!   keys are absorbed into a single [`PlanOp::BuildKeyProbe`] that
//!   evaluates the pending micro-ops, applies the surviving metadata
//!   stores, assembles the `KeyBuf` straight from registers/immediates,
//!   and probes the table. Branch conditions materialized in the same
//!   node read their register directly (or constant-fold the branch into
//!   a jump); metadata stores whose value is never read outside the
//!   defining node are elided entirely.
//! * **A linear instruction stream** — the control-flow node DAG becomes
//!   one opcode vector with resolved jump targets, executed by a tight
//!   loop. Cyclic node graphs are rejected at build time (the interpreter
//!   only catches them mid-packet), and every register reference is
//!   validated def-before-use at build time, so execution never consults
//!   arity or bounds.
//! * **Pre-resolved transfer layouts** — each transfer-header field is
//!   mapped to its metadata slot, so encap/decap read and write the
//!   scratch buffer directly instead of going through name-keyed maps.
//!
//! Equivalence with the AST interpreter in [`crate::switch`] is enforced
//! by the differential suites (`tests/prop_plan.rs`, `bench_dataplane`): both
//! paths share `BinOp::eval`, `hash_values`, header field access, and the
//! table runtime, and the lowering preserves statement order, branch
//! semantics (missing metadata reads as zero), and foreign-work tracking.
//! Dead-store elimination only ever removes writes to metadata slots that
//! are provably never read outside the defining node (and never packed
//! into a transfer header) — metadata is not externally observable, so
//! the differential surface (emissions, stats, state, transfers) is
//! untouched. [`PlanOptions`] can disable the fusion/elision layer, which
//! the fused ≡ unfused property tests exploit.

use crate::fasthash::FastBuildHasher;
use crate::switch::SwitchStats;
use crate::table::{KeyBuf, RtTable};
use gallium_mir::interp::{
    hash_values, hash_values_iter, read_header_field, refresh_ip_checksum, write_header_field,
};
use gallium_mir::types::mask_to_width;
use gallium_mir::{BinOp, HeaderField};
use gallium_net::{Packet, PortId};
use gallium_p4::{BlockNode, NodeNext, P4Expr, P4Program, P4Stmt};
use gallium_telemetry::trace::{DropReason, EventKind, Hop, Tracer};
use std::collections::HashMap;

/// Why a program could not be lowered to an execution plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A node's control transfer targets a node the traversal does not
    /// declare.
    BadNodeTarget {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// The out-of-range node index.
        target: usize,
        /// Number of declared nodes.
        declared: usize,
    },
    /// The node graph contains a cycle — the generated pipeline must be a
    /// DAG (the interpreter would abort mid-packet on this input).
    CyclicPipeline {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// A node on the cycle.
        node: usize,
    },
    /// The entry node index is out of range.
    BadEntry {
        /// The entry index.
        entry: usize,
        /// Number of declared nodes.
        declared: usize,
    },
    /// A single node needed more virtual registers than the register file
    /// can address.
    RegisterOverflow {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// The node that overflowed.
        node: usize,
    },
    /// The build-time validator found a micro-op reading a register before
    /// any micro-op defines it (a compiler invariant violation — caught at
    /// load instead of panicking mid-packet).
    UndefinedRegister {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// The node with the malformed micro-op stream.
        node: usize,
    },
    /// A compiled pool (micro-ops, stores, keys, hash args) outgrew its
    /// index width.
    PoolOverflow {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// Which pool overflowed.
        what: &'static str,
    },
    /// The post-commit structural audit found an op referencing a pool
    /// range, metadata slot, register, or table index outside the plan's
    /// bounds — a corrupt pool is rejected with a typed error instead of
    /// panicking on a slice access at packet time.
    OutOfBounds {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// Opcode index of the malformed op.
        ip: u32,
        /// Which reference was out of bounds.
        what: &'static str,
    },
    /// A committed jump or branch targets an instruction outside the
    /// opcode stream (`ip == u32::MAX` marks the traversal entry point).
    BadJumpTarget {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// Opcode index of the jump/branch (`u32::MAX` for the entry).
        ip: u32,
        /// The out-of-range target instruction.
        target: u32,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadNodeTarget {
                traversal,
                target,
                declared,
            } => write!(
                f,
                "{traversal} traversal jumps to node #{target}, but only {declared} declared"
            ),
            PlanError::CyclicPipeline { traversal, node } => {
                write!(f, "{traversal} traversal has a cycle through node #{node}")
            }
            PlanError::BadEntry { entry, declared } => {
                write!(f, "entry node #{entry} out of range ({declared} declared)")
            }
            PlanError::RegisterOverflow { traversal, node } => write!(
                f,
                "{traversal} traversal node #{node} exceeds the virtual register file"
            ),
            PlanError::UndefinedRegister { traversal, node } => write!(
                f,
                "{traversal} traversal node #{node} reads a register before it is defined"
            ),
            PlanError::PoolOverflow { traversal, what } => {
                write!(f, "{traversal} traversal overflowed the {what} pool")
            }
            PlanError::OutOfBounds {
                traversal,
                ip,
                what,
            } => write!(
                f,
                "{traversal} traversal op #{ip} references an out-of-bounds {what}"
            ),
            PlanError::BadJumpTarget {
                traversal,
                ip,
                target,
            } => {
                if *ip == u32::MAX {
                    write!(
                        f,
                        "{traversal} traversal entry targets instruction #{target}, out of range"
                    )
                } else {
                    write!(
                        f,
                        "{traversal} traversal op #{ip} jumps to instruction #{target}, out of range"
                    )
                }
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Build-time switches for the expression compiler.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Enable the optimizing layer: cross-statement CSE, store fusion into
    /// host ops, dead-store/dead-value elimination, and branch folding.
    /// With `fuse: false` every statement compiles to a standalone op with
    /// its own metadata store and table keys reload metadata — the
    /// "unfused sequence" baseline the property tests compare against.
    pub fuse: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { fuse: true }
    }
}

/// Build-time statistics from the expression compiler (telemetry).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanExprStats {
    /// Micro-ops in the committed pools (both traversals).
    pub micro_ops: u64,
    /// Constants folded / algebraic identities applied at build time.
    pub folded: u64,
    /// Common-subexpression table hits.
    pub cse_hits: u64,
    /// Fused superinstructions: key probes that absorbed builder stores,
    /// plus branches reading a register or folded to a jump.
    pub fused: u64,
    /// Micro-ops and metadata stores removed as dead.
    pub dead: u64,
    /// Virtual register file size (max over all nodes).
    pub regs: u64,
}

/// A compiled value handle: a build-time constant or a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ExprVal {
    Const(u64),
    Reg(u16),
}

/// Resolve a value handle against the register file.
#[inline(always)]
fn resolve(v: ExprVal, regs: &[u64]) -> u64 {
    match v {
        ExprVal::Const(c) => c,
        ExprVal::Reg(r) => regs[usize::from(r)],
    }
}

/// One three-address micro-op. Operands and destinations are virtual
/// registers in the per-packet file; immediates are folded in at build
/// time. All arithmetic evaluates at width 64, exactly like the AST
/// interpreter (`BinOp::eval(a, b, 64)`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum MOp {
    LoadMeta {
        dst: u16,
        slot: u16,
    },
    LoadHeader {
        dst: u16,
        field: HeaderField,
    },
    LoadIngress {
        dst: u16,
    },
    BinRR {
        op: BinOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    BinRI {
        op: BinOp,
        dst: u16,
        a: u16,
        imm: u64,
    },
    BinIR {
        op: BinOp,
        dst: u16,
        imm: u64,
        b: u16,
    },
    NotR {
        dst: u16,
        a: u16,
    },
    MaskR {
        dst: u16,
        a: u16,
        width: u8,
    },
    Hash {
        dst: u16,
        args_start: u32,
        args_len: u16,
        width: u8,
    },
}

impl MOp {
    pub(crate) fn dst(&self) -> u16 {
        match *self {
            MOp::LoadMeta { dst, .. }
            | MOp::LoadHeader { dst, .. }
            | MOp::LoadIngress { dst }
            | MOp::BinRR { dst, .. }
            | MOp::BinRI { dst, .. }
            | MOp::BinIR { dst, .. }
            | MOp::NotR { dst, .. }
            | MOp::MaskR { dst, .. }
            | MOp::Hash { dst, .. } => dst,
        }
    }
}

/// A contiguous range into one of the per-traversal pools.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PoolRef {
    pub(crate) start: u32,
    pub(crate) len: u16,
}

impl PoolRef {
    #[inline(always)]
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + usize::from(self.len)
    }

    fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// One pending metadata store: `meta[slot] = resolve(src)`. The source is
/// already masked to the slot width at build time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoreSlot {
    pub(crate) slot: u16,
    pub(crate) src: ExprVal,
}

/// Where a branch reads its condition: a register defined in the same
/// node (fused) or the metadata slot (fallback for conditions set in an
/// earlier node).
#[derive(Debug, Clone, Copy)]
pub(crate) enum BranchSrc {
    Reg(u16),
    Slot(u16),
}

/// One lowered statement/control opcode. Expression-bearing ops carry the
/// micro-op run to execute first (`run`) and the metadata stores to apply
/// after it (`stores`) — fused work from preceding `SetMeta` statements
/// rides along in both.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PlanOp {
    /// Execute micro-ops and apply stores, no other effect (flush point
    /// before non-hosting ops and node exits).
    Eval {
        run: PoolRef,
        stores: PoolRef,
    },
    SetHeader {
        run: PoolRef,
        stores: PoolRef,
        field: HeaderField,
        out: ExprVal,
    },
    /// The fused `SetMeta`+`TableLookup` superinstruction: run the pending
    /// micro-ops, apply the surviving builder stores, assemble the key
    /// buffer from registers/immediates, and probe the table.
    BuildKeyProbe {
        run: PoolRef,
        stores: PoolRef,
        table: u16,
        keys: PoolRef,
        hit_slot: u16,
        vals: PoolRef,
    },
    RegRead {
        reg: u16,
        dst: u16,
    },
    RegWrite {
        run: PoolRef,
        stores: PoolRef,
        reg: u16,
        out: ExprVal,
    },
    RegFetchAdd {
        run: PoolRef,
        stores: PoolRef,
        reg: u16,
        width: u8,
        dst: u16,
        out: ExprVal,
    },
    UpdateChecksum,
    EmitCopy,
    MarkDrop,
    /// Record that this path encountered later-stage work (pre only).
    Foreign,
    Jump(u32),
    Branch {
        run: PoolRef,
        stores: PoolRef,
        src: BranchSrc,
        then_ip: u32,
        else_ip: u32,
    },
    Halt,
}

/// One compiled traversal: the opcode stream plus its constant pools.
#[derive(Debug, Default)]
pub(crate) struct TraversalPlan {
    pub(crate) ops: Vec<PlanOp>,
    /// The micro-op pool; each op's `run` is a contiguous range.
    pub(crate) micro: Vec<MOp>,
    /// Metadata stores, referenced by range.
    pub(crate) stores: Vec<StoreSlot>,
    /// Table key sources for `BuildKeyProbe`, referenced by range.
    pub(crate) keys: Vec<ExprVal>,
    /// Hash inputs for `MOp::Hash`, referenced by range.
    pub(crate) hash_args: Vec<ExprVal>,
    /// Value destination slots for `BuildKeyProbe`, referenced by range.
    pub(crate) value_slots: Vec<u16>,
    pub(crate) entry_ip: u32,
    /// First opcode index of each declared node, in node order (monotone:
    /// nodes commit sequentially). Retained for the symbolic validator and
    /// the read-only plan view — the execution loop never consults it.
    pub(crate) node_ips: Vec<u32>,
}

/// The complete pre-lowered program: both traversals plus the transfer
/// slot maps and the interned slot space.
#[derive(Debug)]
pub struct ExecPlan {
    pub(crate) pre: TraversalPlan,
    pub(crate) post: TraversalPlan,
    /// Metadata slot per `header_to_server` field, in field order.
    pub(crate) to_server_slots: Vec<u16>,
    /// Metadata slot per `header_to_switch` field, in field order.
    pub(crate) from_server_slots: Vec<u16>,
    /// Total interned metadata slots (sizes the scratch buffer).
    pub(crate) n_slots: usize,
    /// Virtual register file size (sizes the scratch buffer).
    pub(crate) n_regs: usize,
    /// Interned slot per metadata name (debugging / test hooks).
    pub(crate) slots: HashMap<String, u16>,
    expr_stats: PlanExprStats,
}

impl ExecPlan {
    /// Lower `prog` into an execution plan with default options. Fails on
    /// malformed control flow (dangling node targets, cyclic node graphs)
    /// or compiler invariant violations — conditions the AST interpreter
    /// only detects mid-packet, if at all.
    pub fn build(prog: &P4Program) -> Result<ExecPlan, PlanError> {
        Self::build_with(prog, PlanOptions::default())
    }

    /// Lower `prog` with explicit [`PlanOptions`].
    pub fn build_with(prog: &P4Program, opts: PlanOptions) -> Result<ExecPlan, PlanError> {
        let mut interner = Interner::default();
        let meta_bits: HashMap<&str, u16> = prog
            .metadata
            .iter()
            .map(|m| (m.name.as_str(), m.bits))
            .collect();
        let reg_widths: Vec<u8> = prog.registers.iter().map(|r| r.width).collect();
        // Intern the transfer slots up front: the pre traversal must treat
        // to-server fields as externally read (attach_with reads them from
        // the scratch after the run), which pins their metadata stores.
        let to_server_slots: Vec<u16> = prog
            .header_to_server
            .fields()
            .iter()
            .map(|f| interner.slot(&f.name))
            .collect();
        let from_server_slots: Vec<u16> = prog
            .header_to_switch
            .fields()
            .iter()
            .map(|f| interner.slot(&f.name))
            .collect();
        let mut stats = PlanExprStats::default();
        let (pre, pre_regs) = compile_traversal(
            prog,
            true,
            "pre",
            &mut interner,
            &meta_bits,
            &reg_widths,
            &to_server_slots,
            opts,
            &mut stats,
        )?;
        let (post, post_regs) = compile_traversal(
            prog,
            false,
            "post",
            &mut interner,
            &meta_bits,
            &reg_widths,
            &[],
            opts,
            &mut stats,
        )?;
        let n_regs = usize::from(pre_regs.max(post_regs));
        stats.micro_ops = (pre.micro.len() + post.micro.len()) as u64;
        stats.regs = n_regs as u64;
        let plan = ExecPlan {
            pre,
            post,
            to_server_slots,
            from_server_slots,
            n_slots: interner.len(),
            n_regs,
            slots: interner.slots,
            expr_stats: stats,
        };
        plan.validate_committed(prog.tables.len(), prog.registers.len())?;
        Ok(plan)
    }

    /// Post-commit structural audit over both committed streams: every
    /// pool range, metadata slot, register, table index, and jump target
    /// must be in bounds, so the execution loop (which indexes without
    /// checks by design) can never be handed a corrupt pool. Runs once per
    /// build; a violation is a compiler bug surfaced as a typed error at
    /// load instead of a slice panic at packet time.
    pub(crate) fn validate_committed(
        &self,
        n_tables: usize,
        n_registers: usize,
    ) -> Result<(), PlanError> {
        validate_traversal(
            &self.pre,
            "pre",
            self.n_slots,
            self.n_regs,
            n_tables,
            n_registers,
        )?;
        validate_traversal(
            &self.post,
            "post",
            self.n_slots,
            self.n_regs,
            n_tables,
            n_registers,
        )?;
        Ok(())
    }

    /// Total lowered opcodes across both traversals (telemetry).
    pub fn op_count(&self) -> usize {
        self.pre.ops.len() + self.post.ops.len()
    }

    /// Number of interned metadata slots (telemetry).
    pub fn slot_count(&self) -> usize {
        self.n_slots
    }

    /// Total micro-ops across both traversals (telemetry).
    pub fn micro_op_count(&self) -> usize {
        self.pre.micro.len() + self.post.micro.len()
    }

    /// Virtual register file size (telemetry).
    pub fn reg_count(&self) -> usize {
        self.n_regs
    }

    /// Build-time expression compiler statistics.
    pub fn expr_stats(&self) -> PlanExprStats {
        self.expr_stats
    }
}

/// Metadata-name interner: dense slot indices assigned in first-seen order.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    pub(crate) slots: HashMap<String, u16>,
}

impl Interner {
    pub(crate) fn slot(&mut self, name: &str) -> u16 {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = u16::try_from(self.slots.len()).expect("metadata slot space");
        self.slots.insert(name.to_string(), s);
        s
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Verify the node graph reachable from `entry` is a DAG with in-range
/// targets (iterative three-color DFS).
fn check_dag(prog: &P4Program, is_pre: bool, traversal: &'static str) -> Result<(), PlanError> {
    let nodes = if is_pre {
        &prog.pre_nodes
    } else {
        &prog.post_nodes
    };
    let n = nodes.len();
    if prog.entry >= n {
        return Err(PlanError::BadEntry {
            entry: prog.entry,
            declared: n,
        });
    }
    let succs = |i: usize| -> Vec<usize> {
        match &nodes[i].next {
            NodeNext::Jump(t) => vec![*t],
            NodeNext::Cond { then_n, else_n, .. } => vec![*then_n, *else_n],
            NodeNext::SkipJoin { join: Some(j), .. } => vec![*j],
            NodeNext::SkipJoin { join: None, .. } | NodeNext::End => vec![],
        }
    };
    // Every declared node's targets must be in range, even for nodes the
    // entry cannot reach: commit resolves an instruction address for every
    // declared node, so a dangling target in unreachable code would
    // otherwise index past the address table during jump patching.
    for i in 0..n {
        for t in succs(i) {
            if t >= n {
                return Err(PlanError::BadNodeTarget {
                    traversal,
                    target: t,
                    declared: n,
                });
            }
        }
    }
    // 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    let mut stack: Vec<(usize, usize)> = vec![(prog.entry, 0)];
    color[prog.entry] = 1;
    while let Some(&mut (node, ref mut next_child)) = stack.last_mut() {
        let ss = succs(node);
        if *next_child >= ss.len() {
            color[node] = 2;
            stack.pop();
            continue;
        }
        let t = ss[*next_child];
        *next_child += 1;
        if t >= n {
            return Err(PlanError::BadNodeTarget {
                traversal,
                target: t,
                declared: n,
            });
        }
        match color[t] {
            0 => {
                color[t] = 1;
                stack.push((t, 0));
            }
            1 => {
                return Err(PlanError::CyclicPipeline { traversal, node: t });
            }
            _ => {}
        }
    }
    Ok(())
}

/// Which nodes read each metadata slot. Drives dead-store elimination: a
/// write in node `n` needs a memory store only if the slot is read by a
/// different node or by the transfer attach after the run.
#[derive(Debug, Default)]
pub(crate) struct MetaReaders {
    map: HashMap<u16, Readers>,
}

#[derive(Debug, Clone, Copy)]
enum Readers {
    One(usize),
    Many,
}

impl MetaReaders {
    fn note(&mut self, slot: u16, node: usize) {
        match self.map.get(&slot) {
            None => {
                self.map.insert(slot, Readers::One(node));
            }
            Some(Readers::One(n)) if *n == node => {}
            Some(_) => {
                self.map.insert(slot, Readers::Many);
            }
        }
    }

    fn mark_external(&mut self, slot: u16) {
        self.map.insert(slot, Readers::Many);
    }

    pub(crate) fn needs_store(&self, slot: u16, node: usize) -> bool {
        match self.map.get(&slot) {
            None => false,
            Some(Readers::One(n)) => *n != node,
            Some(Readers::Many) => true,
        }
    }
}

/// Walk the metadata names an expression reads.
fn visit_meta_reads(e: &P4Expr, f: &mut impl FnMut(&str)) {
    match e {
        P4Expr::Meta(n) => f(n),
        P4Expr::Bin(_, a, b) => {
            visit_meta_reads(a, f);
            visit_meta_reads(b, f);
        }
        P4Expr::Not(a) | P4Expr::Cast(a, _) => visit_meta_reads(a, f),
        P4Expr::Hash(parts, _) => {
            for p in parts {
                visit_meta_reads(p, f);
            }
        }
        P4Expr::Const(..) | P4Expr::Header(_) | P4Expr::IngressPort => {}
    }
}

/// Collect every metadata read site across a traversal (expression leaves
/// and branch conditions), plus the externally read transfer slots.
pub(crate) fn scan_reads(
    nodes: &[BlockNode],
    interner: &mut Interner,
    external: &[u16],
) -> MetaReaders {
    let mut readers = MetaReaders::default();
    for &slot in external {
        readers.mark_external(slot);
    }
    for (i, node) in nodes.iter().enumerate() {
        let mut note = |interner: &mut Interner, e: &P4Expr| {
            visit_meta_reads(e, &mut |name| {
                let slot = interner.slot(name);
                readers.note(slot, i);
            });
        };
        for stmt in &node.stmts {
            match stmt {
                P4Stmt::SetMeta(_, e) | P4Stmt::SetHeader(_, e) => note(interner, e),
                P4Stmt::TableLookup { keys, .. } => {
                    for k in keys {
                        note(interner, k);
                    }
                }
                P4Stmt::RegWrite { src, .. } => note(interner, src),
                P4Stmt::RegFetchAdd { delta, .. } => note(interner, delta),
                P4Stmt::RegRead { .. }
                | P4Stmt::UpdateChecksum
                | P4Stmt::EmitCopy
                | P4Stmt::MarkDrop => {}
            }
        }
        if let NodeNext::Cond { meta, .. } = &node.next {
            let slot = interner.slot(meta);
            readers.note(slot, i);
        }
    }
    readers
}

/// Value-numbering key: derived entries are keyed on *resolved* operands
/// (registers/constants), so invalidating a leaf automatically invalidates
/// everything built on top of it — a re-resolved leaf lands in a fresh
/// register and derived keys stop matching.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MKey {
    Meta(u16),
    Header(HeaderField),
    Ingress,
    Bin(BinOp, ExprVal, ExprVal),
    Not(u16),
    Mask(u16, u8),
    Hash(Vec<ExprVal>, u8),
}

/// Node-local action skeleton; becomes a [`PlanOp`] at commit.
#[derive(Debug)]
enum ActKind {
    Eval,
    SetHeader {
        field: HeaderField,
        out: ExprVal,
    },
    Probe {
        table: u16,
        keys: (u32, u32),
        hit_slot: u16,
        vals: (u32, u32),
    },
    RegRead {
        reg: u16,
        dst: u16,
    },
    RegWrite {
        reg: u16,
        out: ExprVal,
    },
    RegFetchAdd {
        reg: u16,
        width: u8,
        dst: u16,
        out: ExprVal,
    },
    UpdateChecksum,
    EmitCopy,
    MarkDrop,
    Foreign,
    Jump {
        node: usize,
    },
    Branch {
        src: BranchSrc,
        then_node: usize,
        else_node: usize,
    },
    Halt,
}

#[derive(Debug)]
struct ActionRec {
    /// Range into the node-local store list.
    stores: (u32, u32),
    kind: ActKind,
}

/// Number of significant bits a constant needs.
pub(crate) fn const_bits(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// Compiles one control-flow node: forward pass with folding and value
/// numbering into SSA micro-ops, then dead-value elimination, def-before-
/// use validation, linear-scan register allocation, and commit into the
/// traversal pools.
struct NodeCompiler<'a> {
    interner: &'a mut Interner,
    meta_bits: &'a HashMap<&'a str, u16>,
    reg_widths: &'a [u8],
    readers: &'a MetaReaders,
    opts: PlanOptions,
    stats: &'a mut PlanExprStats,
    traversal: &'static str,
    node: usize,
    /// SSA micro-ops (destinations numbered 0..bits.len()).
    ops: Vec<MOp>,
    /// Owning action index per op (assigned when the action is emitted).
    op_owner: Vec<usize>,
    /// Node-local hash-arg pool (SSA refs; remapped at commit).
    hash_args: Vec<ExprVal>,
    /// Node-local key pool (SSA refs).
    keys: Vec<ExprVal>,
    /// Node-local value-slot pool.
    val_slots: Vec<u16>,
    /// Node-local committed stores (SSA refs).
    stores: Vec<StoreSlot>,
    actions: Vec<ActionRec>,
    /// Stores awaiting a host action.
    pending_stores: Vec<StoreSlot>,
    /// First op index not yet owned by an action.
    pending_op_start: usize,
    cse: HashMap<MKey, ExprVal>,
    /// Per-SSA-register conservative bound on significant bits (used to
    /// elide redundant width masks).
    bits: Vec<u8>,
}

impl<'a> NodeCompiler<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        interner: &'a mut Interner,
        meta_bits: &'a HashMap<&'a str, u16>,
        reg_widths: &'a [u8],
        readers: &'a MetaReaders,
        opts: PlanOptions,
        stats: &'a mut PlanExprStats,
        traversal: &'static str,
        node: usize,
    ) -> Self {
        NodeCompiler {
            interner,
            meta_bits,
            reg_widths,
            readers,
            opts,
            stats,
            traversal,
            node,
            ops: Vec::new(),
            op_owner: Vec::new(),
            hash_args: Vec::new(),
            keys: Vec::new(),
            val_slots: Vec::new(),
            stores: Vec::new(),
            actions: Vec::new(),
            pending_stores: Vec::new(),
            pending_op_start: 0,
            cse: HashMap::new(),
            bits: Vec::new(),
        }
    }

    fn width_of(&self, name: &str) -> u8 {
        self.meta_bits.get(name).copied().unwrap_or(64).min(64) as u8
    }

    fn fresh(&mut self, bits: u8) -> Result<u16, PlanError> {
        let r = u16::try_from(self.bits.len()).map_err(|_| PlanError::RegisterOverflow {
            traversal: self.traversal,
            node: self.node,
        })?;
        self.bits.push(bits.min(64));
        Ok(r)
    }

    fn val_bits(&self, v: ExprVal) -> u8 {
        match v {
            ExprVal::Const(c) => const_bits(c),
            ExprVal::Reg(r) => self.bits[usize::from(r)],
        }
    }

    /// Emit-or-reuse: value-numbered emission of a single micro-op.
    fn cached(
        &mut self,
        key: MKey,
        bits: u8,
        f: impl FnOnce(u16) -> MOp,
    ) -> Result<ExprVal, PlanError> {
        if let Some(v) = self.cse.get(&key) {
            self.stats.cse_hits += 1;
            return Ok(*v);
        }
        let dst = self.fresh(bits)?;
        self.ops.push(f(dst));
        self.op_owner.push(usize::MAX);
        let v = ExprVal::Reg(dst);
        self.cse.insert(key, v);
        Ok(v)
    }

    /// Mask `v` to `width`, eliding the op when the value provably fits.
    fn masked(&mut self, v: ExprVal, width: u8) -> Result<ExprVal, PlanError> {
        if width >= 64 {
            return Ok(v);
        }
        match v {
            ExprVal::Const(c) => Ok(ExprVal::Const(mask_to_width(c, width))),
            ExprVal::Reg(r) => {
                if self.bits[usize::from(r)] <= width {
                    self.stats.folded += 1;
                    return Ok(v);
                }
                self.cached(MKey::Mask(r, width), width, |dst| MOp::MaskR {
                    dst,
                    a: r,
                    width,
                })
            }
        }
    }

    /// Conservative bound on the significant bits of a binary result.
    fn bin_bits(&self, op: BinOp, va: ExprVal, vb: ExprVal) -> u8 {
        let (a, b) = (self.val_bits(va), self.val_bits(vb));
        match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1,
            BinOp::And => a.min(b),
            BinOp::Or | BinOp::Xor => a.max(b),
            BinOp::Add => (a.max(b) + 1).min(64),
            BinOp::Sub => 64,
            BinOp::Mul => (a + b).min(64),
            BinOp::Div => a,
            BinOp::Mod => a.min(b),
            BinOp::Shl => match vb {
                ExprVal::Const(c) if c < 64 => (a + c as u8).min(64),
                ExprVal::Const(_) => 0,
                ExprVal::Reg(_) => 64,
            },
            BinOp::Shr => match vb {
                ExprVal::Const(c) if c < 64 => a.saturating_sub(c as u8),
                ExprVal::Const(_) => 0,
                ExprVal::Reg(_) => a,
            },
        }
    }

    /// Compile a binary op: fold constants, apply algebraic identities
    /// (these can orphan already-emitted operand ops — dead-value
    /// elimination sweeps them), then emit with immediates folded in.
    fn bin(&mut self, op: BinOp, va: ExprVal, vb: ExprVal) -> Result<ExprVal, PlanError> {
        use ExprVal::{Const, Reg};
        if let (Const(a), Const(b)) = (va, vb) {
            self.stats.folded += 1;
            return Ok(Const(op.eval(a, b, 64)));
        }
        // Identical operands: registers are immutable within a node, so
        // `x op x` identities are exact.
        if va == vb {
            let folded = match op {
                BinOp::Sub | BinOp::Xor | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Mod => {
                    Some(Const(0))
                }
                BinOp::Eq | BinOp::Le | BinOp::Ge => Some(Const(1)),
                BinOp::And | BinOp::Or => Some(va),
                _ => None,
            };
            if let Some(v) = folded {
                self.stats.folded += 1;
                return Ok(v);
            }
        }
        // One-constant identities, matching `BinOp::eval` at width 64
        // exactly (including div/mod-by-zero → 0 and shift-≥64 → 0).
        let ident = match (op, va, vb) {
            (BinOp::And, _, Const(0)) | (BinOp::And, Const(0), _) => Some(Const(0)),
            (BinOp::And, v, Const(u64::MAX)) | (BinOp::And, Const(u64::MAX), v) => Some(v),
            (BinOp::Or, v, Const(0)) | (BinOp::Or, Const(0), v) => Some(v),
            (BinOp::Or, _, Const(u64::MAX)) | (BinOp::Or, Const(u64::MAX), _) => {
                Some(Const(u64::MAX))
            }
            (BinOp::Xor, v, Const(0)) | (BinOp::Xor, Const(0), v) => Some(v),
            (BinOp::Add, v, Const(0)) | (BinOp::Add, Const(0), v) => Some(v),
            (BinOp::Sub, v, Const(0)) => Some(v),
            (BinOp::Mul, _, Const(0)) | (BinOp::Mul, Const(0), _) => Some(Const(0)),
            (BinOp::Mul, v, Const(1)) | (BinOp::Mul, Const(1), v) => Some(v),
            (BinOp::Shl | BinOp::Shr, v, Const(0)) => Some(v),
            (BinOp::Shl | BinOp::Shr, _, Const(c)) if c >= 64 => Some(Const(0)),
            (BinOp::Div | BinOp::Mod, _, Const(0)) => Some(Const(0)),
            (BinOp::Div, v, Const(1)) => Some(v),
            (BinOp::Mod, _, Const(1)) => Some(Const(0)),
            (BinOp::Div | BinOp::Mod, Const(0), _) => Some(Const(0)),
            _ => None,
        };
        if let Some(v) = ident {
            self.stats.folded += 1;
            return Ok(v);
        }
        // Canonicalize commutative const-left to const-right so CSE keys
        // and the emitted form agree.
        let commutative = matches!(
            op,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
        );
        let (va, vb) = match (va, vb) {
            (Const(i), Reg(r)) if commutative => (Reg(r), Const(i)),
            other => other,
        };
        let bits = self.bin_bits(op, va, vb);
        match (va, vb) {
            (Reg(a), Reg(b)) => self.cached(MKey::Bin(op, va, vb), bits, |dst| MOp::BinRR {
                op,
                dst,
                a,
                b,
            }),
            (Reg(a), Const(imm)) => self.cached(MKey::Bin(op, va, vb), bits, |dst| MOp::BinRI {
                op,
                dst,
                a,
                imm,
            }),
            (Const(imm), Reg(b)) => self.cached(MKey::Bin(op, va, vb), bits, |dst| MOp::BinIR {
                op,
                dst,
                imm,
                b,
            }),
            (Const(_), Const(_)) => unreachable!("const-const folded above"),
        }
    }

    /// Lower an expression tree to a value handle, emitting micro-ops on
    /// demand.
    fn compile_expr(&mut self, e: &P4Expr) -> Result<ExprVal, PlanError> {
        match e {
            P4Expr::Const(v, _) => Ok(ExprVal::Const(*v)),
            P4Expr::Meta(n) => {
                let slot = self.interner.slot(n);
                // Slot contents are not guaranteed masked to the declared
                // width (table values and register reads land unmasked),
                // so a metadata load has unknown significant bits.
                self.cached(MKey::Meta(slot), 64, |dst| MOp::LoadMeta { dst, slot })
            }
            P4Expr::Header(f) => {
                let field = *f;
                self.cached(MKey::Header(field), field.bits(), |dst| MOp::LoadHeader {
                    dst,
                    field,
                })
            }
            P4Expr::IngressPort => self.cached(MKey::Ingress, 16, |dst| MOp::LoadIngress { dst }),
            P4Expr::Bin(op, a, b) => {
                let va = self.compile_expr(a)?;
                let vb = self.compile_expr(b)?;
                self.bin(*op, va, vb)
            }
            P4Expr::Not(a) => {
                let va = self.compile_expr(a)?;
                match va {
                    ExprVal::Const(c) => {
                        self.stats.folded += 1;
                        Ok(ExprVal::Const(!c))
                    }
                    ExprVal::Reg(r) => self.cached(MKey::Not(r), 64, |dst| MOp::NotR { dst, a: r }),
                }
            }
            P4Expr::Cast(a, w) => {
                let va = self.compile_expr(a)?;
                self.masked(va, *w)
            }
            P4Expr::Hash(parts, w) => {
                let mut vals = Vec::with_capacity(parts.len());
                for p in parts {
                    vals.push(self.compile_expr(p)?);
                }
                if vals.iter().all(|v| matches!(v, ExprVal::Const(_))) {
                    let ins: Vec<u64> = vals
                        .iter()
                        .map(|v| match v {
                            ExprVal::Const(c) => *c,
                            ExprVal::Reg(_) => 0,
                        })
                        .collect();
                    self.stats.folded += 1;
                    return Ok(ExprVal::Const(hash_values(&ins, *w)));
                }
                let key = MKey::Hash(vals.clone(), *w);
                if let Some(v) = self.cse.get(&key) {
                    self.stats.cse_hits += 1;
                    return Ok(*v);
                }
                let args_start =
                    u32::try_from(self.hash_args.len()).map_err(|_| PlanError::PoolOverflow {
                        traversal: self.traversal,
                        what: "hash args",
                    })?;
                let args_len = u16::try_from(vals.len()).map_err(|_| PlanError::PoolOverflow {
                    traversal: self.traversal,
                    what: "hash args",
                })?;
                self.hash_args.extend_from_slice(&vals);
                let width = *w;
                let dst = self.fresh(width.min(64))?;
                self.ops.push(MOp::Hash {
                    dst,
                    args_start,
                    args_len,
                    width,
                });
                self.op_owner.push(usize::MAX);
                let v = ExprVal::Reg(dst);
                self.cse.insert(key, v);
                Ok(v)
            }
        }
    }

    /// Emit an action, absorbing all pending micro-ops and stores.
    fn emit_action(&mut self, kind: ActKind) -> Result<(), PlanError> {
        let idx = self.actions.len();
        for owner in &mut self.op_owner[self.pending_op_start..] {
            *owner = idx;
        }
        self.pending_op_start = self.ops.len();
        let s_start = u32::try_from(self.stores.len()).map_err(|_| PlanError::PoolOverflow {
            traversal: self.traversal,
            what: "stores",
        })?;
        self.stores.append(&mut self.pending_stores);
        let s_end = self.stores.len() as u32;
        self.actions.push(ActionRec {
            stores: (s_start, s_end),
            kind,
        });
        Ok(())
    }

    /// Flush pending micro-ops/stores into a standalone `Eval` before an
    /// op that cannot host them.
    fn flush(&mut self) -> Result<(), PlanError> {
        if self.pending_op_start < self.ops.len() || !self.pending_stores.is_empty() {
            self.emit_action(ActKind::Eval)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &P4Stmt) -> Result<(), PlanError> {
        match stmt {
            P4Stmt::SetMeta(name, e) => {
                let raw = self.compile_expr(e)?;
                let val = self.masked(raw, self.width_of(name))?;
                let slot = self.interner.slot(name);
                self.cse.remove(&MKey::Meta(slot));
                self.cse.insert(MKey::Meta(slot), val);
                if !self.opts.fuse || self.readers.needs_store(slot, self.node) {
                    self.pending_stores.push(StoreSlot { slot, src: val });
                } else {
                    self.stats.dead += 1;
                }
                if !self.opts.fuse {
                    self.flush()?;
                    self.cse.clear();
                }
            }
            P4Stmt::SetHeader(f, e) => {
                let raw = self.compile_expr(e)?;
                let val = self.masked(raw, f.bits())?;
                self.cse.remove(&MKey::Header(*f));
                self.emit_action(ActKind::SetHeader {
                    field: *f,
                    out: val,
                })?;
                if !self.opts.fuse {
                    self.cse.clear();
                }
            }
            P4Stmt::TableLookup {
                table,
                keys,
                hit_meta,
                value_metas,
            } => {
                let k_start = self.keys.len() as u32;
                for k in keys {
                    let v = self.compile_expr(k)?;
                    self.keys.push(v);
                }
                let k_end = self.keys.len() as u32;
                let hit_slot = self.interner.slot(hit_meta);
                self.cse.remove(&MKey::Meta(hit_slot));
                let v_start = self.val_slots.len() as u32;
                for m in value_metas {
                    let s = self.interner.slot(m);
                    self.cse.remove(&MKey::Meta(s));
                    self.val_slots.push(s);
                }
                let v_end = self.val_slots.len() as u32;
                let had_stores = !self.pending_stores.is_empty();
                self.emit_action(ActKind::Probe {
                    table: *table as u16,
                    keys: (k_start, k_end),
                    hit_slot,
                    vals: (v_start, v_end),
                })?;
                if self.opts.fuse && had_stores {
                    // A true SetMeta+TableLookup fusion: the key builders'
                    // stores ride the probe superinstruction.
                    self.stats.fused += 1;
                }
                if !self.opts.fuse {
                    self.cse.clear();
                }
            }
            P4Stmt::RegRead { reg, dst } => {
                self.flush()?;
                let dst_slot = self.interner.slot(dst);
                self.cse.remove(&MKey::Meta(dst_slot));
                self.emit_action(ActKind::RegRead {
                    reg: *reg as u16,
                    dst: dst_slot,
                })?;
            }
            P4Stmt::RegWrite { reg, src } => {
                let raw = self.compile_expr(src)?;
                // Register writes mask to the register width; fold the
                // mask into the compiled value.
                let width = self.reg_width(*reg);
                let val = self.masked(raw, width)?;
                self.emit_action(ActKind::RegWrite {
                    reg: *reg as u16,
                    out: val,
                })?;
                if !self.opts.fuse {
                    self.cse.clear();
                }
            }
            P4Stmt::RegFetchAdd { reg, dst, delta } => {
                let val = self.compile_expr(delta)?;
                let dst_slot = self.interner.slot(dst);
                self.cse.remove(&MKey::Meta(dst_slot));
                self.emit_action(ActKind::RegFetchAdd {
                    reg: *reg as u16,
                    width: self.reg_width(*reg),
                    dst: dst_slot,
                    out: val,
                })?;
                if !self.opts.fuse {
                    self.cse.clear();
                }
            }
            P4Stmt::UpdateChecksum => {
                self.flush()?;
                // The checksum refresh rewrites the IP checksum field;
                // drop every cached header load rather than tracking which
                // field it was.
                self.cse.retain(|k, _| !matches!(k, MKey::Header(_)));
                self.emit_action(ActKind::UpdateChecksum)?;
            }
            P4Stmt::EmitCopy => {
                self.flush()?;
                self.emit_action(ActKind::EmitCopy)?;
            }
            P4Stmt::MarkDrop => {
                self.flush()?;
                self.emit_action(ActKind::MarkDrop)?;
            }
        }
        Ok(())
    }

    fn reg_width(&self, reg: usize) -> u8 {
        self.reg_widths.get(reg).copied().unwrap_or(64)
    }

    fn terminator(&mut self, next: &NodeNext, is_pre: bool) -> Result<(), PlanError> {
        match next {
            NodeNext::Jump(t) => {
                self.flush()?;
                self.emit_action(ActKind::Jump { node: *t })?;
            }
            NodeNext::Cond {
                meta,
                then_n,
                else_n,
            } => {
                let slot = self.interner.slot(meta);
                match self.cse.get(&MKey::Meta(slot)).copied() {
                    Some(ExprVal::Const(c)) => {
                        // The condition is a build-time constant within
                        // this node: the branch folds to a jump.
                        self.stats.fused += 1;
                        let t = if c != 0 { *then_n } else { *else_n };
                        self.flush()?;
                        self.emit_action(ActKind::Jump { node: t })?;
                    }
                    Some(ExprVal::Reg(r)) => {
                        self.stats.fused += 1;
                        self.emit_action(ActKind::Branch {
                            src: BranchSrc::Reg(r),
                            then_node: *then_n,
                            else_node: *else_n,
                        })?;
                    }
                    None => {
                        self.emit_action(ActKind::Branch {
                            src: BranchSrc::Slot(slot),
                            then_node: *then_n,
                            else_node: *else_n,
                        })?;
                    }
                }
            }
            NodeNext::SkipJoin {
                join,
                skipped_has_foreign,
            } => {
                self.flush()?;
                if is_pre && *skipped_has_foreign {
                    self.emit_action(ActKind::Foreign)?;
                }
                match join {
                    Some(j) => self.emit_action(ActKind::Jump { node: *j })?,
                    None => self.emit_action(ActKind::Halt)?,
                }
            }
            NodeNext::End => {
                self.flush()?;
                self.emit_action(ActKind::Halt)?;
            }
        }
        Ok(())
    }

    /// Mark the registers an action consumes.
    fn mark_action_refs(&self, a: &ActionRec, mut mark: impl FnMut(ExprVal)) {
        for s in &self.stores[a.stores.0 as usize..a.stores.1 as usize] {
            mark(s.src);
        }
        match &a.kind {
            ActKind::SetHeader { out, .. }
            | ActKind::RegWrite { out, .. }
            | ActKind::RegFetchAdd { out, .. } => mark(*out),
            ActKind::Probe { keys, .. } => {
                for k in &self.keys[keys.0 as usize..keys.1 as usize] {
                    mark(*k);
                }
            }
            ActKind::Branch {
                src: BranchSrc::Reg(r),
                ..
            } => mark(ExprVal::Reg(*r)),
            _ => {}
        }
    }

    /// Dead-value elimination: drop micro-ops whose results feed nothing
    /// (orphaned by algebraic identities or elided stores).
    fn dve(&mut self) {
        let n = self.bits.len();
        let mut used = vec![false; n];
        for i in 0..self.actions.len() {
            let a = &self.actions[i];
            let mut marks: Vec<u16> = Vec::new();
            self.mark_action_refs(a, |v| {
                if let ExprVal::Reg(r) = v {
                    marks.push(r);
                }
            });
            for r in marks {
                used[usize::from(r)] = true;
            }
        }
        for op in self.ops.iter().rev() {
            if !used[usize::from(op.dst())] {
                continue;
            }
            match *op {
                MOp::BinRR { a, b, .. } => {
                    used[usize::from(a)] = true;
                    used[usize::from(b)] = true;
                }
                MOp::BinRI { a, .. } | MOp::NotR { a, .. } | MOp::MaskR { a, .. } => {
                    used[usize::from(a)] = true;
                }
                MOp::BinIR { b, .. } => used[usize::from(b)] = true,
                MOp::Hash {
                    args_start,
                    args_len,
                    ..
                } => {
                    let range = args_start as usize..args_start as usize + usize::from(args_len);
                    for v in &self.hash_args[range] {
                        if let ExprVal::Reg(r) = v {
                            used[usize::from(*r)] = true;
                        }
                    }
                }
                MOp::LoadMeta { .. } | MOp::LoadHeader { .. } | MOp::LoadIngress { .. } => {}
            }
        }
        let before = self.ops.len();
        let mut kept_owner = Vec::with_capacity(self.op_owner.len());
        let mut kept_ops = Vec::with_capacity(self.ops.len());
        for (op, owner) in self.ops.iter().zip(&self.op_owner) {
            if used[usize::from(op.dst())] {
                kept_ops.push(*op);
                kept_owner.push(*owner);
            }
        }
        self.stats.dead += (before - kept_ops.len()) as u64;
        self.ops = kept_ops;
        self.op_owner = kept_owner;
    }

    /// Def-before-use validation over the surviving SSA stream: every
    /// register an op or action reads must have been defined by an earlier
    /// op in this node. Guards compiler invariants with a typed error so
    /// the execution loop never needs bounds or arity checks.
    fn validate(&self) -> Result<(), PlanError> {
        let err = || PlanError::UndefinedRegister {
            traversal: self.traversal,
            node: self.node,
        };
        let n = self.bits.len();
        let mut defined = vec![false; n];
        let check = |defined: &[bool], r: u16| -> Result<(), PlanError> {
            if defined.get(usize::from(r)).copied().unwrap_or(false) {
                Ok(())
            } else {
                Err(err())
            }
        };
        let check_val = |defined: &[bool], v: ExprVal| -> Result<(), PlanError> {
            match v {
                ExprVal::Const(_) => Ok(()),
                ExprVal::Reg(r) => check(defined, r),
            }
        };
        let mut op_ptr = 0usize;
        for (i, a) in self.actions.iter().enumerate() {
            while op_ptr < self.ops.len() && self.op_owner[op_ptr] == i {
                let op = &self.ops[op_ptr];
                match *op {
                    MOp::BinRR { a, b, .. } => {
                        check(&defined, a)?;
                        check(&defined, b)?;
                    }
                    MOp::BinRI { a, .. } | MOp::NotR { a, .. } | MOp::MaskR { a, .. } => {
                        check(&defined, a)?;
                    }
                    MOp::BinIR { b, .. } => check(&defined, b)?,
                    MOp::Hash {
                        args_start,
                        args_len,
                        ..
                    } => {
                        let range =
                            args_start as usize..args_start as usize + usize::from(args_len);
                        for v in &self.hash_args[range] {
                            check_val(&defined, *v)?;
                        }
                    }
                    MOp::LoadMeta { .. } | MOp::LoadHeader { .. } | MOp::LoadIngress { .. } => {}
                }
                defined[usize::from(op.dst())] = true;
                op_ptr += 1;
            }
            let mut bad = false;
            self.mark_action_refs(a, |v| {
                if let ExprVal::Reg(r) = v {
                    if !defined.get(usize::from(r)).copied().unwrap_or(false) {
                        bad = true;
                    }
                }
            });
            if bad {
                return Err(err());
            }
        }
        // Every op must be owned (the terminator flushes the tail).
        if op_ptr != self.ops.len() {
            return Err(err());
        }
        Ok(())
    }

    /// Linear-scan register allocation: compute each SSA value's last use,
    /// then map SSA ids onto a compact physical file with a free list.
    /// Rewrites ops, stores, keys, hash args, and action refs in place.
    /// Returns the physical file size this node needs.
    fn allocate(&mut self) -> Result<u16, PlanError> {
        let n = self.bits.len();
        // Event index: op k is event 2k, action i's consumption is the
        // event right after its last op. Simpler: walk ops and actions in
        // the same interleaved order twice, counting a monotonic clock.
        let mut last_use = vec![0usize; n];
        let mut def_at = vec![usize::MAX; n];
        let mut clock = 0usize;
        let mut op_ptr = 0usize;
        for (i, a) in self.actions.iter().enumerate() {
            while op_ptr < self.ops.len() && self.op_owner[op_ptr] == i {
                let op = &self.ops[op_ptr];
                let mut touch = |r: u16| last_use[usize::from(r)] = clock;
                match *op {
                    MOp::BinRR { a, b, .. } => {
                        touch(a);
                        touch(b);
                    }
                    MOp::BinRI { a, .. } | MOp::NotR { a, .. } | MOp::MaskR { a, .. } => touch(a),
                    MOp::BinIR { b, .. } => touch(b),
                    MOp::Hash {
                        args_start,
                        args_len,
                        ..
                    } => {
                        let range =
                            args_start as usize..args_start as usize + usize::from(args_len);
                        for v in &self.hash_args[range] {
                            if let ExprVal::Reg(r) = v {
                                last_use[usize::from(*r)] = clock;
                            }
                        }
                    }
                    _ => {}
                }
                let d = usize::from(op.dst());
                def_at[d] = clock;
                last_use[d] = last_use[d].max(clock);
                clock += 1;
                op_ptr += 1;
            }
            self.mark_action_refs(a, |v| {
                if let ExprVal::Reg(r) = v {
                    last_use[usize::from(r)] = clock;
                }
            });
            clock += 1;
        }
        // Assignment pass.
        let mut phys = vec![u16::MAX; n];
        let mut free: Vec<u16> = Vec::new();
        let mut high: u16 = 0;
        let mut clock = 0usize;
        let mut op_ptr = 0usize;
        let release = |phys: &[u16], free: &mut Vec<u16>, last: &[usize], r: u16, now: usize| {
            if last[usize::from(r)] == now && phys[usize::from(r)] != u16::MAX {
                free.push(phys[usize::from(r)]);
            }
        };
        for (i, a) in self.actions.iter().enumerate() {
            while op_ptr < self.ops.len() && self.op_owner[op_ptr] == i {
                let op = self.ops[op_ptr];
                match op {
                    MOp::BinRR { a, b, .. } => {
                        release(&phys, &mut free, &last_use, a, clock);
                        if b != a {
                            release(&phys, &mut free, &last_use, b, clock);
                        }
                    }
                    MOp::BinRI { a, .. } | MOp::NotR { a, .. } | MOp::MaskR { a, .. } => {
                        release(&phys, &mut free, &last_use, a, clock);
                    }
                    MOp::BinIR { b, .. } => release(&phys, &mut free, &last_use, b, clock),
                    MOp::Hash {
                        args_start,
                        args_len,
                        ..
                    } => {
                        let range =
                            args_start as usize..args_start as usize + usize::from(args_len);
                        let mut seen: Vec<u16> = Vec::new();
                        for v in self.hash_args[range].iter() {
                            if let ExprVal::Reg(r) = v {
                                if !seen.contains(r) {
                                    seen.push(*r);
                                    release(&phys, &mut free, &last_use, *r, clock);
                                }
                            }
                        }
                    }
                    _ => {}
                }
                let d = usize::from(op.dst());
                let p = match free.pop() {
                    Some(p) => p,
                    None => {
                        let p = high;
                        high = high.checked_add(1).ok_or(PlanError::RegisterOverflow {
                            traversal: self.traversal,
                            node: self.node,
                        })?;
                        p
                    }
                };
                phys[d] = p;
                // A value never read frees its register immediately.
                if last_use[d] == clock {
                    free.push(p);
                }
                clock += 1;
                op_ptr += 1;
            }
            // Action consumption frees operands at their last use so later
            // actions in the node can reuse their registers.
            let mut consumed: Vec<u16> = Vec::new();
            self.mark_action_refs(a, |v| {
                if let ExprVal::Reg(r) = v {
                    if !consumed.contains(&r) {
                        consumed.push(r);
                    }
                }
            });
            for r in consumed {
                release(&phys, &mut free, &last_use, r, clock);
            }
            clock += 1;
        }
        // Rewrite SSA ids to physical registers everywhere.
        let map = |r: u16| phys[usize::from(r)];
        let map_val = |v: ExprVal| match v {
            ExprVal::Reg(r) => ExprVal::Reg(map(r)),
            c => c,
        };
        for op in &mut self.ops {
            match op {
                MOp::LoadMeta { dst, .. }
                | MOp::LoadHeader { dst, .. }
                | MOp::LoadIngress { dst }
                | MOp::Hash { dst, .. } => *dst = map(*dst),
                MOp::BinRR { dst, a, b, .. } => {
                    *a = map(*a);
                    *b = map(*b);
                    *dst = map(*dst);
                }
                MOp::BinRI { dst, a, .. } | MOp::NotR { dst, a } | MOp::MaskR { dst, a, .. } => {
                    *a = map(*a);
                    *dst = map(*dst);
                }
                MOp::BinIR { dst, b, .. } => {
                    *b = map(*b);
                    *dst = map(*dst);
                }
            }
        }
        for v in &mut self.hash_args {
            *v = map_val(*v);
        }
        for v in &mut self.keys {
            *v = map_val(*v);
        }
        for s in &mut self.stores {
            s.src = map_val(s.src);
        }
        for a in &mut self.actions {
            match &mut a.kind {
                ActKind::SetHeader { out, .. }
                | ActKind::RegWrite { out, .. }
                | ActKind::RegFetchAdd { out, .. } => *out = map_val(*out),
                ActKind::Branch {
                    src: BranchSrc::Reg(r),
                    ..
                } => *r = map(*r),
                _ => {}
            }
        }
        Ok(high)
    }

    /// Append the node's actions to the traversal, remapping node-local
    /// pool ranges to the global pools and recording jump fixups.
    fn commit(
        self,
        plan: &mut TraversalPlan,
        fixups: &mut Vec<(usize, usize)>,
    ) -> Result<(), PlanError> {
        let overflow = |what: &'static str| PlanError::PoolOverflow {
            traversal: self.traversal,
            what,
        };
        let pool_ref =
            |start: usize, end: usize, what: &'static str| -> Result<PoolRef, PlanError> {
                Ok(PoolRef {
                    start: u32::try_from(start).map_err(|_| overflow(what))?,
                    len: u16::try_from(end - start).map_err(|_| overflow(what))?,
                })
            };
        let mut op_ptr = 0usize;
        for (i, a) in self.actions.iter().enumerate() {
            // Copy this action's micro-ops, remapping hash-arg ranges.
            let run_start = plan.micro.len();
            while op_ptr < self.ops.len() && self.op_owner[op_ptr] == i {
                let mut op = self.ops[op_ptr];
                if let MOp::Hash {
                    args_start,
                    args_len,
                    ..
                } = &mut op
                {
                    let local = *args_start as usize..*args_start as usize + usize::from(*args_len);
                    let new_start =
                        u32::try_from(plan.hash_args.len()).map_err(|_| overflow("hash args"))?;
                    plan.hash_args.extend_from_slice(&self.hash_args[local]);
                    *args_start = new_start;
                }
                plan.micro.push(op);
                op_ptr += 1;
            }
            let run = pool_ref(run_start, plan.micro.len(), "micro-ops")?;
            let st_start = plan.stores.len();
            plan.stores
                .extend_from_slice(&self.stores[a.stores.0 as usize..a.stores.1 as usize]);
            let stores = pool_ref(st_start, plan.stores.len(), "stores")?;
            match &a.kind {
                ActKind::Eval => {
                    if !run.is_empty() || !stores.is_empty() {
                        plan.ops.push(PlanOp::Eval { run, stores });
                    }
                }
                ActKind::SetHeader { field, out } => plan.ops.push(PlanOp::SetHeader {
                    run,
                    stores,
                    field: *field,
                    out: *out,
                }),
                ActKind::Probe {
                    table,
                    keys,
                    hit_slot,
                    vals,
                } => {
                    let gk_start = plan.keys.len();
                    plan.keys
                        .extend_from_slice(&self.keys[keys.0 as usize..keys.1 as usize]);
                    let gkeys = pool_ref(gk_start, plan.keys.len(), "table keys")?;
                    let gv_start = plan.value_slots.len();
                    plan.value_slots
                        .extend_from_slice(&self.val_slots[vals.0 as usize..vals.1 as usize]);
                    let gvals = pool_ref(gv_start, plan.value_slots.len(), "value slots")?;
                    plan.ops.push(PlanOp::BuildKeyProbe {
                        run,
                        stores,
                        table: *table,
                        keys: gkeys,
                        hit_slot: *hit_slot,
                        vals: gvals,
                    });
                }
                ActKind::RegRead { reg, dst } => {
                    debug_assert!(run.is_empty() && stores.is_empty());
                    plan.ops.push(PlanOp::RegRead {
                        reg: *reg,
                        dst: *dst,
                    });
                }
                ActKind::RegWrite { reg, out } => plan.ops.push(PlanOp::RegWrite {
                    run,
                    stores,
                    reg: *reg,
                    out: *out,
                }),
                ActKind::RegFetchAdd {
                    reg,
                    width,
                    dst,
                    out,
                } => plan.ops.push(PlanOp::RegFetchAdd {
                    run,
                    stores,
                    reg: *reg,
                    width: *width,
                    dst: *dst,
                    out: *out,
                }),
                ActKind::UpdateChecksum => plan.ops.push(PlanOp::UpdateChecksum),
                ActKind::EmitCopy => plan.ops.push(PlanOp::EmitCopy),
                ActKind::MarkDrop => plan.ops.push(PlanOp::MarkDrop),
                ActKind::Foreign => plan.ops.push(PlanOp::Foreign),
                ActKind::Jump { node } => {
                    fixups.push((plan.ops.len(), *node));
                    plan.ops.push(PlanOp::Jump(u32::MAX));
                }
                ActKind::Branch {
                    src,
                    then_node,
                    else_node,
                } => {
                    // Branch carries two fixups; encode the else target in
                    // the fixup list right after the then target.
                    fixups.push((plan.ops.len(), *then_node));
                    fixups.push((plan.ops.len(), *else_node));
                    plan.ops.push(PlanOp::Branch {
                        run,
                        stores,
                        src: *src,
                        then_ip: u32::MAX,
                        else_ip: u32::MAX,
                    });
                }
                ActKind::Halt => plan.ops.push(PlanOp::Halt),
            }
        }
        Ok(())
    }
}

#[allow(clippy::too_many_arguments)]
fn compile_traversal(
    prog: &P4Program,
    is_pre: bool,
    traversal: &'static str,
    interner: &mut Interner,
    meta_bits: &HashMap<&str, u16>,
    reg_widths: &[u8],
    external_reads: &[u16],
    opts: PlanOptions,
    stats: &mut PlanExprStats,
) -> Result<(TraversalPlan, u16), PlanError> {
    check_dag(prog, is_pre, traversal)?;
    let nodes = if is_pre {
        &prog.pre_nodes
    } else {
        &prog.post_nodes
    };
    let mut plan = TraversalPlan::default();
    let mut node_ip = vec![0u32; nodes.len()];
    // (op index, target node) pairs patched once every node has an address.
    let mut fixups: Vec<(usize, usize)> = Vec::new();
    let readers = scan_reads(nodes, interner, external_reads);
    let mut max_regs: u16 = 0;

    for (i, node) in nodes.iter().enumerate() {
        node_ip[i] = u32::try_from(plan.ops.len()).map_err(|_| PlanError::PoolOverflow {
            traversal,
            what: "ops",
        })?;
        let mut nc = NodeCompiler::new(
            interner, meta_bits, reg_widths, &readers, opts, stats, traversal, i,
        );
        if is_pre && node.has_foreign_work {
            nc.emit_action(ActKind::Foreign)?;
        }
        for stmt in &node.stmts {
            nc.stmt(stmt)?;
        }
        nc.terminator(&node.next, is_pre)?;
        if opts.fuse {
            nc.dve();
        }
        nc.validate()?;
        let regs = nc.allocate()?;
        max_regs = max_regs.max(regs);
        nc.commit(&mut plan, &mut fixups)?;
    }
    // Patch jump targets now that every node has an instruction address.
    // Branch ops consume two consecutive fixup entries (then, else).
    let mut it = fixups.into_iter().peekable();
    while let Some((op_idx, target)) = it.next() {
        let ip = node_ip[target];
        match &mut plan.ops[op_idx] {
            PlanOp::Jump(t) => *t = ip,
            PlanOp::Branch {
                then_ip, else_ip, ..
            } => {
                *then_ip = ip;
                let (_, else_target) = it.next().expect("branch has two fixups");
                *else_ip = node_ip[else_target];
            }
            other => unreachable!("fixup on non-jump op {other:?}"),
        }
    }
    plan.entry_ip = node_ip[prog.entry];
    plan.node_ips = node_ip;
    Ok((plan, max_regs))
}

/// One traversal's share of [`ExecPlan::validate_committed`]: walk every
/// committed op and bounds-check each pool range, slot, register, table
/// index, and control target it references.
fn validate_traversal(
    plan: &TraversalPlan,
    traversal: &'static str,
    n_slots: usize,
    n_regs: usize,
    n_tables: usize,
    n_registers: usize,
) -> Result<(), PlanError> {
    let oob = |ip: u32, what: &'static str| PlanError::OutOfBounds {
        traversal,
        ip,
        what,
    };
    let check_range = |ip: u32, r: PoolRef, pool_len: usize, what: &'static str| {
        if r.start as usize + usize::from(r.len) > pool_len {
            Err(oob(ip, what))
        } else {
            Ok(())
        }
    };
    let check_slot = |ip: u32, s: u16, what: &'static str| {
        if usize::from(s) >= n_slots {
            Err(oob(ip, what))
        } else {
            Ok(())
        }
    };
    let check_reg = |ip: u32, r: u16, what: &'static str| {
        if usize::from(r) >= n_regs {
            Err(oob(ip, what))
        } else {
            Ok(())
        }
    };
    let check_val = |ip: u32, v: ExprVal, what: &'static str| match v {
        ExprVal::Const(_) => Ok(()),
        ExprVal::Reg(r) => check_reg(ip, r, what),
    };
    let check_run = |ip: u32, r: PoolRef| -> Result<(), PlanError> {
        check_range(ip, r, plan.micro.len(), "micro-op range")?;
        for op in &plan.micro[r.range()] {
            check_reg(ip, op.dst(), "micro-op register")?;
            match *op {
                MOp::LoadMeta { slot, .. } => check_slot(ip, slot, "micro-op slot")?,
                MOp::BinRR { a, b, .. } => {
                    check_reg(ip, a, "micro-op register")?;
                    check_reg(ip, b, "micro-op register")?;
                }
                MOp::BinRI { a, .. } | MOp::NotR { a, .. } | MOp::MaskR { a, .. } => {
                    check_reg(ip, a, "micro-op register")?;
                }
                MOp::BinIR { b, .. } => check_reg(ip, b, "micro-op register")?,
                MOp::Hash {
                    args_start,
                    args_len,
                    ..
                } => {
                    let hr = PoolRef {
                        start: args_start,
                        len: args_len,
                    };
                    check_range(ip, hr, plan.hash_args.len(), "hash-arg range")?;
                    for v in &plan.hash_args[hr.range()] {
                        check_val(ip, *v, "hash-arg register")?;
                    }
                }
                MOp::LoadHeader { .. } | MOp::LoadIngress { .. } => {}
            }
        }
        Ok(())
    };
    let check_stores = |ip: u32, s: PoolRef| -> Result<(), PlanError> {
        check_range(ip, s, plan.stores.len(), "store range")?;
        for st in &plan.stores[s.range()] {
            check_slot(ip, st.slot, "store slot")?;
            check_val(ip, st.src, "store register")?;
        }
        Ok(())
    };
    let n_ops = plan.ops.len();
    let check_target = |ip: u32, target: u32| {
        if (target as usize) < n_ops {
            Ok(())
        } else {
            Err(PlanError::BadJumpTarget {
                traversal,
                ip,
                target,
            })
        }
    };
    for (i, op) in plan.ops.iter().enumerate() {
        let ip = i as u32;
        match op {
            PlanOp::Eval { run, stores } => {
                check_run(ip, *run)?;
                check_stores(ip, *stores)?;
            }
            PlanOp::SetHeader {
                run, stores, out, ..
            } => {
                check_run(ip, *run)?;
                check_stores(ip, *stores)?;
                check_val(ip, *out, "header-out register")?;
            }
            PlanOp::BuildKeyProbe {
                run,
                stores,
                table,
                keys,
                hit_slot,
                vals,
            } => {
                check_run(ip, *run)?;
                check_stores(ip, *stores)?;
                if usize::from(*table) >= n_tables {
                    return Err(oob(ip, "table"));
                }
                check_range(ip, *keys, plan.keys.len(), "key range")?;
                for k in &plan.keys[keys.range()] {
                    check_val(ip, *k, "key register")?;
                }
                check_slot(ip, *hit_slot, "hit slot")?;
                check_range(ip, *vals, plan.value_slots.len(), "value-slot range")?;
                for s in &plan.value_slots[vals.range()] {
                    check_slot(ip, *s, "value slot")?;
                }
            }
            PlanOp::RegRead { reg, dst } => {
                if usize::from(*reg) >= n_registers {
                    return Err(oob(ip, "state register"));
                }
                check_slot(ip, *dst, "register-read slot")?;
            }
            PlanOp::RegWrite {
                run,
                stores,
                reg,
                out,
            } => {
                check_run(ip, *run)?;
                check_stores(ip, *stores)?;
                if usize::from(*reg) >= n_registers {
                    return Err(oob(ip, "state register"));
                }
                check_val(ip, *out, "register-write register")?;
            }
            PlanOp::RegFetchAdd {
                run,
                stores,
                reg,
                dst,
                out,
                ..
            } => {
                check_run(ip, *run)?;
                check_stores(ip, *stores)?;
                if usize::from(*reg) >= n_registers {
                    return Err(oob(ip, "state register"));
                }
                check_slot(ip, *dst, "fetch-add slot")?;
                check_val(ip, *out, "fetch-add register")?;
            }
            PlanOp::Jump(t) => check_target(ip, *t)?,
            PlanOp::Branch {
                run,
                stores,
                src,
                then_ip,
                else_ip,
            } => {
                check_run(ip, *run)?;
                check_stores(ip, *stores)?;
                match src {
                    BranchSrc::Reg(r) => check_reg(ip, *r, "branch register")?,
                    BranchSrc::Slot(s) => check_slot(ip, *s, "branch slot")?,
                }
                check_target(ip, *then_ip)?;
                check_target(ip, *else_ip)?;
            }
            PlanOp::UpdateChecksum
            | PlanOp::EmitCopy
            | PlanOp::MarkDrop
            | PlanOp::Foreign
            | PlanOp::Halt => {}
        }
    }
    check_target(u32::MAX, plan.entry_ip)
}

/// Reusable per-switch scratch buffers: zero allocation per packet.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Dense metadata (one word per interned slot).
    pub meta: Vec<u64>,
    /// The virtual register file (one word per physical register).
    pub regs: Vec<u64>,
    /// Table key assembly buffer — inline up to [`crate::INLINE_KEY_WORDS`]
    /// words, matching the fixed-width match keys of the table layer.
    pub key: KeyBuf,
}

impl PlanScratch {
    pub(crate) fn sized_for(plan: &ExecPlan) -> Self {
        PlanScratch {
            meta: vec![0; plan.n_slots],
            regs: vec![0; plan.n_regs],
            key: KeyBuf::new(),
        }
    }
}

/// The mutable runtime state a traversal touches, borrowed field-by-field
/// from the [`crate::Switch`] so the plan (borrowed from the same switch)
/// stays immutably shared.
pub(crate) struct PlanCtx<'a> {
    pub tables: &'a [RtTable],
    pub registers: &'a mut [u64],
    pub wb_active: bool,
    pub routes: &'a HashMap<u32, PortId, FastBuildHasher>,
    pub default_port: PortId,
    /// Flight-recorder hook for the sampled packet in flight, with the
    /// hop label of this traversal. `None` keeps the loop trace-free.
    pub trace: Option<(&'a Tracer, u32, Hop)>,
    pub stats: &'a mut SwitchStats,
}

/// What a plan traversal reported.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PlanRun {
    /// Pre only: the path crossed later-stage work (slow path).
    pub saw_foreign: bool,
    /// A lookup missed in a cache-mode table (voids the traversal).
    pub cache_missed: bool,
}

/// Route a packet by IPv4 destination, falling back to the default port.
#[inline]
pub(crate) fn route_for(
    routes: &HashMap<u32, PortId, FastBuildHasher>,
    default_port: PortId,
    pkt: &Packet,
) -> PortId {
    let daddr = read_header_field(pkt.bytes(), HeaderField::IpDaddr) as u32;
    routes.get(&daddr).copied().unwrap_or(default_port)
}

/// Execute one micro-op run against the register file. All register
/// indices were validated def-before-use at build time and the file is
/// sized to the plan's high-water mark, so plain indexing cannot fail.
#[inline]
fn run_micro(ops: &[MOp], hash_args: &[ExprVal], regs: &mut [u64], meta: &[u64], pkt: &Packet) {
    for op in ops {
        match *op {
            MOp::LoadMeta { dst, slot } => regs[usize::from(dst)] = meta[usize::from(slot)],
            MOp::LoadHeader { dst, field } => {
                regs[usize::from(dst)] = read_header_field(pkt.bytes(), field)
            }
            MOp::LoadIngress { dst } => regs[usize::from(dst)] = u64::from(pkt.ingress.0),
            MOp::BinRR { op, dst, a, b } => {
                regs[usize::from(dst)] = op.eval(regs[usize::from(a)], regs[usize::from(b)], 64)
            }
            MOp::BinRI { op, dst, a, imm } => {
                regs[usize::from(dst)] = op.eval(regs[usize::from(a)], imm, 64)
            }
            MOp::BinIR { op, dst, imm, b } => {
                regs[usize::from(dst)] = op.eval(imm, regs[usize::from(b)], 64)
            }
            MOp::NotR { dst, a } => regs[usize::from(dst)] = !regs[usize::from(a)],
            MOp::MaskR { dst, a, width } => {
                regs[usize::from(dst)] = mask_to_width(regs[usize::from(a)], width)
            }
            MOp::Hash {
                dst,
                args_start,
                args_len,
                width,
            } => {
                let args =
                    &hash_args[args_start as usize..args_start as usize + usize::from(args_len)];
                let h = hash_values_iter(args.iter().map(|a| resolve(*a, regs)), width);
                regs[usize::from(dst)] = h;
            }
        }
    }
}

/// Apply the metadata stores attached to an op (values are pre-masked at
/// build time).
#[inline(always)]
fn apply_stores(stores: &[StoreSlot], regs: &[u64], meta: &mut [u64]) {
    for s in stores {
        meta[usize::from(s.slot)] = resolve(s.src, regs);
    }
}

/// Execute one compiled traversal over `pkt`. Emitted copies are appended
/// to `out`; metadata lives in `scratch.meta` (caller zeroes or pre-seeds
/// it). The node graph was proven acyclic at build time, so the loop needs
/// no step guard.
pub(crate) fn run_plan(
    plan: &TraversalPlan,
    ctx: &mut PlanCtx<'_>,
    scratch: &mut PlanScratch,
    pkt: &mut Packet,
    out: &mut Vec<(PortId, Packet)>,
) -> PlanRun {
    let mut run = PlanRun::default();
    let meta = &mut scratch.meta;
    let regs = &mut scratch.regs;
    let key = &mut scratch.key;
    let mut ip = plan.entry_ip as usize;
    loop {
        match &plan.ops[ip] {
            PlanOp::Eval { run: r, stores } => {
                run_micro(&plan.micro[r.range()], &plan.hash_args, regs, meta, pkt);
                apply_stores(&plan.stores[stores.range()], regs, meta);
            }
            PlanOp::SetHeader {
                run: r,
                stores,
                field,
                out: o,
            } => {
                run_micro(&plan.micro[r.range()], &plan.hash_args, regs, meta, pkt);
                apply_stores(&plan.stores[stores.range()], regs, meta);
                write_header_field(pkt.bytes_mut(), *field, resolve(*o, regs));
            }
            PlanOp::BuildKeyProbe {
                run: r,
                stores,
                table,
                keys,
                hit_slot,
                vals,
            } => {
                run_micro(&plan.micro[r.range()], &plan.hash_args, regs, meta, pkt);
                apply_stores(&plan.stores[stores.range()], regs, meta);
                key.clear();
                for k in &plan.keys[keys.range()] {
                    key.push(resolve(*k, regs));
                }
                let slots = &plan.value_slots[vals.range()];
                let t = &ctx.tables[usize::from(*table)];
                match t.lookup_ref(key.as_slice(), ctx.wb_active) {
                    Some(found) => {
                        if let Some((tr, id, hop)) = ctx.trace {
                            tr.emit(id, hop, EventKind::TableHit, u64::from(*table));
                        }
                        meta[usize::from(*hit_slot)] = 1;
                        for (s, v) in slots.iter().zip(found) {
                            meta[usize::from(*s)] = *v;
                        }
                    }
                    None => {
                        // A miss in a cached table is inconclusive — the
                        // authoritative map may hold the entry.
                        let cached = t.is_cache();
                        if cached {
                            run.cache_missed = true;
                        }
                        if let Some((tr, id, hop)) = ctx.trace {
                            let kind = if cached {
                                EventKind::CacheMiss
                            } else {
                                EventKind::TableMiss
                            };
                            tr.emit(id, hop, kind, u64::from(*table));
                        }
                        meta[usize::from(*hit_slot)] = 0;
                        for s in slots {
                            meta[usize::from(*s)] = 0;
                        }
                    }
                }
            }
            PlanOp::RegRead { reg, dst } => {
                meta[usize::from(*dst)] = ctx.registers[usize::from(*reg)];
            }
            PlanOp::RegWrite {
                run: r,
                stores,
                reg,
                out: o,
            } => {
                run_micro(&plan.micro[r.range()], &plan.hash_args, regs, meta, pkt);
                apply_stores(&plan.stores[stores.range()], regs, meta);
                ctx.registers[usize::from(*reg)] = resolve(*o, regs);
            }
            PlanOp::RegFetchAdd {
                run: r,
                stores,
                reg,
                width,
                dst,
                out: o,
            } => {
                run_micro(&plan.micro[r.range()], &plan.hash_args, regs, meta, pkt);
                apply_stores(&plan.stores[stores.range()], regs, meta);
                let d = resolve(*o, regs);
                let old = ctx.registers[usize::from(*reg)];
                ctx.registers[usize::from(*reg)] = mask_to_width(old.wrapping_add(d), *width);
                meta[usize::from(*dst)] = old;
            }
            PlanOp::UpdateChecksum => refresh_ip_checksum(pkt.bytes_mut()),
            PlanOp::EmitCopy => {
                ctx.stats.emitted += 1;
                let port = route_for(ctx.routes, ctx.default_port, pkt);
                if let Some((tr, id, hop)) = ctx.trace {
                    tr.emit(id, hop, EventKind::Emit, u64::from(port.0));
                }
                out.push((port, pkt.clone()));
            }
            PlanOp::MarkDrop => {
                ctx.stats.dropped += 1;
                ctx.stats.drop_marked += 1;
                if let Some((tr, id, hop)) = ctx.trace {
                    tr.emit(id, hop, EventKind::Drop, DropReason::SwitchMarked as u64);
                }
            }
            PlanOp::Foreign => {
                run.saw_foreign = true;
            }
            PlanOp::Jump(t) => {
                ip = *t as usize;
                continue;
            }
            PlanOp::Branch {
                run: r,
                stores,
                src,
                then_ip,
                else_ip,
            } => {
                run_micro(&plan.micro[r.range()], &plan.hash_args, regs, meta, pkt);
                apply_stores(&plan.stores[stores.range()], regs, meta);
                let cond = match src {
                    BranchSrc::Reg(r) => regs[usize::from(*r)],
                    BranchSrc::Slot(s) => meta[usize::from(*s)],
                };
                ip = if cond != 0 {
                    *then_ip as usize
                } else {
                    *else_ip as usize
                };
                continue;
            }
            PlanOp::Halt => break,
        }
        ip += 1;
    }
    run
}

/// Differential-testing hooks for the expression compiler: evaluate a
/// standalone [`P4Expr`] through the full compiled pipeline (lower →
/// register-allocate → execute) and through the AST interpreter's
/// reference evaluator, so property tests can compare them bit-for-bit.
pub mod expr_check {
    use super::*;
    use gallium_net::{TransferField, TransferHeaderLayout};
    use gallium_p4::MetaField;

    /// Slot name the synthetic program stores the expression result into.
    const OUT: &str = "__expr_check_out";

    fn synthetic_program(expr: &P4Expr, metas: &[(String, u16, u64)]) -> P4Program {
        let mut metadata: Vec<MetaField> = metas
            .iter()
            .map(|(name, bits, _)| MetaField {
                name: name.clone(),
                bits: *bits,
            })
            .collect();
        metadata.push(MetaField {
            name: OUT.to_string(),
            bits: 64,
        });
        // Packing the result into the to-server header marks its slot as
        // externally read, so dead-store elimination must keep the write —
        // exactly the invariant the production lowering relies on.
        let header_to_server =
            TransferHeaderLayout::new(vec![TransferField::new(OUT.to_string(), 64)])
                .expect("synthetic layout");
        let header_to_switch = TransferHeaderLayout::new(vec![]).expect("empty layout");
        P4Program {
            name: "__expr_check".to_string(),
            metadata,
            tables: vec![],
            registers: vec![],
            pre_nodes: vec![BlockNode {
                stmts: vec![P4Stmt::SetMeta(OUT.to_string(), expr.clone())],
                has_foreign_work: false,
                next: NodeNext::End,
            }],
            post_nodes: vec![BlockNode {
                stmts: vec![],
                has_foreign_work: false,
                next: NodeNext::End,
            }],
            entry: 0,
            header_to_server,
            header_to_switch,
            to_server_fields: vec![OUT.to_string()],
        }
    }

    /// Compile `expr` (with the given metadata declarations and seed
    /// values) and execute it against `pkt`, returning the 64-bit result.
    /// Seed values are written to the scratch unmasked, mirroring how
    /// table values and register reads land in slots at runtime.
    pub fn compiled_eval(
        expr: &P4Expr,
        metas: &[(String, u16, u64)],
        pkt: &Packet,
        fuse: bool,
    ) -> Result<u64, PlanError> {
        let prog = synthetic_program(expr, metas);
        let plan = ExecPlan::build_with(&prog, PlanOptions { fuse })?;
        let mut scratch = PlanScratch::sized_for(&plan);
        for (name, _, v) in metas {
            if let Some(&slot) = plan.slots.get(name) {
                scratch.meta[usize::from(slot)] = *v;
            }
        }
        let mut registers: Vec<u64> = vec![];
        let routes: HashMap<u32, PortId, FastBuildHasher> = HashMap::default();
        let mut stats = SwitchStats::default();
        let mut ctx = PlanCtx {
            tables: &[],
            registers: &mut registers,
            wb_active: false,
            routes: &routes,
            default_port: PortId(0),
            trace: None,
            stats: &mut stats,
        };
        let mut pkt = pkt.clone();
        let mut out = Vec::new();
        run_plan(&plan.pre, &mut ctx, &mut scratch, &mut pkt, &mut out);
        let slot = plan.slots.get(OUT).copied().expect("out slot interned");
        Ok(scratch.meta[usize::from(slot)])
    }

    /// Evaluate `expr` with the AST interpreter's reference evaluator over
    /// the same seed metadata (also unmasked).
    pub fn reference_eval(expr: &P4Expr, metas: &[(String, u16, u64)], pkt: &Packet) -> u64 {
        let map: HashMap<String, u64> = metas
            .iter()
            .map(|(name, _, v)| (name.clone(), *v))
            .collect();
        crate::switch::eval_ast(expr, pkt, &map)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gallium_mir::StateId;
    use gallium_net::{TransferField, TransferHeaderLayout};
    use gallium_p4::{MetaField, P4Register, P4Table, TableMatchKind};

    fn bin(op: BinOp, a: P4Expr, b: P4Expr) -> P4Expr {
        P4Expr::Bin(op, Box::new(a), Box::new(b))
    }

    fn meta(name: &str) -> P4Expr {
        P4Expr::Meta(name.to_string())
    }

    /// A small two-traversal program exercising every committed op shape:
    /// metadata arithmetic with masking, a hash, a fused two-key table
    /// probe, register ops, a computed branch, jumps, and pinned transfer
    /// stores. Shared with the symbolic-validator tests.
    pub(crate) fn fixture() -> P4Program {
        let mf = |name: &str, bits: u16| MetaField {
            name: name.to_string(),
            bits,
        };
        let set = |name: &str, e: P4Expr| P4Stmt::SetMeta(name.to_string(), e);
        let n0 = BlockNode {
            stmts: vec![
                set("a", P4Expr::Header(HeaderField::IpSaddr)),
                set(
                    "k0",
                    bin(
                        BinOp::Add,
                        P4Expr::Header(HeaderField::IpSaddr),
                        P4Expr::Const(7, 8),
                    ),
                ),
                set(
                    "k1",
                    P4Expr::Cast(
                        Box::new(bin(
                            BinOp::Add,
                            P4Expr::Header(HeaderField::IpDaddr),
                            meta("a"),
                        )),
                        16,
                    ),
                ),
                set(
                    "sum",
                    bin(BinOp::Add, P4Expr::Const(2, 8), P4Expr::Const(3, 8)),
                ),
                set(
                    "hh",
                    P4Expr::Hash(vec![meta("a"), P4Expr::Header(HeaderField::IpDaddr)], 16),
                ),
                P4Stmt::TableLookup {
                    table: 0,
                    keys: vec![meta("k0"), meta("k1")],
                    hit_meta: "t_hit".to_string(),
                    value_metas: vec!["t_v0".to_string()],
                },
                set("out", bin(BinOp::Add, meta("t_v0"), meta("a"))),
                set("cond", bin(BinOp::Eq, meta("t_hit"), P4Expr::Const(1, 1))),
            ],
            has_foreign_work: false,
            next: NodeNext::Cond {
                meta: "cond".to_string(),
                then_n: 1,
                else_n: 2,
            },
        };
        let n1 = BlockNode {
            stmts: vec![
                P4Stmt::RegFetchAdd {
                    reg: 0,
                    dst: "cnt_old".to_string(),
                    delta: P4Expr::Const(1, 8),
                },
                P4Stmt::RegWrite {
                    reg: 0,
                    src: meta("out"),
                },
                P4Stmt::SetHeader(
                    HeaderField::IpTtl,
                    bin(BinOp::Xor, meta("t_v0"), meta("hh")),
                ),
                P4Stmt::UpdateChecksum,
            ],
            has_foreign_work: false,
            next: NodeNext::Jump(3),
        };
        let n2 = BlockNode {
            stmts: vec![P4Stmt::MarkDrop],
            has_foreign_work: false,
            next: NodeNext::Jump(3),
        };
        let n3 = BlockNode {
            stmts: vec![
                P4Stmt::RegRead {
                    reg: 0,
                    dst: "rr".to_string(),
                },
                P4Stmt::EmitCopy,
            ],
            has_foreign_work: false,
            next: NodeNext::End,
        };
        let header_to_server = TransferHeaderLayout::new(vec![
            TransferField::new("sum".to_string(), 64),
            TransferField::new("out".to_string(), 64),
        ])
        .expect("layout");
        let header_to_switch = TransferHeaderLayout::new(vec![]).expect("layout");
        P4Program {
            name: "__plan_fixture".to_string(),
            metadata: vec![
                mf("a", 16),
                mf("k0", 32),
                mf("k1", 32),
                mf("sum", 64),
                mf("hh", 16),
                mf("t_hit", 1),
                mf("t_v0", 32),
                mf("out", 64),
                mf("cond", 1),
                mf("cnt_old", 64),
                mf("rr", 64),
            ],
            tables: vec![P4Table {
                name: "t".to_string(),
                state: StateId(0),
                key_widths: vec![32, 32],
                value_widths: vec![32],
                size: 16,
                match_kind: TableMatchKind::Exact,
            }],
            registers: vec![P4Register {
                name: "r".to_string(),
                state: StateId(1),
                width: 32,
            }],
            pre_nodes: vec![n0, n1, n2, n3],
            post_nodes: vec![BlockNode {
                stmts: vec![],
                has_foreign_work: false,
                next: NodeNext::End,
            }],
            entry: 0,
            header_to_server,
            header_to_switch,
            to_server_fields: vec!["sum".to_string(), "out".to_string()],
        }
    }

    fn plan() -> ExecPlan {
        ExecPlan::build(&fixture()).expect("fixture builds")
    }

    #[test]
    fn fixture_builds_fused_and_unfused() {
        for fuse in [true, false] {
            let p = ExecPlan::build_with(&fixture(), PlanOptions { fuse }).expect("builds");
            assert!(p.validate_committed(1, 1).is_ok());
        }
    }

    #[test]
    fn audit_rejects_micro_range_past_pool() {
        let mut p = plan();
        let found = p.pre.ops.iter_mut().any(|op| {
            if let PlanOp::Branch { run, .. } = op {
                run.start = u32::MAX - 1;
                true
            } else {
                false
            }
        });
        assert!(found, "fixture has a branch with a run");
        assert!(matches!(
            p.validate_committed(1, 1),
            Err(PlanError::OutOfBounds {
                what: "micro-op range",
                ..
            })
        ));
    }

    #[test]
    fn audit_rejects_store_slot_past_scratch() {
        let mut p = plan();
        assert!(!p.pre.stores.is_empty(), "fixture has pinned stores");
        p.pre.stores[0].slot = p.n_slots as u16;
        assert!(matches!(
            p.validate_committed(1, 1),
            Err(PlanError::OutOfBounds {
                what: "store slot",
                ..
            })
        ));
    }

    #[test]
    fn audit_rejects_store_register_past_file() {
        let mut p = plan();
        let idx = p
            .pre
            .stores
            .iter()
            .position(|s| matches!(s.src, ExprVal::Reg(_)))
            .expect("fixture has a register-sourced store");
        p.pre.stores[idx].src = ExprVal::Reg(p.n_regs as u16);
        assert!(matches!(
            p.validate_committed(1, 1),
            Err(PlanError::OutOfBounds {
                what: "store register",
                ..
            })
        ));
    }

    #[test]
    fn audit_rejects_hash_arg_range_past_pool() {
        let mut p = plan();
        let bad = p.pre.hash_args.len() as u32;
        let found = p.pre.micro.iter_mut().any(|op| {
            if let MOp::Hash { args_start, .. } = op {
                *args_start = bad + 1;
                true
            } else {
                false
            }
        });
        assert!(found, "fixture has a hash micro-op");
        assert!(matches!(
            p.validate_committed(1, 1),
            Err(PlanError::OutOfBounds {
                what: "hash-arg range",
                ..
            })
        ));
    }

    #[test]
    fn audit_rejects_key_register_past_file() {
        let mut p = plan();
        assert!(!p.pre.keys.is_empty(), "fixture probes a two-key table");
        p.pre.keys[0] = ExprVal::Reg(p.n_regs as u16);
        assert!(matches!(
            p.validate_committed(1, 1),
            Err(PlanError::OutOfBounds {
                what: "key register",
                ..
            })
        ));
    }

    #[test]
    fn audit_rejects_table_index_past_declared() {
        let mut p = plan();
        let found = p.pre.ops.iter_mut().any(|op| {
            if let PlanOp::BuildKeyProbe { table, .. } = op {
                *table = 9;
                true
            } else {
                false
            }
        });
        assert!(found, "fixture has a probe");
        assert!(matches!(
            p.validate_committed(1, 1),
            Err(PlanError::OutOfBounds { what: "table", .. })
        ));
    }

    #[test]
    fn audit_rejects_state_register_past_declared() {
        let mut p = plan();
        let found = p.pre.ops.iter_mut().any(|op| {
            if let PlanOp::RegFetchAdd { reg, .. } = op {
                *reg = 4;
                true
            } else {
                false
            }
        });
        assert!(found, "fixture has a fetch-add");
        assert!(matches!(
            p.validate_committed(1, 1),
            Err(PlanError::OutOfBounds {
                what: "state register",
                ..
            })
        ));
    }

    #[test]
    fn audit_rejects_jump_past_stream() {
        let mut p = plan();
        let bad = p.pre.ops.len() as u32;
        let found = p.pre.ops.iter_mut().any(|op| {
            if let PlanOp::Jump(t) = op {
                *t = bad;
                true
            } else {
                false
            }
        });
        assert!(found, "fixture has a jump");
        assert!(matches!(
            p.validate_committed(1, 1),
            Err(PlanError::BadJumpTarget { .. })
        ));
    }

    #[test]
    fn audit_rejects_branch_target_past_stream() {
        let mut p = plan();
        let bad = p.pre.ops.len() as u32;
        let found = p.pre.ops.iter_mut().any(|op| {
            if let PlanOp::Branch { else_ip, .. } = op {
                *else_ip = bad;
                true
            } else {
                false
            }
        });
        assert!(found, "fixture has a branch");
        assert!(matches!(
            p.validate_committed(1, 1),
            Err(PlanError::BadJumpTarget { .. })
        ));
    }

    #[test]
    fn audit_rejects_entry_past_stream() {
        let mut p = plan();
        p.post.entry_ip = p.post.ops.len() as u32;
        assert!(matches!(
            p.validate_committed(1, 1),
            Err(PlanError::BadJumpTarget {
                traversal: "post",
                ip: u32::MAX,
                ..
            })
        ));
    }

    #[test]
    fn dangling_target_in_unreachable_node_rejected_at_build() {
        let mut prog = fixture();
        // Node 4 is unreachable from the entry but still declared; its
        // dangling target must be caught before jump patching.
        prog.pre_nodes.push(BlockNode {
            stmts: vec![],
            has_foreign_work: false,
            next: NodeNext::Jump(99),
        });
        assert!(matches!(
            ExecPlan::build(&prog),
            Err(PlanError::BadNodeTarget {
                traversal: "pre",
                target: 99,
                ..
            })
        ));
    }
}
