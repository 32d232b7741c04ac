//! The single source of truth for `gallium.<crate>.<subsystem>.<metric>`
//! names.
//!
//! Every layer that exports into a [`crate::TelemetrySnapshot`] — and
//! every test or bench that asserts on a key — names the metric through
//! these consts, so a typo'd key is a compile error instead of a
//! silently-absent metric. Dynamic families (per-table, per-partition)
//! get prefix consts plus a formatting helper.

// ---- core::Deployment ------------------------------------------------

/// Packets injected into the deployment.
pub const DEPLOY_INJECTED: &str = "gallium.core.deployment.injected";
/// Packets fully handled on the switch.
pub const DEPLOY_FAST_PATH: &str = "gallium.core.deployment.fast_path";
/// Packets that crossed to the middlebox server.
pub const DEPLOY_SLOW_PATH: &str = "gallium.core.deployment.slow_path";
/// Modelled total state-sync latency (ns).
pub const DEPLOY_SYNC_LATENCY_NS: &str = "gallium.core.deployment.sync_latency_ns";
/// Modelled visible (pre-release) sync latency (ns).
pub const DEPLOY_SYNC_VISIBLE_NS: &str = "gallium.core.deployment.sync_visible_ns";
/// Modelled server CPU cycles.
pub const DEPLOY_SERVER_CYCLES: &str = "gallium.core.deployment.server_cycles";
/// Sync operations acknowledged by the switch control plane.
pub const DEPLOY_SYNC_OPS_ACKED: &str = "gallium.core.deployment.sync_ops_acked";
/// Packets held for output commit.
pub const DEPLOY_HELD_FOR_COMMIT: &str = "gallium.core.deployment.held_for_commit";
/// Hold-for-commit wait histogram (ns).
pub const DEPLOY_HOLD_FOR_COMMIT_NS: &str = "gallium.core.deployment.hold_for_commit_ns";
/// Batch API invocations.
pub const DEPLOY_BATCHES: &str = "gallium.core.deployment.batches";
/// Packets pushed through the batch API.
pub const DEPLOY_BATCH_PKTS: &str = "gallium.core.deployment.batch_pkts";

// ---- per-stage latency histograms (sampled packets only) -------------

/// Warm fast-path wall time (ns) for sampled switch-only packets.
pub const STAGE_FAST_PATH_NS: &str = "gallium.core.deployment.stage.fast_path_ns";
/// Switch pre-processing wall time (ns) for sampled slow-path packets.
pub const STAGE_SWITCH_PRE_NS: &str = "gallium.core.deployment.stage.switch_pre_ns";
/// Boundary-crossing wall time (ns): encap + divert until server entry.
pub const STAGE_TRANSFER_NS: &str = "gallium.core.deployment.stage.transfer_ns";
/// Server slow-path wall time (ns), including state sync.
pub const STAGE_SERVER_NS: &str = "gallium.core.deployment.stage.server_ns";
/// Re-injection (switch post-processing) wall time (ns).
pub const STAGE_REINJECT_NS: &str = "gallium.core.deployment.stage.reinject_ns";

// ---- drop / fault attribution ----------------------------------------
// One counter per `telemetry::trace::DropReason`; every dropped or
// errored packet increments exactly one of these.

/// Program executed an explicit drop on the switch.
pub const DROP_SWITCH_MARKED: &str = "gallium.switchsim.switch.drop.marked";
/// Frame failed Gallium encapsulation on the switch (server-origin frame
/// without a valid transfer header, or a server-bound runt / already
/// Gallium-encapsulated network frame).
pub const DROP_SWITCH_MALFORMED_ENCAP: &str = "gallium.switchsim.switch.drop.malformed_encap";
/// Program executed an explicit drop on the server.
pub const DROP_SERVER_PROGRAM: &str = "gallium.server.drop.program";
/// Server slow path returned a typed execution error.
pub const DROP_DEPLOY_SERVER_ERROR: &str = "gallium.core.deployment.drop.server_error";
/// State-sync op rejected by the switch control plane.
pub const DROP_DEPLOY_SYNC_REJECTED: &str = "gallium.core.deployment.drop.sync_rejected";
/// Server-return frame tried to leave the switch again.
pub const DROP_DEPLOY_POST_LOOP: &str = "gallium.core.deployment.drop.post_loop";

// ---- flight recorder --------------------------------------------------

/// Packets sampled by the flight recorder.
pub const TRACE_SAMPLED: &str = "gallium.telemetry.trace.sampled";
/// Trace events emitted (including those since overwritten).
pub const TRACE_EVENTS: &str = "gallium.telemetry.trace.events";
/// Trace events lost to ring overwrites.
pub const TRACE_OVERWRITTEN: &str = "gallium.telemetry.trace.overwritten";
/// Ring capacity in events.
pub const TRACE_RING_CAPACITY: &str = "gallium.telemetry.trace.ring_capacity";

// ---- switchsim --------------------------------------------------------

/// Frames received from the network side.
pub const SWITCH_RX_NETWORK: &str = "gallium.switchsim.switch.rx_network";
/// Frames received back from the server.
pub const SWITCH_RX_SERVER: &str = "gallium.switchsim.switch.rx_server";
/// Frames fully handled by the offloaded partition.
pub const SWITCH_FAST_PATH: &str = "gallium.switchsim.switch.fast_path";
/// Frames encapsulated to the server.
pub const SWITCH_TO_SERVER: &str = "gallium.switchsim.switch.to_server";
/// Frames emitted on network ports.
pub const SWITCH_EMITTED: &str = "gallium.switchsim.switch.emitted";
/// Frames dropped on the switch (all reasons).
pub const SWITCH_DROPPED: &str = "gallium.switchsim.switch.dropped";
/// Cache-mode lookup misses flagged for replay.
pub const SWITCH_CACHE_MISSES: &str = "gallium.switchsim.switch.cache_misses";
/// Registers allocated on the switch.
pub const SWITCH_REGISTERS_COUNT: &str = "gallium.switchsim.registers.count";
/// Registers holding a nonzero value.
pub const SWITCH_REGISTERS_NONZERO: &str = "gallium.switchsim.registers.nonzero";
/// Plan build latency histogram (ns).
pub const PLAN_BUILD_NS: &str = "gallium.switchsim.plan.build_ns";
/// Plans compiled.
pub const PLAN_COMPILED: &str = "gallium.switchsim.plan.compiled";
/// Plan opcode count histogram.
pub const PLAN_OPS: &str = "gallium.switchsim.plan.ops";
/// Plan interned metadata slot count histogram.
pub const PLAN_META_SLOTS: &str = "gallium.switchsim.plan.meta_slots";
/// Expression-compiler micro-ops emitted per plan (histogram).
pub const PLAN_EXPR_MICRO_OPS: &str = "gallium.switchsim.plan.expr.micro_ops";
/// Expression-compiler virtual register file size per plan (histogram).
pub const PLAN_EXPR_REGS: &str = "gallium.switchsim.plan.expr.regs";
/// Constants folded / algebraic identities applied at plan build.
pub const PLAN_EXPR_CONST_FOLDED: &str = "gallium.switchsim.plan.expr.const_folded";
/// Common-subexpression reuse hits at plan build.
pub const PLAN_EXPR_CSE_HITS: &str = "gallium.switchsim.plan.expr.cse_hits";
/// Fused superinstructions (key-probe store fusion + folded branches).
pub const PLAN_EXPR_FUSED: &str = "gallium.switchsim.plan.expr.fused";
/// Dead micro-ops and metadata stores eliminated at plan build.
pub const PLAN_EXPR_DEAD_OPS: &str = "gallium.switchsim.plan.expr.dead_ops";

/// Full perfect-hash read-layout builds across all tables: growth,
/// value-pool compaction, or a failed re-displacement (and the delete of a
/// table's last spilled key). Ordinary control-plane writes update the
/// layout in place and do not count here.
pub const TABLE_REBUILDS: &str = "gallium.switchsim.table.rebuilds";
/// Exact-match probes served by the perfect-hash read layout across all
/// tables.
pub const TABLE_PROBES: &str = "gallium.switchsim.table.probe";

/// Prefix of the per-table counter family
/// (`gallium.switchsim.table.<table>.<metric>`).
pub const TABLE_PREFIX: &str = "gallium.switchsim.table.";

/// The full key for one per-table metric, e.g.
/// `table_metric("conn", "evictions")`.
pub fn table_metric(table: &str, metric: &str) -> String {
    format!("{TABLE_PREFIX}{table}.{metric}")
}

// ---- core::compiler ---------------------------------------------------

/// Whole-pipeline compile latency histogram (ns).
pub const COMPILER_COMPILE_NS: &str = "gallium.core.compiler.compile_ns";
/// Programs compiled.
pub const COMPILER_COMPILES: &str = "gallium.core.compiler.compiles";
/// Partitioning pass latency histogram (ns).
pub const COMPILER_PARTITION_NS: &str = "gallium.core.compiler.partition_ns";
/// P4 code generation latency histogram (ns).
pub const COMPILER_P4_CODEGEN_NS: &str = "gallium.core.compiler.p4_codegen_ns";
/// P4 pretty-printing latency histogram (ns).
pub const COMPILER_P4_PRINT_NS: &str = "gallium.core.compiler.p4_print_ns";
/// Server code generation latency histogram (ns).
pub const COMPILER_SERVER_CODEGEN_NS: &str = "gallium.core.compiler.server_codegen_ns";
/// Explain-report construction latency histogram (ns).
pub const COMPILER_EXPLAIN_NS: &str = "gallium.core.compiler.explain_ns";
/// Translation-validation pass latency histogram (ns).
pub const COMPILER_VERIFY_NS: &str = "gallium.core.compiler.verify_ns";
/// P4 tables allocated across all compiles.
pub const COMPILER_P4_TABLES_ALLOCATED: &str = "gallium.core.compiler.p4_tables_allocated";
/// P4 registers allocated across all compiles.
pub const COMPILER_P4_REGISTERS_ALLOCATED: &str = "gallium.core.compiler.p4_registers_allocated";

// ---- partition --------------------------------------------------------

/// Partitioning fixpoint latency histogram (ns).
pub const PARTITION_NS: &str = "gallium.partition.partition_ns";
/// Programs partitioned.
pub const PARTITION_PROGRAMS: &str = "gallium.partition.programs";
/// Prefix of the per-partition instruction-count counter family
/// (`gallium.partition.insts.<partition>`).
pub const PARTITION_INSTS_PREFIX: &str = "gallium.partition.insts.";
/// Prefix of the per-reason rejection counter family
/// (`gallium.partition.rejections.<reason>`).
pub const PARTITION_REJECTIONS_PREFIX: &str = "gallium.partition.rejections.";

// ---- verify -----------------------------------------------------------

/// Whole-verifier latency histogram (ns).
pub const VERIFY_NS: &str = "gallium.verify.verify_ns";
/// Verifier runs.
pub const VERIFY_RUNS: &str = "gallium.verify.runs";
/// Soundness (translation-validation) pass latency histogram (ns).
pub const VERIFY_SOUNDNESS_NS: &str = "gallium.verify.soundness_ns";
/// Resource-audit pass latency histogram (ns).
pub const VERIFY_RESOURCES_NS: &str = "gallium.verify.resources_ns";
/// Lint pass latency histogram (ns).
pub const VERIFY_LINTS_NS: &str = "gallium.verify.lints_ns";
/// Verification errors found.
pub const VERIFY_ERRORS: &str = "gallium.verify.errors";
/// Lints reported.
pub const VERIFY_LINTS: &str = "gallium.verify.lints";

// ---- verify: symbolic plan validation ---------------------------------

/// Whole plan-validation latency histogram (ns): symcheck + absint.
pub const VERIFY_PLAN_NS: &str = "gallium.verify.plan.verify_ns";
/// Plan-validation runs.
pub const VERIFY_PLAN_RUNS: &str = "gallium.verify.plan.runs";
/// Symbolic translation-validation pass latency histogram (ns).
pub const VERIFY_PLAN_SYMCHECK_NS: &str = "gallium.verify.plan.symcheck_ns";
/// Abstract-interpretation (interval + known-bits) pass latency (ns).
pub const VERIFY_PLAN_ABSINT_NS: &str = "gallium.verify.plan.absint_ns";
/// Plan ≢ AST divergences found.
pub const VERIFY_PLAN_ERRORS: &str = "gallium.verify.plan.errors";
/// Plan lints reported (dead branches, constant guards, ...).
pub const VERIFY_PLAN_LINTS: &str = "gallium.verify.plan.lints";
/// Plans proven equivalent to their AST.
pub const VERIFY_PLAN_PROVED: &str = "gallium.verify.plan.proved";

// ---- server -----------------------------------------------------------

/// Packets taking the server slow path.
pub const SERVER_SLOW_PATH_PKTS: &str = "gallium.server.slow_path_pkts";
/// Packets whose output was committed.
pub const SERVER_COMMITTED_PKTS: &str = "gallium.server.committed_pkts";
/// Modelled server CPU cycles.
pub const SERVER_CYCLES: &str = "gallium.server.cycles";
/// Cache-miss replays executed.
pub const SERVER_REPLAYS: &str = "gallium.server.replays";
/// State-sync operations issued to the switch.
pub const SERVER_SYNC_OPS_ISSUED: &str = "gallium.server.sync_ops_issued";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naming_convention_holds() {
        for name in [
            DEPLOY_INJECTED,
            DEPLOY_HOLD_FOR_COMMIT_NS,
            STAGE_FAST_PATH_NS,
            DROP_SWITCH_MARKED,
            DROP_SERVER_PROGRAM,
            DROP_DEPLOY_POST_LOOP,
            TRACE_SAMPLED,
            SWITCH_RX_NETWORK,
            TABLE_REBUILDS,
            TABLE_PROBES,
            PLAN_BUILD_NS,
            PLAN_EXPR_MICRO_OPS,
            PLAN_EXPR_REGS,
            PLAN_EXPR_CONST_FOLDED,
            PLAN_EXPR_CSE_HITS,
            PLAN_EXPR_FUSED,
            PLAN_EXPR_DEAD_OPS,
            VERIFY_PLAN_NS,
            VERIFY_PLAN_RUNS,
            VERIFY_PLAN_SYMCHECK_NS,
            VERIFY_PLAN_ABSINT_NS,
            VERIFY_PLAN_ERRORS,
            VERIFY_PLAN_LINTS,
            VERIFY_PLAN_PROVED,
            SERVER_SLOW_PATH_PKTS,
        ] {
            assert!(name.starts_with("gallium."), "{name}");
            assert!(!name.ends_with('.'), "{name}");
            assert!(!name.contains(".."), "{name}");
        }
        assert_eq!(
            table_metric("conn", "evictions"),
            "gallium.switchsim.table.conn.evictions"
        );
    }
}
