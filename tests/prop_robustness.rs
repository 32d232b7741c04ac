//! Robustness properties: the textual parser never panics on corrupted
//! input, the canonical form is a parse/print fixpoint, the switch ALU and
//! the reference interpreter agree operator-by-operator, and malformed
//! wire input never crashes the data plane.

use gallium::mir::types::mask_to_width;
use gallium::mir::{parser::parse_program, printer::print_program, BinOp};
use gallium::net::GALLIUM_ETHERTYPE;
use gallium::prelude::*;
use proptest::prelude::*;

const VALID: &str = r#"
program sample {
  state map : map<u16 -> u32> max 65536
  state backends : vec<u32> cap 16
  state rib : lpm<u32 -> u48> max 128
  state ctr : reg<u16>
  b0:
    v0 = readfield ip.saddr
    v1 = readfield ip.daddr
    v2 = xor v0, v1
    v3 = const 0xFFFF : u32
    v4 = and v2, v3
    v5 = cast v4 : u16
    v6 = mapget map, [v5]
    v7 = isnull v6
    br v7, b2, b1
  b1:
    v8 = extract v6, 0
    writefield ip.daddr, v8
    v10 = lpmget rib, v8
    v11 = isnull v10
    send
    ret
  b2:
    v13 = veclen backends
    v14 = mod v2, v13
    v15 = vecget backends, v14
    v16 = const 1 : u16
    v17 = regfetchadd ctr, v16
    writefield ip.daddr, v15
    mapput map, [v5], [v15]
    v20 = payloadmatch "GET \x00"
    send
    ret
}
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Randomly corrupting a valid program must produce a clean error or a
    /// valid parse — never a panic (the harness would abort on panic).
    #[test]
    fn parser_never_panics_on_corruption(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8)
    ) {
        let mut bytes = VALID.as_bytes().to_vec();
        for (pos, byte) in edits {
            let i = pos % bytes.len();
            bytes[i] = byte;
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = parse_program(&text); // Ok or Err are both fine
        }
    }

    /// Deleting random lines must also never panic.
    #[test]
    fn parser_never_panics_on_deletion(drop_lines in proptest::collection::vec(any::<usize>(), 1..6)) {
        let lines: Vec<&str> = VALID.lines().collect();
        let dropped: std::collections::HashSet<usize> =
            drop_lines.iter().map(|i| i % lines.len()).collect();
        let text: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| !dropped.contains(i))
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let _ = parse_program(&text);
    }

    /// The switch's expression evaluator and the interpreter share one
    /// `BinOp::eval`; this pins the semantics both rely on: masking,
    /// wrapping, shift saturation, division-by-zero-is-zero.
    #[test]
    fn alu_semantics_pinned(a in any::<u64>(), b in any::<u64>(), width in 1u8..=64) {
        for op in [
            BinOp::Add, BinOp::Sub, BinOp::And, BinOp::Or, BinOp::Xor,
            BinOp::Shl, BinOp::Shr, BinOp::Eq, BinOp::Ne, BinOp::Lt,
            BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Mul, BinOp::Div, BinOp::Mod,
        ] {
            let am = mask_to_width(a, width);
            let bm = mask_to_width(b, width);
            let r = op.eval(am, bm, width);
            if op.is_comparison() {
                prop_assert!(r <= 1, "{op:?} returned non-boolean {r}");
            } else if !matches!(op, BinOp::Shr | BinOp::Div | BinOp::Mod) {
                prop_assert_eq!(r, mask_to_width(r, width), "{:?} escaped width", op);
            }
            // Algebraic anchors.
            match op {
                BinOp::Xor => prop_assert_eq!(op.eval(am, am, width), 0),
                BinOp::Sub => prop_assert_eq!(op.eval(am, am, width), 0),
                BinOp::Div | BinOp::Mod => prop_assert_eq!(op.eval(am, 0, width), 0),
                BinOp::Eq => prop_assert_eq!(op.eval(am, am, width), 1),
                _ => {}
            }
        }
    }

    /// Any parse of corrupted text that *succeeds* must then survive the
    /// whole compile pipeline without panicking: partitioning, codegen,
    /// and the loader either accept the program or return a typed
    /// `CompileError` — never abort.
    #[test]
    fn compile_never_panics_on_corrupted_programs(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..10)
    ) {
        let mut bytes = VALID.as_bytes().to_vec();
        for (pos, byte) in edits {
            let i = pos % bytes.len();
            bytes[i] = byte;
        }
        if let Ok(text) = String::from_utf8(bytes) {
            if let Ok(prog) = parse_program(&text) {
                let _ = compile(&prog, &SwitchModel::tofino_like());
            }
        }
    }

    /// Compile + load across randomized switch models: arbitrary (even
    /// degenerate) resource budgets must yield `Ok` or a typed error,
    /// never a panic, and whatever compiles must then pass `load_check`
    /// against the same model it was compiled for.
    #[test]
    fn compile_and_load_never_panic_across_models(
        depth in 0usize..40,
        mem_kib in 0usize..4096,
        meta_bits in 0usize..2048,
        budget in 0usize..64,
    ) {
        let lb = gallium::middleboxes::minilb::minilb();
        let model = SwitchModel::tiny(depth, mem_kib * 1024, meta_bits, budget);
        match compile(&lb.prog, &model) {
            Ok(compiled) => {
                let res = gallium::switchsim::load_check(&compiled.p4, &model);
                if depth > 0 && meta_bits > 0 {
                    prop_assert!(res.is_ok(), "must load on its own sane model: {res:?}");
                } else {
                    // Degenerate models are rejected up front by the loader
                    // even when partitioning routed everything to the server.
                    prop_assert!(matches!(
                        res,
                        Err(gallium::switchsim::LoadError::InvalidModel { .. })
                    ));
                }
            }
            Err(e) => {
                // The error must render (exercises every Display path).
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// Random LPM control traffic: inserts with arbitrary prefixes and
    /// lengths against a small table must evict (cache mode) or reject
    /// with a typed `TableError` — never panic, and never exceed capacity.
    #[test]
    fn lpm_tables_never_panic_under_random_inserts(
        ops in proptest::collection::vec((any::<u64>(), any::<u8>(), any::<bool>()), 1..64),
        cache in any::<bool>(),
    ) {
        use gallium::switchsim::{RtTable, TableError};
        let mut t = RtTable::new(8);
        t.make_lpm(32);
        if cache {
            t.make_cache(8);
        }
        for (prefix, len, wide) in ops {
            let value = if wide { vec![prefix, 1] } else { vec![prefix] };
            match t.lpm_insert(prefix, len, value) {
                Ok(evicted) => {
                    prop_assert!(evicted.is_empty() || cache, "only caches evict");
                }
                Err(TableError::PrefixTooLong { len: l, key_width }) => {
                    prop_assert!(l > key_width);
                }
                Err(TableError::CapacityExceeded { capacity }) => {
                    prop_assert!(!cache, "cache mode evicts instead");
                    prop_assert_eq!(capacity, 8);
                }
                Err(e) => return Err(TestCaseError::Fail(format!("unexpected: {e}"))),
            }
            prop_assert!(t.len() <= 8, "capacity invariant");
            // Lookups on whatever state resulted must not panic either.
            let _ = t.lookup(&[prefix], false);
        }
    }

    /// Garbage frames (random bytes, random ingress, runts down to the
    /// empty frame, frames already carrying the Gallium EtherType) must
    /// never panic the deployed pipeline on either engine, and each one is
    /// either emitted or counted under exactly one `drop.*` reason.
    #[test]
    fn switch_survives_garbage_frames(data in proptest::collection::vec(any::<u8>(), 0..200),
                                      gallium_ethertype in any::<bool>(),
                                      ingress in any::<u16>()) {
        let lb = gallium::middleboxes::minilb::minilb();
        let compiled = compile(&lb.prog, &SwitchModel::tofino_like()).unwrap();
        let mut data = data;
        if gallium_ethertype && data.len() >= 14 {
            data[12..14].copy_from_slice(&GALLIUM_ETHERTYPE.to_be_bytes());
        }
        for mut d in engines(&compiled) {
            let backends = lb.backends;
            d.configure(|s| { s.vec_set_all(backends, vec![1]).unwrap(); }).unwrap();
            let pkt = Packet::from_vec(data.clone(), PortId(ingress));
            let (emitted, drops) = inject_accounted(&mut d, pkt);
            prop_assert!(
                (emitted > 0 && drops == 0) || (emitted == 0 && drops == 1),
                "{} B frame on port {ingress}: {emitted} emissions, {drops} drop counts",
                data.len()
            );
        }
    }
}

/// The compiled-plan deployment and the reference-interpreter deployment
/// of the same compiled middlebox.
fn engines(compiled: &gallium::core::CompiledMiddlebox) -> [Deployment; 2] {
    [
        Deployment::new(compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap(),
        Deployment::new_interpreter(compiled, SwitchConfig::default(), CostModel::calibrated())
            .unwrap(),
    ]
}

/// Inject `pkt`; returns its emission count and how far the sum of every
/// `drop.*` counter in the deployment's snapshot moved.
fn inject_accounted(d: &mut Deployment, pkt: Packet) -> (usize, u64) {
    let drops = |d: &Deployment| -> u64 {
        let snap = d.telemetry_snapshot();
        snap.counters
            .iter()
            .filter(|(k, _)| k.contains(".drop."))
            .map(|(_, v)| v)
            .sum()
    };
    let before = drops(d);
    let emitted = d.inject(pkt).map_or(0, |e| e.len());
    (emitted, drops(d) - before)
}

/// Network frames the transfer header cannot be attached to — an empty
/// frame, a 10 B runt, and a MazuNAT SYN already carrying the Gallium
/// EtherType — are dropped as `drop.malformed_encap` by both engines.
#[test]
fn server_bound_malformed_frames_drop_as_malformed_encap() {
    use gallium::middleboxes::{mazunat, INTERNAL_PORT};
    let nat = mazunat::mazunat();
    let compiled = compile(&nat.prog, &SwitchModel::tofino_like()).unwrap();
    let mut syn = PacketBuilder::tcp(
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
    syn.bytes_mut()[12..14].copy_from_slice(&GALLIUM_ETHERTYPE.to_be_bytes());
    let frames = [
        ("empty", Packet::from_vec(Vec::new(), PortId(INTERNAL_PORT))),
        (
            "10 B",
            Packet::from_vec(vec![0xAB; 10], PortId(INTERNAL_PORT)),
        ),
        ("0x88B5 SYN", syn),
    ];
    for (name, frame) in frames {
        for mut d in engines(&compiled) {
            let (emitted, drops) = inject_accounted(&mut d, frame.clone());
            assert_eq!((emitted, drops), (0, 1), "{name}");
            assert_eq!(d.switch.stats.drop_malformed, 1, "{name}");
            assert_eq!(d.switch.stats.to_server, 0, "{name}");
        }
    }
}

#[test]
fn canonical_form_is_fixpoint() {
    let p = parse_program(VALID).unwrap();
    let canon = print_program(&p);
    let p2 = parse_program(&canon).unwrap();
    assert_eq!(print_program(&p2), canon);
    assert_eq!(p, p2);
}
