//! Write-back sync cost, counted exactly: every slow-path state update is
//! pushed to the switch (§4.3.3 stage, flip, insert/delete, flip back,
//! clear), and each of those table writes must update the match table's
//! perfect-hash read layout in place, like one RMT entry write — not
//! rebuild the whole layout.

use gallium::core::{compile, Deployment};
use gallium::middleboxes::{firewall, lb::load_balancer};
use gallium::prelude::*;
use gallium::telemetry::names;

const IDLE: u32 = 256;
const WARMUP_FLOWS: u32 = 64;
const FLOWS: u32 = 600;
/// Flows open at once: SYNs of a group go out before any of its FINs.
const GROUP: u32 = 16;

fn tuple(flow: u32) -> FiveTuple {
    FiveTuple {
        saddr: 0x0A00_0000 | flow,
        daddr: 0x0A64_0001,
        sport: 10_000 + (flow % 50_000) as u16,
        dport: 80,
        proto: IpProtocol::Tcp,
    }
}

fn tcp(flow: u32, flags: u8, payload: usize) -> Packet {
    PacketBuilder::tcp(tuple(flow), TcpFlags(flags), payload).build(PortId(1))
}

/// Run `flows` short SYN / data / data / FIN flows, `GROUP` at a time.
fn drive(d: &mut Deployment, flows: std::ops::Range<u32>, out: &mut Vec<(PortId, Packet)>) {
    let ids: Vec<u32> = flows.collect();
    for group in ids.chunks(GROUP as usize) {
        for &f in group {
            d.inject_into(tcp(f, TcpFlags::SYN, 0), out).unwrap();
        }
        for &f in group {
            d.inject_into(tcp(f, TcpFlags::ACK, 1400), out).unwrap();
            d.inject_into(tcp(f, TcpFlags::ACK, 1400), out).unwrap();
        }
        for &f in group {
            d.inject_into(tcp(f, TcpFlags::FIN | TcpFlags::ACK, 0), out)
                .unwrap();
        }
        out.clear();
    }
}

fn counters(d: &Deployment) -> (u64, u64) {
    let snap = d.telemetry_snapshot();
    let get = |name| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("snapshot carries {name}"))
    };
    (
        get(names::TABLE_REBUILDS),
        get(names::SERVER_SYNC_OPS_ISSUED),
    )
}

#[test]
fn lb_short_flow_syncs_write_the_layout_in_place() {
    let lb = load_balancer();
    let compiled = compile(&lb.prog, &SwitchModel::tofino_like()).unwrap();
    let mut d =
        Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    d.configure(|store| {
        lb.configure(store, &[0x0A00_0101, 0x0A00_0102, 0x0A00_0103, 0x0A00_0104]);
        for i in 0..IDLE {
            let key = firewall::tuple_key(&tuple(1_000_000 + i));
            store
                .map_put(lb.conn, key.clone(), vec![u64::from(i % 4)])
                .unwrap();
            store.map_put(lb.expiry, key, vec![0]).unwrap();
        }
    })
    .unwrap();
    assert_eq!(d.switch.table("conn").unwrap().len(), IDLE as usize);

    // Warm-up: the first flows past the provisioned set grow the slot
    // array once.
    let mut out = Vec::new();
    drive(&mut d, 0..WARMUP_FLOWS, &mut out);
    let (rebuilds0, syncs0) = counters(&d);

    drive(&mut d, WARMUP_FLOWS..WARMUP_FLOWS + FLOWS, &mut out);
    let (rebuilds1, syncs1) = counters(&d);

    let syncs = syncs1 - syncs0;
    assert!(
        syncs >= 2_000,
        "every SYN and FIN syncs through the write-back protocol ({syncs} sync ops)"
    );
    assert!(
        rebuilds1 - rebuilds0 <= 2,
        "{} full layout builds for {syncs} sync ops",
        rebuilds1 - rebuilds0
    );
    assert_eq!(d.switch.table("conn").unwrap().len(), IDLE as usize);
    assert!(d.switch.table("conn").unwrap().layout_active());
    assert!(d.replicated_consistent());
}
