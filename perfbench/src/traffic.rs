//! The three traffic mixes: seeded packet streams built from
//! `gallium-workloads`, and the middleboxes each mix is driven through.
//!
//! A stream is a vector of compact [`PktDesc`] descriptors. Frames are
//! materialized from them burst by burst, outside the timed calls, so the
//! process never holds the whole packet buffer: peak memory is set by the
//! middlebox state, not by the input.

use gallium_middleboxes::{all_evaluated, firewall, mazunat, EXTERNAL_PORT, INTERNAL_PORT};
use gallium_mir::{Program, StateStore};
use gallium_net::{FiveTuple, Packet, PacketBuilder, PortId, TcpFlags};
use gallium_workloads::flows::unique_tuple;
use gallium_workloads::{CongaWorkload, FlowSizeDistribution, WorkerSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frame length of SYN/FIN segments and of the NAT mix's data packets.
pub const SMALL_FRAME: u16 = 64;
/// Frame length of full-size data packets.
pub const DATA_FRAME: u16 = 1500;
/// Closed-loop workers (paper §6.3: 100 client threads, one connection
/// at a time each).
pub const WORKERS: usize = 100;

/// First flow id of the LB's idle, provisioned connections; the short
/// flows use ids from 0, so the two sets never share a five-tuple.
const IDLE_FLOW_BASE: u32 = 1 << 20;

/// Backends of the L4 load balancer.
const LB_BACKENDS: [u32; 8] = [
    0x0A03_0001,
    0x0A03_0002,
    0x0A03_0003,
    0x0A03_0004,
    0x0A03_0005,
    0x0A03_0006,
    0x0A03_0007,
    0x0A03_0008,
];

/// Ports the transparent proxy intercepts.
const PROXY_PORTS: [u16; 2] = [80, 8080];

/// Sizes of each mix. `Default` is the benchmark's; the self-tests shrink
/// them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `nat-established`: NAT mappings installed at set-up.
    pub nat_flows: u32,
    /// `nat-established`: packets in the stream.
    pub nat_packets: usize,
    /// `lb-short-flows`: idle established connections provisioned.
    pub lb_idle: u32,
    /// `lb-short-flows`: short flows run by the workers.
    pub lb_flows: usize,
    /// `conga-five-mb`: flows run by the workers.
    pub conga_flows: usize,
}

impl Default for Sizes {
    fn default() -> Self {
        Sizes {
            nat_flows: 8192,
            nat_packets: 1 << 18,
            lb_idle: 256,
            lb_flows: 1024,
            conga_flows: 200,
        }
    }
}

/// One packet of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktDesc {
    /// Flow id, the argument of [`unique_tuple`].
    pub flow: u32,
    /// TCP flags.
    pub flags: u8,
    /// A reply from the external server to the NAT's external address
    /// (enters on the external port) rather than a client packet.
    pub inbound: bool,
    /// Frame length in bytes.
    pub len: u16,
}

impl PktDesc {
    /// Build the frame.
    pub fn packet(&self) -> Packet {
        let t = unique_tuple(u64::from(self.flow));
        let flags = TcpFlags(self.flags);
        if self.inbound {
            let reply = FiveTuple {
                saddr: t.daddr,
                daddr: mazunat::NAT_EXTERNAL_IP,
                sport: t.dport,
                dport: nat_port(self.flow),
                proto: t.proto,
            };
            PacketBuilder::tcp(reply, flags, usize::from(self.len)).build(PortId(EXTERNAL_PORT))
        } else {
            PacketBuilder::tcp(t, flags, usize::from(self.len)).build(PortId(INTERNAL_PORT))
        }
    }

    /// True for connection set-up and teardown segments.
    pub fn is_control(&self) -> bool {
        self.flags & (TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST) != 0
    }
}

/// External port a provisioned NAT flow is mapped to.
fn nat_port(flow: u32) -> u16 {
    let port = u32::from(mazunat::NAT_PORT_BASE) + flow;
    u16::try_from(port).expect("NAT flow ids stay below the 16-bit port space")
}

/// Operator state installed through `Deployment::configure` (and into the
/// reference store) before traffic starts.
#[derive(Debug, Clone)]
pub enum Provision {
    /// Nothing to install.
    Nothing,
    /// MazuNAT mappings for flows `0..n`: flow `i` owns external port
    /// `NAT_PORT_BASE + i`.
    NatMappings(u32),
    /// LB backend list plus `idle` established connections, stamped at
    /// time 0 (well inside the 5-minute idle timeout).
    LbConns {
        /// Idle connections to install.
        idle: u32,
    },
    /// Firewall whitelist for the listed flows, both directions.
    FirewallAllow(Vec<u32>),
    /// Proxy intercept list.
    ProxyPorts,
}

impl Provision {
    /// Install the state into `store`.
    pub fn apply(&self, prog: &Program, store: &mut StateStore) {
        let state = |name: &str| {
            prog.state_by_name(name)
                .unwrap_or_else(|| panic!("{}: state `{name}` declared", prog.name))
        };
        let put = |store: &mut StateStore, name: &str, key: Vec<u64>, value: Vec<u64>| {
            store
                .map_put(state(name), key, value)
                .expect("provisioned map declared");
        };
        match self {
            Provision::Nothing => {}
            Provision::NatMappings(n) => {
                for flow in 0..*n {
                    let t = unique_tuple(u64::from(flow));
                    let port = u64::from(nat_port(flow));
                    let out_key = vec![
                        u64::from(t.saddr),
                        u64::from(t.daddr),
                        u64::from(t.sport),
                        u64::from(t.dport),
                    ];
                    put(store, "nat_out", out_key, vec![port]);
                    put(
                        store,
                        "nat_in",
                        vec![port],
                        vec![u64::from(t.saddr), u64::from(t.sport)],
                    );
                }
            }
            Provision::LbConns { idle } => {
                store
                    .vec_set_all(
                        state("backends"),
                        LB_BACKENDS.iter().map(|b| u64::from(*b)).collect(),
                    )
                    .expect("backends declared");
                for i in 0..*idle {
                    let key = firewall::tuple_key(&unique_tuple(u64::from(IDLE_FLOW_BASE + i)));
                    let backend = LB_BACKENDS[i as usize % LB_BACKENDS.len()];
                    put(store, "conn", key.clone(), vec![u64::from(backend)]);
                    put(store, "expiry", key, vec![0]);
                }
            }
            Provision::FirewallAllow(flows) => {
                for &flow in flows {
                    let t = unique_tuple(u64::from(flow));
                    put(store, "allow_out", firewall::tuple_key(&t), vec![1]);
                    put(
                        store,
                        "allow_in",
                        firewall::tuple_key(&t.reversed()),
                        vec![1],
                    );
                }
            }
            Provision::ProxyPorts => {
                for port in PROXY_PORTS {
                    put(store, "proxy_ports", vec![u64::from(port)], vec![1]);
                }
            }
        }
    }
}

/// One middlebox of a mix.
#[derive(Debug, Clone)]
pub struct Middlebox {
    /// Short name used in metric names.
    pub label: &'static str,
    /// The unpartitioned program (compiled at set-up; also the reference).
    pub prog: Program,
    /// State installed at set-up.
    pub provision: Provision,
}

/// A traffic mix: the middleboxes it drives and the stream each receives.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Middleboxes, each driven through its own deployment in turn.
    pub mbs: Vec<Middlebox>,
    /// The packet stream every middlebox receives.
    pub stream: Vec<PktDesc>,
    /// Flows that appear in the stream.
    pub flows: usize,
}

/// Names of the mixes, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] = ["nat-established", "lb-short-flows", "conga-five-mb"];

/// Build the mix `name` from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, sizes: &Sizes) -> Option<Workload> {
    match name {
        "nat-established" => Some(nat_established(seed, sizes)),
        "lb-short-flows" => Some(lb_short_flows(seed, sizes)),
        "conga-five-mb" => Some(conga_five_mb(seed, sizes)),
        _ => None,
    }
}

/// The five evaluated middleboxes under their metric labels.
fn evaluated() -> Vec<(&'static str, Program)> {
    const LABELS: [&str; 5] = ["mazunat", "lb", "firewall", "proxy", "trojan"];
    let progs = all_evaluated();
    assert_eq!(
        progs.len(),
        LABELS.len(),
        "all_evaluated lists five middleboxes"
    );
    LABELS
        .into_iter()
        .zip(progs)
        .map(|(label, (_, prog))| (label, prog))
        .collect()
}

fn evaluated_one(label: &str) -> Program {
    evaluated()
        .into_iter()
        .find(|(l, _)| *l == label)
        .map(|(_, p)| p)
        .expect("label names an evaluated middlebox")
}

/// MazuNAT with `nat_flows` established connections; data packets of
/// those connections in both directions, in seeded order, 64-byte frames.
fn nat_established(seed: u64, sizes: &Sizes) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let flows = sizes.nat_flows;
    let stream = (0..sizes.nat_packets)
        .map(|_| PktDesc {
            flow: rng.gen_range(0..u64::from(flows)) as u32,
            flags: TcpFlags::ACK,
            inbound: rng.gen::<bool>(),
            len: SMALL_FRAME,
        })
        .collect();
    Workload {
        name: "nat-established",
        mbs: vec![Middlebox {
            label: "mazunat",
            prog: evaluated_one("mazunat"),
            provision: Provision::NatMappings(flows),
        }],
        stream,
        flows: flows as usize,
    }
}

/// `n` flow sizes (bytes) that quantize the CONGA enterprise CDF between
/// quantiles `lo` and `hi`: the quantiles at the midpoints of `n`
/// equal-probability strata, in seeded random order. Every seed carries
/// the same multiset of sizes, so the aggregate mix (packets, flows,
/// slow-path share) does not move with the seed; the seed decides which
/// worker runs which flow, in what order, and how the workers interleave.
fn stratified_sizes(n: usize, lo: f64, hi: f64, rng: &mut StdRng) -> Vec<u64> {
    let cdf = FlowSizeDistribution::conga(CongaWorkload::Enterprise);
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| cdf.quantile(lo + (hi - lo) * (i as f64 + 0.5) / n as f64))
        .collect();
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.gen_range(0..i + 1));
    }
    sizes
}

/// The CONGA enterprise quantile at which flows reach `packets` data
/// packets of full-size frames (bisection on the monotone inverse CDF).
fn quantile_at_packets(packets: u64) -> f64 {
    let cdf = FlowSizeDistribution::conga(CongaWorkload::Enterprise);
    let max_bytes = packets * (u64::from(DATA_FRAME) - 54);
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if cdf.quantile(mid) <= max_bytes {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The L4 LB with idle provisioned connections, plus short flows (the
/// sub-10-packet body of the CONGA enterprise CDF) from the closed-loop
/// workers.
fn lb_short_flows(seed: u64, sizes: &Sizes) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let body = quantile_at_packets(9);
    let flow_bytes = stratified_sizes(sizes.lb_flows, 0.0, body, &mut rng);
    let schedule = WorkerSchedule::build(&flow_bytes, WORKERS, usize::from(DATA_FRAME));
    let stream = interleave(&schedule, &mut rng);
    Workload {
        name: "lb-short-flows",
        mbs: vec![Middlebox {
            label: "lb",
            prog: evaluated_one("lb"),
            provision: Provision::LbConns {
                idle: sizes.lb_idle,
            },
        }],
        stream,
        flows: sizes.lb_flows,
    }
}

/// The five evaluated middleboxes, each receiving the same stream: the
/// workers run flows whose sizes span the whole CONGA enterprise CDF,
/// long tail included.
fn conga_five_mb(seed: u64, sizes: &Sizes) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let flow_bytes = stratified_sizes(sizes.conga_flows, 0.0, 1.0, &mut rng);
    let schedule = WorkerSchedule::build(&flow_bytes, WORKERS, usize::from(DATA_FRAME));
    let stream = interleave(&schedule, &mut rng);
    let flows: Vec<u32> = schedule
        .queues
        .iter()
        .flatten()
        .map(|f| u32::try_from(f.id).expect("flow ids fit 32 bits"))
        .collect();
    let mbs = evaluated()
        .into_iter()
        .map(|(label, prog)| {
            let provision = match label {
                "lb" => Provision::LbConns { idle: 0 },
                "firewall" => Provision::FirewallAllow(flows.clone()),
                "proxy" => Provision::ProxyPorts,
                _ => Provision::Nothing,
            };
            Middlebox {
                label,
                prog,
                provision,
            }
        })
        .collect();
    Workload {
        name: "conga-five-mb",
        mbs,
        stream,
        flows: flows.len(),
    }
}

/// Interleave the workers' flows into one stream: at each step a seeded
/// choice of busy worker sends the next packet of its current flow (SYN,
/// data, FIN), starting its next flow once the current one is done, until
/// every queue is drained.
fn interleave(schedule: &WorkerSchedule, rng: &mut StdRng) -> Vec<PktDesc> {
    // Per worker: (queue position, packets of the current flow sent).
    let mut cursor: Vec<(usize, u64)> = vec![(0, 0); schedule.queues.len()];
    let mut busy: Vec<usize> = (0..schedule.queues.len())
        .filter(|&w| !schedule.queues[w].is_empty())
        .collect();
    let mut stream = Vec::new();
    while !busy.is_empty() {
        let slot = rng.gen_range(0..busy.len());
        let w = busy[slot];
        let (pos, sent) = &mut cursor[w];
        let flow = &schedule.queues[w][*pos];
        let total = flow.total_packets();
        let (flags, len) = if *sent == 0 {
            (TcpFlags::SYN, SMALL_FRAME)
        } else if *sent + 1 == total {
            (TcpFlags::FIN | TcpFlags::ACK, SMALL_FRAME)
        } else {
            (TcpFlags::ACK, DATA_FRAME)
        };
        stream.push(PktDesc {
            flow: u32::try_from(flow.id).expect("flow ids fit 32 bits"),
            flags,
            inbound: false,
            len,
        });
        *sent += 1;
        if *sent == total {
            *pos += 1;
            *sent = 0;
            if *pos == schedule.queues[w].len() {
                busy.swap_remove(slot);
            }
        }
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let sizes = Sizes {
            nat_flows: 64,
            nat_packets: 512,
            lb_idle: 16,
            lb_flows: 64,
            conga_flows: 20,
        };
        for name in WORKLOADS {
            let a = build(name, 7, &sizes).expect("known workload");
            let b = build(name, 7, &sizes).expect("known workload");
            let c = build(name, 8, &sizes).expect("known workload");
            assert_eq!(a.stream, b.stream, "{name}");
            assert_ne!(a.stream, c.stream, "{name}");
        }
        assert!(build("nope", 1, &sizes).is_none());
    }

    #[test]
    fn every_short_flow_opens_and_closes() {
        let sizes = Sizes {
            lb_flows: 200,
            ..Sizes::default()
        };
        let w = build("lb-short-flows", 3, &sizes).expect("known workload");
        let syn = w.stream.iter().filter(|p| p.flags == TcpFlags::SYN).count();
        let fin = w
            .stream
            .iter()
            .filter(|p| p.flags & TcpFlags::FIN != 0)
            .count();
        assert_eq!((syn, fin), (200, 200));
        assert!(
            w.stream.len() < 200 * 12,
            "short flows stay under 10 data packets"
        );
    }
}
