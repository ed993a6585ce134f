//! `ClusterNet::gather` against the `Transfer`s it replaces: on twin nets
//! with identical history, one `gather(now, dest, sources, bytes, ..)` and
//! the loop of `Transfer::new(fabric, bytes).via(&src.nic).via(&dest.nic)
//! .issue(now)` over the same sources must grant every fetch the same
//! window, the same per-pipe waits and the same fabric delay, and must leave
//! every disk, NIC and the fabric with the same cursor.
//!
//! The cases cross bytes ∈ {0, 1, odd, 1 MiB}, an instant-service spec
//! (every fetch rounds to 0 ns), the epoch and a non-zero issue instant, idle
//! and pre-loaded cursors (sources busy before and after `now`, a busy
//! destination NIC, a busy fabric), per-node slowdowns with adjacent
//! sources at different factors (and a slowed destination), and source
//! lists that name the destination or repeat a node. Each case issues two
//! gathers back to back, so the cursors the first leaves are what the
//! second reads.
//!
//! Mutants made on a copy of `net.rs`, each failing this test:
//! 1. occupying the source NIC but not the destination NIC after each
//!    fetch (the destination is left at its pre-call cursor): fails both
//!    tests, the first at "simulation_25, 0 B, now 0, loaded true, slowed
//!    false, all remote, dest 0: fetches differ";
//! 2. memoising a source's service time under its bandwidth alone, without
//!    the slowdown in the key (a slowed source after a nominal one is
//!    served at nominal speed): fails at "simulation_25, 1 B, now 0,
//!    slowed, all remote, dest 0: fetches differ".

use drc_cluster::{ClusterSpec, NodeId, Positive};
use drc_sim::{ClusterNet, Reservation, SimDuration, SimTime, Transfer, TransferOutcome};

/// One granted fetch, as both issue paths report it.
#[derive(Debug, PartialEq)]
struct Fetch {
    src: NodeId,
    reservation: Reservation,
    waits: Vec<SimDuration>,
    fabric_delay: SimDuration,
}

impl Fetch {
    fn new(src: NodeId, out: &TransferOutcome) -> Self {
        Fetch {
            src,
            reservation: out.reservation,
            waits: out.pipe_waits().to_vec(),
            fabric_delay: out.fabric_delay,
        }
    }
}

fn by_transfers(
    net: &ClusterNet,
    now: SimTime,
    dest: NodeId,
    sources: &[NodeId],
    bytes: u64,
) -> Vec<Fetch> {
    sources
        .iter()
        .map(|&src| {
            let out = Transfer::new(net.fabric(), bytes)
                .via(&net.node(src).nic)
                .via(&net.node(dest).nic)
                .issue(now);
            Fetch::new(src, &out)
        })
        .collect()
}

fn by_gather(
    net: &mut ClusterNet,
    now: SimTime,
    dest: NodeId,
    sources: &[NodeId],
    bytes: u64,
) -> Vec<Fetch> {
    let mut fetches = Vec::new();
    net.gather(now, dest, sources, bytes, |src, out| {
        fetches.push(Fetch::new(src, out))
    });
    fetches
}

/// Every cursor and slowdown of the net, fabric last.
fn state(net: &ClusterNet) -> Vec<(SimTime, u64)> {
    let mut all = Vec::new();
    for n in 0..net.len() {
        let io = net.node(NodeId(n));
        for r in [&io.disk, &io.nic] {
            all.push((r.next_free(), r.slowdown().to_bits()));
        }
    }
    let fabric = net.fabric();
    all.push((fabric.next_free(), fabric.slowdown().to_bits()));
    all
}

/// Busy cursors around the issue instant: sources free before it, free
/// after it, a busy destination NIC and a busy fabric.
fn preload(net: &mut ClusterNet, now: SimTime) {
    let at = |offset_ns: i64| SimTime(now.0.saturating_add_signed(offset_ns));
    net.node(NodeId(1)).nic.occupy_until(at(-500_000_000));
    net.node(NodeId(2)).nic.occupy_until(at(700_000_003));
    net.node(NodeId(4)).nic.occupy_until(at(40_000_000));
    net.node(NodeId(9)).nic.occupy_until(at(2_500_000_000));
    net.node(NodeId(0)).nic.occupy_until(at(300_000_000));
    net.node(NodeId(5)).nic.occupy_until(at(90_000_001));
    net.node(NodeId(6)).disk.occupy_until(at(10_000_000_000));
    net.fabric().occupy_until(at(1_200_000_007));
    // Some ordinary traffic on top, so the cursors are the ones a real
    // history leaves.
    net.transfer(at(0), NodeId(3), NodeId(7), 5 << 20);
    net.transfer(at(-1_000), NodeId(8), NodeId(0), 3 << 20);
}

/// Slowdowns at different factors on adjacent sources, the second
/// gather's destination among them.
fn slow_down(net: &mut ClusterNet) {
    let factor = |f: f64| Positive::new(f).unwrap();
    net.set_node_slowdown(NodeId(3), factor(2.0));
    net.set_node_slowdown(NodeId(4), factor(3.5));
    net.set_node_slowdown(NodeId(6), factor(0.5));
    net.set_node_slowdown(NodeId(5), factor(1.5));
}

/// A valid spec whose every fetch rounds to zero nanoseconds: 12 MiB at
/// 1e15 MiB/s (even at the 3.5× slowdown) is ~4e-5 ns.
fn instant_service_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::simulation_25(4);
    let instant = Positive::new(1e15).unwrap();
    spec.network_bandwidth_mbps = instant;
    spec.disk_bandwidth_mbps = instant;
    spec
}

#[test]
fn gather_grants_what_the_transfer_loop_grants() {
    let n = |ids: &[usize]| ids.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
    let everyone_but_0: Vec<NodeId> = (1..25).map(NodeId).collect();
    let source_lists: Vec<(&str, Vec<NodeId>)> = vec![
        ("all remote", everyone_but_0),
        ("names dest", n(&[2, 0, 3, 4, 1])),
        ("duplicates", n(&[3, 3, 4, 9, 4, 3, 1, 1])),
        ("slowed neighbours", n(&[2, 3, 4, 5, 6, 7, 1])),
        ("dest only", n(&[0, 0])),
        ("empty", Vec::new()),
    ];
    let mut cases = 0;
    let mut delayed_by_fabric = 0;
    for (spec_name, spec) in [
        ("simulation_25", ClusterSpec::simulation_25(4)),
        ("instant service", instant_service_spec()),
    ] {
        for bytes in [0u64, 1, 12_345_679, 1 << 20] {
            for now in [SimTime::ZERO, SimTime(3_141_592_653)] {
                for loaded in [false, true] {
                    for slowed in [false, true] {
                        for (list_name, sources) in &source_lists {
                            let what = format!(
                                "{spec_name}, {bytes} B, now {now:?}, loaded {loaded}, \
                                 slowed {slowed}, {list_name}"
                            );
                            let mut a = ClusterNet::new(&spec);
                            let mut b = ClusterNet::new(&spec);
                            for net in [&mut a, &mut b] {
                                if loaded {
                                    preload(net, now);
                                }
                                if slowed {
                                    slow_down(net);
                                }
                            }
                            assert_eq!(state(&a), state(&b), "{what}: twins differ up front");
                            // Two fan-ins back to back: into node 0, then
                            // into the slowed node 5.
                            for dest in [NodeId(0), NodeId(5)] {
                                let want = by_transfers(&a, now, dest, sources, bytes);
                                let got = by_gather(&mut b, now, dest, sources, bytes);
                                assert_eq!(got, want, "{what}, dest {dest:?}: fetches differ");
                                if spec_name == "instant service" {
                                    // Only a pre-loaded fabric can hold a
                                    // fetch open; no pipe takes any time.
                                    assert!(
                                        want.iter()
                                            .all(|f| f.reservation.duration() == f.fabric_delay),
                                        "{what}, dest {dest:?}: a pipe took time"
                                    );
                                }
                                assert_eq!(
                                    state(&b),
                                    state(&a),
                                    "{what}, dest {dest:?}: cursors differ"
                                );
                                delayed_by_fabric += want
                                    .iter()
                                    .filter(|f| f.fabric_delay > SimDuration::ZERO)
                                    .count();
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 2 * 4 * 2 * 2 * 2 * source_lists.len());
    assert!(
        delayed_by_fabric > 0,
        "no case exercised a fabric-delayed fetch"
    );
}

#[test]
fn a_source_naming_dest_holds_the_destination_nic_like_a_transfer_does() {
    // The aliased fetch reads and writes the destination cursor through
    // both of its pipes: the fetch after it queues behind it.
    let mut net = ClusterNet::new(&ClusterSpec::simulation_25(4));
    let (dest, bytes) = (NodeId(3), 6 << 20); // 0.1 s on a 60 MiB/s NIC
    let mut ends = Vec::new();
    net.gather(SimTime::ZERO, dest, &[dest, NodeId(4)], bytes, |_, out| {
        ends.push(out.reservation)
    });
    assert_eq!(ends[0].start, SimTime::ZERO);
    assert_eq!(ends[1].start, ends[0].end);
    assert_eq!(net.node(dest).nic.next_free(), ends[1].end);
    assert_eq!(net.node(NodeId(4)).nic.next_free(), ends[1].end);
}
