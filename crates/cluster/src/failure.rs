//! Failure injection: timed failure traces.
//!
//! One model lives here: [`FailureTrace`], a sorted sequence of
//! [`FailureEvent`]s (node down/up, correlated rack bursts, slowdowns) at
//! virtual instants. A trace only *describes* failures; `drc_sim`'s
//! `FailureReplay` executes it — expanding rack bursts, ordering events and
//! interleaving the detection boundaries a heartbeat timeout implies — and
//! the layers on the substrate (the simulated HDFS's auto-repair engine, the
//! MapReduce engine's mid-job failure handling) each consume one replay, so
//! detection lag, repair traffic and job execution interleave in virtual
//! time. The static failure pattern of the degraded-MapReduce experiments
//! (§5 future work: "MR performance in the presence of node failures") is
//! the trivial trace with every failure at t = 0
//! ([`FailureTrace::down_at_t0`], victims drawn with [`sample_nodes`]).
//!
//! # Interval semantics
//!
//! A node taken down by an event at instant `t` and restored at `t'` is
//! unavailable over the **half-open interval `[t, t')`** — the same
//! convention as `drc_sim::Timeline` phases: the node is already dark *at*
//! `t` and serving again *at* `t'`. Trace timestamps are [`SimTime`]s, the
//! instants the simulation substrate reserves its resources in.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::spec::Positive;
use crate::time::{SimDuration, SimTime};
use crate::topology::{Cluster, NodeId, RackId};

/// Samples `count` distinct nodes of `cluster` uniformly at random, in id
/// order — the victims of a static failure pattern.
///
/// The sample is **capped at the cluster size**: asking for more nodes than
/// there are yields every node, not an error; compare the result's length
/// with `count` to detect the truncation.
pub fn sample_nodes<R: Rng + ?Sized>(cluster: &Cluster, count: usize, rng: &mut R) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = cluster.nodes().collect();
    nodes.shuffle(rng);
    nodes.truncate(count.min(cluster.len()));
    nodes.sort_unstable();
    nodes
}

/// What happens at one instant of a [`FailureTrace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureEventKind {
    /// The node fail-stops and its disk contents are lost (the paper's
    /// repair-relevant failure: the storage layer must re-create the node's
    /// replicas from surviving ones once the failure is detected).
    NodeDown {
        /// The failing node.
        node: NodeId,
    },
    /// The node is re-provisioned and rejoins the cluster (empty if nothing
    /// repaired it first — redundancy is only restored by repair traffic).
    NodeUp {
        /// The recovering node.
        node: NodeId,
    },
    /// Every node of the rack fail-stops at the same instant (a correlated
    /// burst: a switch or PDU failure).
    RackDown {
        /// The failing rack.
        rack: RackId,
    },
    /// The node stays up but its disk and NIC run at `1/factor` of nominal
    /// bandwidth from this instant on (a failing disk, a congested uplink);
    /// `factor == 1.0` restores nominal speed.
    Slowdown {
        /// The degraded node.
        node: NodeId,
        /// Bandwidth divisor (2.0 = half speed).
        factor: Positive,
    },
}

/// One timed failure-model event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// The virtual instant the event happens at.
    pub at: SimTime,
    /// What happens at that instant.
    pub kind: FailureEventKind,
}

impl FailureEvent {
    /// Pairs an instant (in nanoseconds since the epoch) with an event kind.
    pub fn at_ns(ns: u64, kind: FailureEventKind) -> Self {
        FailureEvent {
            at: SimTime(ns),
            kind,
        }
    }

    /// Pairs an instant (in seconds since the epoch, rounded to the nearest
    /// nanosecond) with an event kind, through
    /// [`SimDuration::from_secs_f64`]: an instant past `u64::MAX`
    /// nanoseconds, +∞ included, saturates there — an event that never
    /// fires within any horizon — and NaN or a value ≤ 0 is the epoch.
    pub fn at_secs(at_s: f64, kind: FailureEventKind) -> Self {
        FailureEvent {
            at: SimTime::ZERO + SimDuration::from_secs_f64(at_s),
            kind,
        }
    }
}

/// A sorted sequence of timed [`FailureEvent`]s: the trace a failure engine
/// replays against the simulated cluster.
///
/// Events are kept sorted by instant; events sharing an instant keep their
/// insertion order (the same deterministic tie-break as the substrate's
/// event queue).
///
/// # Example
///
/// ```
/// use drc_cluster::{FailureEvent, FailureEventKind, FailureTrace, NodeId, SimTime};
///
/// let trace = FailureTrace::from_events(vec![
///     FailureEvent::at_secs(5.0, FailureEventKind::NodeUp { node: NodeId(3) }),
///     FailureEvent::at_secs(1.0, FailureEventKind::NodeDown { node: NodeId(3) }),
/// ]);
/// // Sorted on construction: the failure precedes the recovery.
/// assert_eq!(trace.events()[0].at, SimTime(1_000_000_000));
/// assert_eq!(trace.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailureTrace {
    events: Vec<FailureEvent>,
}

impl FailureTrace {
    /// An empty trace (nothing ever fails).
    pub fn new() -> Self {
        FailureTrace::default()
    }

    /// The static failure pattern as a trace: every node of `nodes` fails at
    /// t = 0 and nothing recovers. Replayed under a zero detection timeout
    /// this reproduces a cluster whose `nodes` start down exactly (the
    /// differential tests lock that identity byte-for-byte).
    pub fn down_at_t0(nodes: &[NodeId]) -> Self {
        FailureTrace::from_events(
            nodes
                .iter()
                .map(|&node| FailureEvent::at_ns(0, FailureEventKind::NodeDown { node }))
                .collect(),
        )
    }

    /// Builds a trace from events in any order (stable-sorted by instant).
    pub fn from_events(mut events: Vec<FailureEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FailureTrace { events }
    }

    /// Adds one event, keeping the trace sorted (an event at an already-used
    /// instant goes after the existing ones — insertion order breaks ties).
    pub fn push(&mut self, event: FailureEvent) {
        let idx = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(idx, event);
    }

    /// The events in instant order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The distinct nodes the trace ever takes down (directly or via a rack
    /// burst), in id order.
    pub fn nodes_taken_down(&self, cluster: &Cluster) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = Vec::new();
        for ev in &self.events {
            match ev.kind {
                FailureEventKind::NodeDown { node } => nodes.push(node),
                FailureEventKind::RackDown { rack } => nodes.extend(cluster.nodes_in_rack(rack)),
                _ => {}
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// A Poisson-arrival failure trace: node fail-stops arrive as a Poisson
    /// process with the given **per-node** failure rate (the reliability
    /// crate's `ReliabilityParams::failure_rate_per_hour` unit), i.e. an
    /// aggregate arrival rate of `rate × live nodes`. Victims are drawn
    /// uniformly from the nodes still up; arrivals stop at `horizon_s`
    /// virtual seconds or after `max_failures` events, whichever comes
    /// first.
    ///
    /// Real MTTFs (years) against second-scale simulations need an
    /// acceleration factor folded into `rate_per_hour` — the same trick the
    /// reliability crate's Monte-Carlo validator uses.
    pub fn poisson<R: Rng + ?Sized>(
        cluster: &Cluster,
        rate_per_hour: f64,
        horizon_s: f64,
        max_failures: usize,
        rng: &mut R,
    ) -> Self {
        let mut events = Vec::new();
        let valid = rate_per_hour.is_finite()
            && rate_per_hour > 0.0
            && horizon_s.is_finite()
            && horizon_s > 0.0;
        if !valid {
            return FailureTrace { events };
        }
        let rate_per_s = rate_per_hour / 3600.0;
        let mut alive: Vec<NodeId> = cluster.up_nodes();
        let mut t = 0.0f64;
        while events.len() < max_failures && !alive.is_empty() {
            let aggregate = rate_per_s * alive.len() as f64;
            // Exponential inter-arrival: -ln(1 - U) / rate, U ∈ [0, 1).
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / aggregate;
            if t >= horizon_s {
                break;
            }
            let victim = alive.swap_remove(rng.gen_range(0..alive.len()));
            events.push(FailureEvent::at_secs(
                t,
                FailureEventKind::NodeDown { node: victim },
            ));
        }
        FailureTrace::from_events(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;
    use rand::SeedableRng;

    #[test]
    fn sampled_nodes_are_distinct_sorted_and_deterministic() {
        let cluster = Cluster::new(ClusterSpec::setup1());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let sample = sample_nodes(&cluster, 5, &mut rng);
        assert_eq!(sample.len(), 5);
        assert!(sample.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        assert_eq!(sample, sample_nodes(&cluster, 5, &mut rng2));
        // Requesting more nodes than there are caps at the cluster size,
        // and the length makes the truncation detectable.
        assert_eq!(sample_nodes(&cluster, 100, &mut rng2).len(), 25);
    }

    #[test]
    fn down_at_t0_is_all_node_downs_at_t0() {
        let cluster = Cluster::new(ClusterSpec::setup1());
        let trace = FailureTrace::down_at_t0(&[NodeId(2), NodeId(9)]);
        assert_eq!(trace.len(), 2);
        assert!(trace.events().iter().all(|e| e.at == SimTime::ZERO));
        assert_eq!(trace.nodes_taken_down(&cluster), vec![NodeId(2), NodeId(9)]);
    }

    #[test]
    fn traces_sort_and_push_keeps_order() {
        let mut trace = FailureTrace::from_events(vec![
            FailureEvent::at_ns(50, FailureEventKind::NodeUp { node: NodeId(1) }),
            FailureEvent::at_ns(10, FailureEventKind::NodeDown { node: NodeId(1) }),
        ]);
        trace.push(FailureEvent::at_ns(
            30,
            FailureEventKind::Slowdown {
                node: NodeId(2),
                factor: Positive::new(2.0).unwrap(),
            },
        ));
        let at: Vec<u64> = trace.events().iter().map(|e| e.at.0).collect();
        assert_eq!(at, vec![10, 30, 50]);
        assert!(!trace.is_empty());
    }

    #[test]
    fn second_stamps_saturate_above_and_clamp_to_the_epoch_below() {
        let at_ns = |at_s: f64| {
            FailureEvent::at_secs(at_s, FailureEventKind::NodeUp { node: NodeId(0) })
                .at
                .0
        };
        // "Never": past every horizon, not at t = 0.
        assert_eq!(at_ns(f64::INFINITY), u64::MAX);
        assert_eq!(at_ns(1e300), u64::MAX);
        for at_s in [f64::NEG_INFINITY, f64::NAN, -0.0, -3.0] {
            assert_eq!(at_ns(at_s), 0, "{at_s}");
        }
        assert_eq!(at_ns(1.5), 1_500_000_000);
    }

    #[test]
    fn poisson_traces_are_deterministic_bounded_and_distinct() {
        let cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        // An aggressive accelerated rate so the horizon sees arrivals.
        let trace = FailureTrace::poisson(&cluster, 3600.0, 10.0, 3, &mut rng);
        assert!(trace.len() <= 3);
        assert!(
            !trace.is_empty(),
            "this seed and rate must produce arrivals"
        );
        let down = trace.nodes_taken_down(&cluster);
        assert_eq!(down.len(), trace.len(), "victims are distinct");
        // Sorted, within the horizon, and reproducible from the same seed.
        let mut last = SimTime::ZERO;
        for ev in trace.events() {
            assert!(ev.at >= last);
            assert!(ev.at < SimTime(10_000_000_000));
            last = ev.at;
            assert!(matches!(ev.kind, FailureEventKind::NodeDown { .. }));
        }
        let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        assert_eq!(
            trace,
            FailureTrace::poisson(&cluster, 3600.0, 10.0, 3, &mut rng2)
        );
        // Degenerate parameters yield an empty trace, never a hang.
        let mut rng3 = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        assert!(FailureTrace::poisson(&cluster, 0.0, 10.0, 3, &mut rng3).is_empty());
        assert!(FailureTrace::poisson(&cluster, 1.0, f64::NAN, 3, &mut rng3).is_empty());
    }

    #[test]
    fn a_rack_down_event_takes_down_every_node_of_the_rack() {
        let cluster = Cluster::new(ClusterSpec::simulation_25(4));
        let rack = RackId(1);
        let trace = FailureTrace::from_events(vec![FailureEvent::at_secs(
            2.0,
            FailureEventKind::RackDown { rack },
        )]);
        assert_eq!(
            trace.nodes_taken_down(&cluster),
            cluster.nodes_in_rack(rack)
        );
    }
}
