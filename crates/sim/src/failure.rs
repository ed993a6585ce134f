//! The one failure replay: a [`FailureTrace`] turned into timed steps, with
//! the detection boundaries a heartbeat timeout implies interleaved in
//! virtual-time order.
//!
//! Both layers that react to failures — the simulated HDFS's auto-repair
//! engine and the MapReduce engine's mid-job failure handling — hold a
//! [`FailureReplay`] and drain it with [`FailureReplay::next_due`]. What a
//! step *means* stays with the consumer (the file system wipes DataNodes and
//! launches repairs; the job engine updates its scheduler's view); *when* a
//! step happens, and whether it happens at all, is decided here, once:
//!
//! * **Expansion** — `RackDown` becomes one [`ReplayStep::Down`] per member
//!   node, in node-id order, when the trace is scheduled.
//! * **Outside the cluster** — an event naming a node the cluster does not
//!   have (or a rack with no members) is dropped when the trace is
//!   scheduled. It could never do anything: there is nothing to fail, revive
//!   or slow down.
//! * **Order** — steps come out by instant; events sharing an instant keep
//!   their trace order, and a trace scheduled later goes after the events
//!   already pending at the same instant.
//! * **The past is not rewritten** — an event scheduled with an instant
//!   before the *frontier* (the instant of the last step handed out) fires at
//!   the frontier.
//! * **Half-open outages** — a node that fail-stops at `t` is silent over
//!   `[t, t')` until a `NodeUp` at `t'`. Its detection boundary is
//!   `t + timeout`; trace events at an instant apply before the boundaries
//!   at that instant, so a node restored exactly *at* its boundary is
//!   serving again and is never declared dead.
//! * **One timeout rule** — a boundary is evaluated with the timeout in
//!   force when the replay reaches it, so [`FailureReplay::set_detection_timeout`]
//!   moves the boundary of every node not yet declared dead, in both
//!   directions; a boundary a lowered timeout moves behind the frontier
//!   fires at the frontier.
//! * **Duplicates** — a fail-stop of a node that is already down (in the
//!   consumer's liveness table, or silently) changes nothing and is
//!   swallowed; same-instant detections come out in the order the nodes went
//!   silent.

use std::collections::VecDeque;

use drc_cluster::{
    Cluster, FailureEventKind, FailureTrace, NodeId, Positive, SimDuration, SimTime,
};

/// One step of a replayed failure trace, handed out at its instant by
/// [`FailureReplay::next_due`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayStep {
    /// The node fail-stops and goes silent (it was up until now).
    Down(NodeId),
    /// The node rejoins; it is neither silent nor declared dead any more.
    Up(NodeId),
    /// The node's disk and NIC run at `1/factor` of nominal from now on.
    Slowdown(NodeId, Positive),
    /// The node stayed silent for the whole detection timeout and is now
    /// declared dead. The blind window is `[silent_since, now)`.
    Detected {
        /// The node declared dead.
        node: NodeId,
        /// The instant it went silent.
        silent_since: SimTime,
    },
}

/// A failure trace being replayed against one cluster (see the module docs
/// for the rules).
#[derive(Debug, Clone)]
pub struct FailureReplay {
    /// Expanded trace events not yet handed out, in replay order (never a
    /// `Detected`: boundaries are computed, not queued).
    pending: VecDeque<(SimTime, ReplayStep)>,
    /// `silent_since[n]`: when node `n` went silent, while it is silent or
    /// declared dead.
    silent_since: Vec<Option<SimTime>>,
    /// The silent nodes not yet declared dead, in the order they went silent
    /// — which, the timeout being uniform, is boundary order.
    watch: VecDeque<(SimTime, NodeId)>,
    timeout: SimDuration,
    frontier: SimTime,
}

impl FailureReplay {
    /// An empty replay for a cluster of `nodes` nodes: nothing scheduled,
    /// nobody silent, the frontier at the epoch.
    pub fn new(nodes: usize, detection_timeout: SimDuration) -> Self {
        FailureReplay {
            pending: VecDeque::new(),
            silent_since: vec![None; nodes],
            watch: VecDeque::new(),
            timeout: detection_timeout,
            frontier: SimTime::ZERO,
        }
    }

    /// How long a node stays silent before it is declared dead.
    pub fn detection_timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Changes the detection timeout for every node not yet declared dead.
    pub fn set_detection_timeout(&mut self, timeout: SimDuration) {
        self.timeout = timeout;
    }

    /// Merges `trace` into the pending events; `cluster` supplies the rack
    /// membership `RackDown` expands to.
    pub fn schedule(&mut self, trace: &FailureTrace, cluster: &Cluster) {
        let nodes = self.silent_since.len();
        for ev in trace.events() {
            let at = ev.at.max(self.frontier);
            let mut push = |node: NodeId, step: ReplayStep| {
                if node.0 < nodes {
                    self.pending.push_back((at, step));
                }
            };
            match ev.kind {
                FailureEventKind::NodeDown { node } => push(node, ReplayStep::Down(node)),
                FailureEventKind::RackDown { rack } => {
                    for node in cluster.nodes_in_rack(rack) {
                        push(node, ReplayStep::Down(node));
                    }
                }
                FailureEventKind::NodeUp { node } => push(node, ReplayStep::Up(node)),
                FailureEventKind::Slowdown { node, factor } => {
                    push(node, ReplayStep::Slowdown(node, factor));
                }
            }
        }
        // Stable: what was already pending stays ahead of the new trace's
        // events at the same instant.
        self.pending.make_contiguous().sort_by_key(|&(at, _)| at);
    }

    /// Hands out the next step due at or before `horizon`, or `None` when
    /// everything left lies beyond it.
    ///
    /// `live` is the consumer's liveness table: a fail-stop takes effect
    /// only on a node that is up there and not already silent.
    pub fn next_due(&mut self, horizon: SimTime, live: &Cluster) -> Option<(SimTime, ReplayStep)> {
        loop {
            let at = self.next_at().filter(|&at| at <= horizon)?;
            self.frontier = at;
            // A trace event due now goes first, a boundary at the same
            // instant after it: the half-open outage rule.
            if self.pending.front().map(|&(event_at, _)| event_at) != Some(at) {
                let (silent_since, node) = self.watch.pop_front()?;
                return Some((at, ReplayStep::Detected { node, silent_since }));
            }
            let (_, step) = self.pending.pop_front()?;
            match step {
                ReplayStep::Down(node) => {
                    if !live.is_up(node) || self.silent_since[node.0].is_some() {
                        continue;
                    }
                    self.silent_since[node.0] = Some(at);
                    self.watch.push_back((at, node));
                }
                ReplayStep::Up(node) => self.heard_from(node),
                ReplayStep::Slowdown(..) | ReplayStep::Detected { .. } => {}
            }
            return Some((at, step));
        }
    }

    /// The instant of the next step, if any is left: the first pending trace
    /// event or the earliest detection boundary, whichever comes first (a
    /// fail-stop that will turn out to be a duplicate counts).
    pub fn next_at(&self) -> Option<SimTime> {
        let event_at = self.pending.front().map(|&(at, _)| at);
        let boundary = self
            .watch
            .front()
            .map(|&(since, _)| (since + self.timeout).max(self.frontier));
        match (event_at, boundary) {
            (Some(event_at), Some(boundary)) => Some(event_at.min(boundary)),
            (event_at, boundary) => event_at.or(boundary),
        }
    }

    /// `node` is heartbeating again — it rejoined, or its owner
    /// re-provisioned it outside the trace (a repair): it is no longer
    /// silent, and a pending boundary for it is cancelled.
    pub fn heard_from(&mut self, node: NodeId) {
        let was_silent = self.silent_since.get_mut(node.0).and_then(Option::take);
        if was_silent.is_some() {
            self.watch.retain(|&(_, n)| n != node);
        }
    }

    /// When `node` went silent, if it still is (declared dead or not).
    pub fn silent_since(&self, node: NodeId) -> Option<SimTime> {
        self.silent_since.get(node.0).copied().flatten()
    }

    /// The trace events not yet handed out, in replay order — the future a
    /// consumer may look ahead into.
    pub fn upcoming(&self) -> impl Iterator<Item = (SimTime, ReplayStep)> + '_ {
        self.pending.iter().copied()
    }

    /// Number of steps still to come: trace events not yet handed out plus
    /// one boundary per silent node not yet declared dead.
    pub fn pending(&self) -> usize {
        self.pending.len() + self.watch.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drc_cluster::{ClusterSpec, FailureEvent, RackId};

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::simulation_25(4))
    }

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    fn down(at_s: f64, n: usize) -> FailureEvent {
        FailureEvent::at_secs(at_s, FailureEventKind::NodeDown { node: NodeId(n) })
    }

    fn up(at_s: f64, n: usize) -> FailureEvent {
        FailureEvent::at_secs(at_s, FailureEventKind::NodeUp { node: NodeId(n) })
    }

    fn detected(at_s: f64, n: usize, since_s: f64) -> (SimTime, ReplayStep) {
        (
            secs(at_s),
            ReplayStep::Detected {
                node: NodeId(n),
                silent_since: secs(since_s),
            },
        )
    }

    /// Drains the replay to `horizon` against a liveness table no consumer
    /// ever marks down (so only the replay's own silence gates fail-stops).
    fn drain(replay: &mut FailureReplay, horizon: SimTime) -> Vec<(SimTime, ReplayStep)> {
        let live = cluster();
        std::iter::from_fn(|| replay.next_due(horizon, &live)).collect()
    }

    fn replay(timeout_s: f64, events: Vec<FailureEvent>) -> FailureReplay {
        let cluster = cluster();
        let mut replay = FailureReplay::new(cluster.len(), SimDuration::from_secs_f64(timeout_s));
        replay.schedule(&FailureTrace::from_events(events), &cluster);
        replay
    }

    #[test]
    fn boundaries_interleave_with_events_in_time_order_whatever_the_horizon() {
        // down@1, boundary@3, up@5: one big drain must still cross the
        // boundary before the recovery.
        let mut r = replay(2.0, vec![down(1.0, 9), up(5.0, 9)]);
        assert_eq!(r.pending(), 2);
        assert_eq!(
            drain(&mut r, secs(6.0)),
            [
                (secs(1.0), ReplayStep::Down(NodeId(9))),
                detected(3.0, 9, 1.0),
                (secs(5.0), ReplayStep::Up(NodeId(9))),
            ]
        );
        assert_eq!(r.pending(), 0);
        assert_eq!(r.silent_since(NodeId(9)), None);

        // The same trace drained in slices yields the same steps.
        let mut r = replay(2.0, vec![down(1.0, 9), up(5.0, 9)]);
        let mut steps = drain(&mut r, secs(1.0));
        assert_eq!(r.silent_since(NodeId(9)), Some(secs(1.0)));
        assert_eq!(r.pending(), 2, "the recovery and the boundary");
        steps.extend(drain(&mut r, secs(2.9)));
        assert_eq!(steps.len(), 1, "the boundary is not due before 3 s");
        steps.extend(drain(&mut r, secs(3.0)));
        assert_eq!(steps[1], detected(3.0, 9, 1.0));
        assert_eq!(
            r.silent_since(NodeId(9)),
            Some(secs(1.0)),
            "dead is still silent"
        );
    }

    #[test]
    fn a_rejoin_at_or_before_the_boundary_cancels_detection() {
        for up_at in [2.0, 3.0] {
            let mut r = replay(2.0, vec![down(1.0, 9), up(up_at, 9)]);
            assert_eq!(
                drain(&mut r, SimTime(u64::MAX)),
                [
                    (secs(1.0), ReplayStep::Down(NodeId(9))),
                    (secs(up_at), ReplayStep::Up(NodeId(9))),
                ],
                "up at {up_at} s"
            );
            assert_eq!(r.pending(), 0);
        }
    }

    #[test]
    fn rack_bursts_expand_and_same_instant_detections_keep_silence_order() {
        let cluster = cluster();
        let members = cluster.nodes_in_rack(RackId(1));
        let mut r = replay(
            0.0,
            vec![
                down(1.0, 11),
                FailureEvent::at_secs(1.0, FailureEventKind::RackDown { rack: RackId(1) }),
                // Already silent: swallowed.
                down(1.0, members[0].0),
                FailureEvent::at_secs(
                    1.0,
                    FailureEventKind::Slowdown {
                        node: NodeId(0),
                        factor: Positive::new(2.0).unwrap(),
                    },
                ),
            ],
        );
        let steps = drain(&mut r, secs(1.0));
        // Every event of the instant first, then the zero-timeout
        // boundaries — node 11 went silent before the rack did.
        let mut want: Vec<(SimTime, ReplayStep)> = vec![(secs(1.0), ReplayStep::Down(NodeId(11)))];
        want.extend(members.iter().map(|&n| (secs(1.0), ReplayStep::Down(n))));
        want.push((
            secs(1.0),
            ReplayStep::Slowdown(NodeId(0), Positive::new(2.0).unwrap()),
        ));
        want.push(detected(1.0, 11, 1.0));
        want.extend(members.iter().map(|&n| detected(1.0, n.0, 1.0)));
        assert_eq!(steps, want);
    }

    #[test]
    fn fail_stops_of_nodes_the_consumer_holds_down_are_swallowed() {
        let mut live = cluster();
        live.set_down(NodeId(4));
        let mut r = replay(1.0, vec![down(1.0, 4), down(1.0, 5)]);
        assert_eq!(
            r.next_due(SimTime(u64::MAX), &live),
            Some((secs(1.0), ReplayStep::Down(NodeId(5))))
        );
        assert_eq!(r.silent_since(NodeId(4)), None);
        assert_eq!(
            r.next_due(SimTime(u64::MAX), &live),
            Some(detected(2.0, 5, 1.0))
        );
        assert_eq!(r.next_due(SimTime(u64::MAX), &live), None);
    }

    #[test]
    fn events_naming_nodes_outside_the_cluster_are_dropped_at_scheduling() {
        let ghost = NodeId(999);
        let r = replay(
            1.0,
            vec![
                FailureEvent::at_ns(5, FailureEventKind::NodeDown { node: ghost }),
                FailureEvent::at_ns(5, FailureEventKind::NodeUp { node: ghost }),
                FailureEvent::at_ns(
                    5,
                    FailureEventKind::Slowdown {
                        node: ghost,
                        factor: Positive::new(2.0).unwrap(),
                    },
                ),
                FailureEvent::at_ns(5, FailureEventKind::RackDown { rack: RackId(999) }),
            ],
        );
        assert_eq!(r.pending(), 0);
        assert_eq!(r.silent_since(ghost), None);
    }

    #[test]
    fn later_traces_merge_behind_pending_events_and_clamp_to_the_frontier() {
        let cluster = cluster();
        let mut r = replay(10.0, vec![down(1.0, 1), down(4.0, 2)]);
        assert_eq!(drain(&mut r, secs(2.0)).len(), 1);
        // The frontier is the last step handed out (1 s), not the horizon.
        r.schedule(
            &FailureTrace::from_events(vec![down(0.5, 3), down(4.0, 4)]),
            &cluster,
        );
        assert_eq!(
            drain(&mut r, secs(5.0)),
            [
                (secs(1.0), ReplayStep::Down(NodeId(3))),
                (secs(4.0), ReplayStep::Down(NodeId(2))),
                (secs(4.0), ReplayStep::Down(NodeId(4))),
            ]
        );
        assert_eq!(r.silent_since(NodeId(3)), Some(secs(1.0)));
    }

    #[test]
    fn a_timeout_change_moves_every_undetected_boundary_in_both_directions() {
        // Raised after scheduling: 1 s + 4 s, not the 1 s + 1 s in force
        // when the node went silent.
        let mut r = replay(1.0, vec![down(1.0, 7)]);
        assert_eq!(drain(&mut r, secs(1.0)).len(), 1);
        r.set_detection_timeout(SimDuration::from_secs_f64(4.0));
        assert_eq!(drain(&mut r, secs(4.9)), []);
        assert_eq!(drain(&mut r, SimTime(u64::MAX)), [detected(5.0, 7, 1.0)]);

        // Lowered: the boundary moves in from 11 s to 3 s.
        let mut r = replay(10.0, vec![down(1.0, 7)]);
        assert_eq!(drain(&mut r, secs(1.0)).len(), 1);
        r.set_detection_timeout(SimDuration::from_secs_f64(2.0));
        assert_eq!(drain(&mut r, SimTime(u64::MAX)), [detected(3.0, 7, 1.0)]);

        // Lowered so far that the boundary (1.5 s) falls behind the
        // frontier (2 s): it fires at the frontier.
        let mut r = replay(10.0, vec![down(1.0, 7), down(2.0, 8)]);
        assert_eq!(drain(&mut r, secs(2.0)).len(), 2);
        r.set_detection_timeout(SimDuration::from_secs_f64(0.5));
        assert_eq!(
            drain(&mut r, SimTime(u64::MAX)),
            [detected(2.0, 7, 1.0), detected(2.5, 8, 2.0)]
        );
    }

    #[test]
    fn heard_from_cancels_a_pending_boundary_and_tolerates_strangers() {
        let mut r = replay(2.0, vec![down(1.0, 7), down(1.0, 8)]);
        assert_eq!(drain(&mut r, secs(1.0)).len(), 2);
        r.heard_from(NodeId(7));
        r.heard_from(NodeId(999));
        assert_eq!(drain(&mut r, SimTime(u64::MAX)), [detected(3.0, 8, 1.0)]);
    }
}
