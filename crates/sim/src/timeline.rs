//! Per-phase virtual-time timelines: the record experiments read so
//! contention and overlap are visible in reports. A [`Phase`] is printed
//! inside the `overlap` experiment's rows; a [`Timeline`] never is.

use std::fmt;

use serde::value::Value;
use serde::Serialize;

use drc_cluster::{NodeId, SimDuration, SimTime};

/// What one [`Phase`] was doing. `Copy`, so recording a phase allocates
/// nothing; its `Display` (and its JSON) is the phase's label, e.g.
/// `repair:f0:s3`. File ids are the storage layer's raw `u64`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// A file's write pass: `write:f<file>`.
    Write {
        /// The written file.
        file: u64,
    },
    /// A whole-file read's replica traffic: `read:f<file>`.
    Read {
        /// The read file.
        file: u64,
    },
    /// One block rebuilt for a degraded read:
    /// `degraded-read:f<file>:s<stripe>:b<block>`.
    DegradedRead {
        /// The block's file.
        file: u64,
        /// The block's stripe.
        stripe: usize,
        /// The block's index in its stripe.
        block: usize,
    },
    /// One stripe's repair: `repair:f<file>:s<stripe>`.
    Repair {
        /// The stripe's file.
        file: u64,
        /// The repaired stripe.
        stripe: usize,
    },
    /// A failed node's detection blind window: `detection-lag:node<N>`.
    DetectionLag {
        /// The silent node.
        node: NodeId,
    },
    /// A MapReduce scheduling wave: `map:wave<i>`.
    MapWave(usize),
    /// The reconstruction traffic of a map wave: `degraded-read:wave<i>`.
    DegradedWave(usize),
    /// A job's shuffle fetch events: `shuffle:fetch`.
    Shuffle,
    /// A reduce-slot wave: `reduce:wave<i>`.
    ReduceWave(usize),
}

/// A family of [`PhaseKind`]s that reports read together, one per label
/// prefix: [`PhaseClass::DegradedRead`] holds both a file system's
/// per-block rebuilds and a job's per-wave reconstruction traffic, and
/// [`PhaseClass::Read`] holds neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseClass {
    /// [`PhaseKind::Write`].
    Write,
    /// [`PhaseKind::Read`].
    Read,
    /// [`PhaseKind::DegradedRead`] and [`PhaseKind::DegradedWave`].
    DegradedRead,
    /// [`PhaseKind::Repair`].
    Repair,
    /// [`PhaseKind::DetectionLag`].
    DetectionLag,
    /// [`PhaseKind::MapWave`].
    Map,
    /// [`PhaseKind::Shuffle`].
    Shuffle,
    /// [`PhaseKind::ReduceWave`].
    Reduce,
}

impl PhaseKind {
    fn class(self) -> PhaseClass {
        match self {
            PhaseKind::Write { .. } => PhaseClass::Write,
            PhaseKind::Read { .. } => PhaseClass::Read,
            PhaseKind::DegradedRead { .. } | PhaseKind::DegradedWave(_) => PhaseClass::DegradedRead,
            PhaseKind::Repair { .. } => PhaseClass::Repair,
            PhaseKind::DetectionLag { .. } => PhaseClass::DetectionLag,
            PhaseKind::MapWave(_) => PhaseClass::Map,
            PhaseKind::Shuffle => PhaseClass::Shuffle,
            PhaseKind::ReduceWave(_) => PhaseClass::Reduce,
        }
    }
}

impl fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PhaseKind::Write { file } => write!(f, "write:f{file}"),
            PhaseKind::Read { file } => write!(f, "read:f{file}"),
            PhaseKind::DegradedRead {
                file,
                stripe,
                block,
            } => write!(f, "degraded-read:f{file}:s{stripe}:b{block}"),
            PhaseKind::Repair { file, stripe } => write!(f, "repair:f{file}:s{stripe}"),
            PhaseKind::DetectionLag { node } => write!(f, "detection-lag:node{}", node.0),
            PhaseKind::MapWave(i) => write!(f, "map:wave{i}"),
            PhaseKind::DegradedWave(i) => write!(f, "degraded-read:wave{i}"),
            PhaseKind::Shuffle => f.write_str("shuffle:fetch"),
            PhaseKind::ReduceWave(i) => write!(f, "reduce:wave{i}"),
        }
    }
}

impl Serialize for PhaseKind {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// One labelled span of virtual time (a write pass, a repair, a degraded
/// read, a map wave, …) plus the bytes it moved.
///
/// A phase covers the **half-open interval `[start, end)`**: the phase is in
/// flight at `start` and no longer in flight at `end`. Two back-to-back
/// phases that share a timestamp (`a.end == b.start`) therefore never
/// overlap, and a zero-length phase (`start == end`, e.g. an instantaneous
/// completion on an infinitely fast resource) covers no time at all — it is
/// kept on the timeline for its label and byte accounting but contributes
/// nothing to [`overlap`].
///
/// The label type defaults to [`PhaseKind`], the only label the workspace
/// records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase<L = PhaseKind> {
    /// What the span was doing.
    pub label: L,
    /// When the phase was issued.
    pub start: SimTime,
    /// When the phase's last event completed.
    pub end: SimTime,
    /// Bytes moved over the network during the phase.
    pub bytes: u64,
}

impl<L> Phase<L> {
    /// The phase's span.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

impl<L: Serialize> Serialize for Phase<L> {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("label".to_string(), self.label.serialize()),
            ("start".to_string(), self.start.0.serialize()),
            ("end".to_string(), self.end.0.serialize()),
            ("bytes".to_string(), self.bytes.serialize()),
        ])
    }
}

/// An append-only list of [`Phase`]s over one simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline<L = PhaseKind> {
    /// The recorded phases, in issue order.
    pub phases: Vec<Phase<L>>,
}

impl<L> Timeline<L> {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline { phases: Vec::new() }
    }

    /// Records one phase.
    pub fn record(&mut self, label: L, start: SimTime, end: SimTime, bytes: u64) {
        self.phases.push(Phase {
            label,
            start,
            end,
            bytes,
        });
    }

    /// The instant the last phase finishes (the epoch when empty).
    pub fn end(&self) -> SimTime {
        self.phases
            .iter()
            .map(|p| p.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

impl<L> Default for Timeline<L> {
    fn default() -> Self {
        Timeline::new()
    }
}

impl Timeline {
    /// Records `node`'s detection blind window `[silent_since, detected_at)`
    /// as a zero-byte [`PhaseKind::DetectionLag`] phase — what every
    /// consumer of a `FailureReplay` does with a `Detected` step. A failure
    /// detected the instant it happens has no blind window and leaves no
    /// phase.
    pub fn record_detection_lag(
        &mut self,
        node: NodeId,
        silent_since: SimTime,
        detected_at: SimTime,
    ) {
        if detected_at > silent_since {
            let lag = PhaseKind::DetectionLag { node };
            self.record(lag, silent_since, detected_at, 0);
        }
    }

    /// The phases of one class, in issue order.
    pub fn of(&self, class: PhaseClass) -> impl Iterator<Item = &Phase> + '_ {
        self.phases.iter().filter(move |p| p.label.class() == class)
    }

    /// Total bytes recorded across the phases of one class.
    pub fn bytes_of(&self, class: PhaseClass) -> u64 {
        self.of(class).map(|p| p.bytes).sum()
    }
}

/// Virtual time during which a phase of `a` and a phase of `b` were *both*
/// in flight — the overlap the serial execution model could never show.
/// `a` and `b` may come from different timelines on the same virtual epoch
/// (a file system's repairs against a job's shuffle).
///
/// Phases are half-open `[start, end)` intervals: a phase ending at the
/// exact instant another starts shares only the boundary timestamp, which
/// covers zero time, so back-to-back events never report phantom overlap.
/// Zero-length phases are in flight for no time at all and overlap
/// nothing, including other zero-length phases at the same instant.
pub fn overlap<'a>(
    a: impl IntoIterator<Item = &'a Phase>,
    b: impl IntoIterator<Item = &'a Phase>,
) -> SimDuration {
    let ia = union_intervals(a);
    let ib = union_intervals(b);
    let mut total = 0u64;
    for (s1, e1) in &ia {
        for (s2, e2) in &ib {
            let s = s1.max(s2);
            let e = e1.min(e2);
            if e > s {
                total += e.0 - s.0;
            }
        }
    }
    SimDuration(total)
}

/// Merges phase spans into disjoint, sorted intervals.
fn union_intervals<'a>(phases: impl IntoIterator<Item = &'a Phase>) -> Vec<(SimTime, SimTime)> {
    let mut spans: Vec<(SimTime, SimTime)> = phases
        .into_iter()
        .filter(|p| p.end > p.start)
        .map(|p| (p.start, p.end))
        .collect();
    spans.sort();
    let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(spans.len());
    for (s, e) in spans {
        match merged.last_mut() {
            Some((_, last_end)) if s <= *last_end => *last_end = (*last_end).max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}
