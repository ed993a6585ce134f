//! Per-phase virtual-time timelines: the record experiments read so
//! contention and overlap are visible in reports. A [`Phase`] is printed
//! inside the `overlap` experiment's rows; a [`Timeline`] never is.

use serde::Serialize;

use drc_cluster::NodeId;

use crate::time::{SimDuration, SimTime};

/// The label prefix of blind-window phases (see
/// [`Timeline::record_detection_lag`]), so experiments matching
/// [`Timeline::with_prefix`] see the same spans whichever layer recorded
/// them.
pub const DETECTION_LAG_PREFIX: &str = "detection-lag:";

/// One labelled span of virtual time (a write pass, a repair, a degraded
/// read, a map wave, …) plus the bytes it moved.
///
/// A phase covers the **half-open interval `[start, end)`**: the phase is in
/// flight at `start` and no longer in flight at `end`. Two back-to-back
/// phases that share a timestamp (`a.end == b.start`) therefore never
/// overlap, and a zero-length phase (`start == end`, e.g. an instantaneous
/// completion on an infinitely fast resource) covers no time at all — it is
/// kept on the timeline for its label and byte accounting but contributes
/// nothing to [`Timeline::overlap`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Phase {
    /// What the span was doing, e.g. `"repair"` or `"degraded-read"`.
    pub label: String,
    /// When the phase was issued.
    pub start: SimTime,
    /// When the phase's last event completed.
    pub end: SimTime,
    /// Bytes moved over the network during the phase.
    pub bytes: u64,
}

impl Phase {
    /// The phase's span.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// An append-only list of [`Phase`]s over one simulation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Timeline {
    /// The recorded phases, in issue order.
    pub phases: Vec<Phase>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Records one phase.
    pub fn record(&mut self, label: impl Into<String>, start: SimTime, end: SimTime, bytes: u64) {
        self.phases.push(Phase {
            label: label.into(),
            start,
            end,
            bytes,
        });
    }

    /// Records `node`'s detection blind window `[silent_since, detected_at)`
    /// as a zero-byte `detection-lag:node<N>` phase — what every consumer of
    /// a `FailureReplay` does with a `Detected` step. A failure detected the
    /// instant it happens has no blind window and leaves no phase.
    pub fn record_detection_lag(
        &mut self,
        node: NodeId,
        silent_since: SimTime,
        detected_at: SimTime,
    ) {
        if detected_at > silent_since {
            self.record(
                format!("{DETECTION_LAG_PREFIX}node{}", node.0),
                silent_since,
                detected_at,
                0,
            );
        }
    }

    /// The instant the last phase finishes (the epoch when empty).
    pub fn end(&self) -> SimTime {
        self.phases
            .iter()
            .map(|p| p.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Phases whose label starts with `prefix`.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a Phase> {
        self.phases
            .iter()
            .filter(move |p| p.label.starts_with(prefix))
    }

    /// Virtual time during which phases labelled with `a` and phases
    /// labelled with `b` were *both* in flight — the overlap the serial
    /// execution model could never show.
    ///
    /// Phases are half-open `[start, end)` intervals: a phase ending at the
    /// exact instant another starts shares only the boundary timestamp, which
    /// covers zero time, so back-to-back events never report phantom overlap.
    /// Zero-length phases are in flight for no time at all and overlap
    /// nothing, including other zero-length phases at the same instant.
    pub fn overlap(&self, a: &str, b: &str) -> SimDuration {
        let ia = union_intervals(self.with_prefix(a));
        let ib = union_intervals(self.with_prefix(b));
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

    /// Total bytes recorded across phases with the given label prefix.
    pub fn bytes_with_prefix(&self, prefix: &str) -> u64 {
        self.with_prefix(prefix).map(|p| p.bytes).sum()
    }
}

/// Merges phase spans into disjoint, sorted intervals.
fn union_intervals<'a>(phases: impl Iterator<Item = &'a Phase>) -> Vec<(SimTime, SimTime)> {
    let mut spans: Vec<(SimTime, SimTime)> = phases
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

impl std::fmt::Display for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for p in &self.phases {
            writeln!(
                f,
                "{:<28} {:>9.3}s .. {:>9.3}s  ({:>8.3}s, {:>7.1} MiB)",
                p.label,
                p.start.as_secs_f64(),
                p.end.as_secs_f64(),
                p.duration().as_secs_f64(),
                p.bytes as f64 / (1024.0 * 1024.0),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn end_and_bytes() {
        let mut tl = Timeline::new();
        assert_eq!(tl.end(), SimTime::ZERO);
        tl.record("write", t(1.0), t(3.0), 100);
        tl.record("repair", t(2.0), t(6.0), 200);
        assert_eq!(tl.end(), t(6.0));
        assert_eq!(tl.bytes_with_prefix("repair"), 200);
    }

    #[test]
    fn overlap_of_interleaved_phases() {
        let mut tl = Timeline::new();
        tl.record("repair:0", t(0.0), t(4.0), 0);
        tl.record("repair:1", t(3.0), t(5.0), 0);
        tl.record("degraded-read:a", t(2.0), t(6.0), 0);
        // repair union [0,5] ∩ degraded [2,6] = [2,5] = 3 s.
        assert_eq!(
            tl.overlap("repair", "degraded-read"),
            SimDuration::from_secs_f64(3.0)
        );
        assert_eq!(tl.overlap("repair", "nothing"), SimDuration::ZERO);
    }

    #[test]
    fn back_to_back_phases_do_not_overlap() {
        // Half-open [start, end) convention: sharing a boundary timestamp is
        // not overlap.
        let mut tl = Timeline::new();
        tl.record("shuffle:fetch", t(0.0), t(2.0), 10);
        tl.record("repair:s0", t(2.0), t(4.0), 10);
        assert_eq!(tl.overlap("shuffle:", "repair:"), SimDuration::ZERO);
        // A single nanosecond of true overlap is detected.
        tl.record("repair:s1", SimTime(1_999_999_999), t(2.0), 0);
        assert_eq!(tl.overlap("shuffle:", "repair:"), SimDuration(1));
    }

    #[test]
    fn zero_length_phases_cover_no_time() {
        let mut tl = Timeline::new();
        // Instantaneous completions (e.g. on an infinitely fast resource).
        tl.record("repair:instant", t(1.0), t(1.0), 5);
        tl.record("degraded-read:instant", t(1.0), t(1.0), 7);
        tl.record("degraded-read:span", t(0.0), t(3.0), 0);
        // Identical-timestamp zero-length phases never overlap each other …
        assert_eq!(tl.overlap("repair:", "degraded-read:"), SimDuration::ZERO);
        // … or anything else, even a span that covers their instant.
        assert_eq!(
            tl.overlap("repair:", "degraded-read:span"),
            SimDuration::ZERO
        );
        // But their labels and bytes stay on the record.
        assert_eq!(tl.bytes_with_prefix("repair:"), 5);
        assert_eq!(tl.bytes_with_prefix("degraded-read:"), 7);
        assert_eq!(tl.end(), t(3.0));
    }

    #[test]
    fn display_lists_phases() {
        let mut tl = Timeline::new();
        tl.record("write", t(0.0), t(1.0), 1 << 20);
        let text = tl.to_string();
        assert!(text.contains("write"));
        assert!(text.contains("1.000s"));
    }
}
