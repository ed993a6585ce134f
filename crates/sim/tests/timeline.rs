//! `Timeline`'s phase classes and overlap, and the typed phase labels
//! pinned against the strings they replaced.
//!
//! Every `PhaseKind` prints the label its recording site used to
//! `format!`, so reports that print phases (the `overlap` experiment's
//! JSON) and digests that hash their labels did not move. `PhaseClass`
//! membership is the old label-prefix rule: `"read:"` never matched a
//! `"degraded-read:"` label, and `"degraded-read:"` matched both the file
//! system's per-block phases and the engine's per-wave ones.

use drc_cluster::NodeId;
use drc_sim::{overlap, Phase, PhaseClass, PhaseKind, SimDuration, SimTime, Timeline};

fn t(s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(s)
}

/// One kind per variant, with the label its site recorded as a string.
/// A write phase used to carry the file's *name*; the kind carries its id.
fn recorded() -> [(PhaseKind, &'static str); 9] {
    [
        (PhaseKind::Write { file: 7 }, "write:f7"),
        (PhaseKind::Read { file: 3 }, "read:f3"),
        (
            PhaseKind::DegradedRead {
                file: 3,
                stripe: 12,
                block: 4,
            },
            "degraded-read:f3:s12:b4",
        ),
        (
            PhaseKind::Repair {
                file: 3,
                stripe: 12,
            },
            "repair:f3:s12",
        ),
        (
            PhaseKind::DetectionLag { node: NodeId(20) },
            "detection-lag:node20",
        ),
        (PhaseKind::MapWave(2), "map:wave2"),
        (PhaseKind::DegradedWave(2), "degraded-read:wave2"),
        (PhaseKind::Shuffle, "shuffle:fetch"),
        (PhaseKind::ReduceWave(1), "reduce:wave1"),
    ]
}

#[test]
fn every_kind_prints_its_recorded_label() {
    for (kind, label) in recorded() {
        assert_eq!(kind.to_string(), label, "{kind:?}");
        assert_eq!(
            serde_json::to_string(&kind).unwrap(),
            format!("\"{label}\"")
        );
    }
}

#[test]
fn an_overlap_row_phase_serialises_as_before() {
    // The first phase of the quick `overlap` run's pentagon row, as the
    // string-labelled timeline printed it.
    let phase = Phase {
        label: PhaseKind::DegradedRead {
            file: 0,
            stripe: 0,
            block: 0,
        },
        start: SimTime(188_666_673),
        end: SimTime(205_333_340),
        bytes: 3_145_728,
    };
    assert_eq!(
        serde_json::to_string_pretty(&phase).unwrap(),
        r#"{
  "label": "degraded-read:f0:s0:b0",
  "start": 188666673,
  "end": 205333340,
  "bytes": 3145728
}"#
    );
}

#[test]
fn classes_follow_the_label_prefix_rule() {
    let mut timeline = Timeline::new();
    for (i, (kind, _)) in recorded().into_iter().enumerate() {
        timeline.record(kind, SimTime(i as u64), SimTime(i as u64 + 1), 1 << i);
    }
    let members =
        |class| -> Vec<String> { timeline.of(class).map(|p| p.label.to_string()).collect() };
    // The two memberships a prefix match got right only by spelling.
    assert_eq!(members(PhaseClass::Read), ["read:f3"]);
    assert_eq!(
        members(PhaseClass::DegradedRead),
        ["degraded-read:f3:s12:b4", "degraded-read:wave2"]
    );
    assert_eq!(
        timeline.bytes_of(PhaseClass::DegradedRead),
        (1 << 2) | (1 << 6)
    );
    // Every class is exactly the labels its old prefix matched.
    for (class, prefix) in [
        (PhaseClass::Write, "write:"),
        (PhaseClass::Read, "read:"),
        (PhaseClass::DegradedRead, "degraded-read:"),
        (PhaseClass::Repair, "repair:"),
        (PhaseClass::DetectionLag, "detection-lag:"),
        (PhaseClass::Map, "map:"),
        (PhaseClass::Shuffle, "shuffle:"),
        (PhaseClass::Reduce, "reduce:"),
    ] {
        let by_prefix: Vec<&str> = recorded()
            .into_iter()
            .map(|(_, label)| label)
            .filter(|label| label.starts_with(prefix))
            .collect();
        assert_eq!(members(class), by_prefix, "{class:?}");
    }
}

#[test]
fn overlap_reads_two_timelines_on_one_epoch() {
    let mut storage = Timeline::new();
    storage.record(repair(0), t(0.0), t(4.0), 0);
    let mut job = Timeline::new();
    job.record(PhaseKind::MapWave(0), t(1.0), t(2.0), 0);
    job.record(PhaseKind::Shuffle, t(3.0), t(6.0), 0);
    // Repair [0,4) against the job's union [1,2) ∪ [3,6): 1 s + 1 s.
    assert_eq!(
        overlap(storage.of(PhaseClass::Repair), &job.phases),
        SimDuration::from_secs_f64(2.0)
    );
    assert_eq!(
        overlap(job.of(PhaseClass::Shuffle), storage.of(PhaseClass::Repair)),
        SimDuration::from_secs_f64(1.0)
    );
}

fn repair(stripe: usize) -> PhaseKind {
    PhaseKind::Repair { file: 0, stripe }
}

fn degraded(block: usize) -> PhaseKind {
    PhaseKind::DegradedRead {
        file: 0,
        stripe: 0,
        block,
    }
}

#[test]
fn end_and_bytes() {
    let mut tl = Timeline::new();
    assert_eq!(tl.end(), SimTime::ZERO);
    tl.record(PhaseKind::Write { file: 0 }, t(1.0), t(3.0), 100);
    tl.record(repair(0), t(2.0), t(6.0), 200);
    assert_eq!(tl.end(), t(6.0));
    assert_eq!(tl.bytes_of(PhaseClass::Repair), 200);
}

#[test]
fn overlap_of_interleaved_phases() {
    let mut tl = Timeline::new();
    tl.record(repair(0), t(0.0), t(4.0), 0);
    tl.record(repair(1), t(3.0), t(5.0), 0);
    tl.record(degraded(0), t(2.0), t(6.0), 0);
    // repair union [0,5] ∩ degraded [2,6] = [2,5] = 3 s.
    assert_eq!(
        overlap(tl.of(PhaseClass::Repair), tl.of(PhaseClass::DegradedRead)),
        SimDuration::from_secs_f64(3.0)
    );
    assert_eq!(
        overlap(tl.of(PhaseClass::Repair), tl.of(PhaseClass::Shuffle)),
        SimDuration::ZERO
    );
}

#[test]
fn back_to_back_phases_do_not_overlap() {
    // Half-open [start, end) convention: sharing a boundary timestamp is
    // not overlap.
    let mut tl = Timeline::new();
    tl.record(PhaseKind::Shuffle, t(0.0), t(2.0), 10);
    tl.record(repair(0), t(2.0), t(4.0), 10);
    let shuffle_repair =
        |tl: &Timeline| overlap(tl.of(PhaseClass::Shuffle), tl.of(PhaseClass::Repair));
    assert_eq!(shuffle_repair(&tl), SimDuration::ZERO);
    // A single nanosecond of true overlap is detected.
    tl.record(repair(1), SimTime(1_999_999_999), t(2.0), 0);
    assert_eq!(shuffle_repair(&tl), SimDuration(1));
}

#[test]
fn zero_length_phases_cover_no_time() {
    let mut tl = Timeline::new();
    // Instantaneous completions (e.g. on an infinitely fast resource).
    tl.record(repair(0), t(1.0), t(1.0), 5);
    tl.record(degraded(0), t(1.0), t(1.0), 7);
    tl.record(degraded(1), t(0.0), t(3.0), 0);
    // Identical-timestamp zero-length phases never overlap each other …
    assert_eq!(
        overlap(&tl.phases[..1], &tl.phases[1..2]),
        SimDuration::ZERO
    );
    // … or anything else, even a span that covers their instant.
    assert_eq!(
        overlap(tl.of(PhaseClass::Repair), tl.of(PhaseClass::DegradedRead)),
        SimDuration::ZERO
    );
    // But their labels and bytes stay on the record.
    assert_eq!(tl.bytes_of(PhaseClass::Repair), 5);
    assert_eq!(tl.bytes_of(PhaseClass::DegradedRead), 7);
    assert_eq!(tl.end(), t(3.0));
}
