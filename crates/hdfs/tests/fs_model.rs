//! An exhaustive model check of one stripe's failure histories: for every
//! code the storage experiments compare, every word over a small alphabet
//! of failure-path calls runs on a fresh file system next to the reference
//! model in `support/stripe_model.rs`, and after every step the two must
//! agree.
//!
//! One short one-stripe file per code, encoded once and ingested with
//! `write_encoded` per word: 4 321 bytes, so its one content block is data
//! block 0 and the rest of the stripe is zero padding and parity. The
//! alphabet is the file system's one failure vocabulary (fail-stop only):
//! over the stripe's `n` hosts, `fail_node_permanently` of one host, its
//! rejoin empty (a `NodeUp` trace at `now`, drained by
//! `process_events_until(now)`), `repair_nodes` of every wiped host, and
//! `read_file`: 2n + 2 letters. Every word of length 3 (2 for heptagon-local
//! and RS(10,4)) runs, so every history of at most that length is a checked
//! prefix.
//!
//! Every step ends with a `read_file` (the `read_file` letter is that read
//! alone). After it:
//!
//! - the read returns the original bytes exactly when the model says the
//!   stripe is readable — every content block survives on an up node, or
//!   `recoverable_from_blocks` holds on the surviving blocks — and
//!   otherwise `BlockUnavailable` for the first content block that is not;
//! - a repair's report counts what the model rebuilt;
//! - every node's liveness and `DataNode::contains` of every stripe block
//!   match the model, and no other node holds anything;
//! - the `FsStats` byte deltas equal the `Timeline`'s, the bytes the
//!   DataNodes served equal the read and repair phases' bytes, and the
//!   bytes they received equal the write phase's plus the rebuilt blocks;
//! - nothing panics.
//!
//! Coverage, pinned in `every_failure_history_of_one_stripe_matches_the_model`:
//! per code, the words run, the reads refused, the degraded-read phases,
//! and the repairs that rebuilt and that found the stripe beyond recovery.
//!
//! Mutants made on a copy of the file system, with the first word that
//! fails:
//!
//! - a plan's bytes charged twice, as a degraded read's phase recorded
//!   twice (pentagon `[Fail(1), Fail(0)]`) or a repair phase's bytes doubled
//!   (2-rep `[Fail(0), RepairWiped]`): caught, the served bytes fall short
//!   of the phases';
//! - `repair_plan_around` handed an empty `unusable` set: not caught here.
//!   Every wiped host is replaced and a down host is always wiped, so the
//!   set is empty on every word. `dead_sender.rs` and
//!   `failure_replay_digest.rs` catch it: there a silently failed node is
//!   down but not yet replaced;
//! - `read_replica` reading from a down node: not caught, and no test of
//!   this crate catches it. It is equivalent: a down node holds nothing.
//!
//! Run time on a 2-core Xeon: 13 s in debug, 0.5 s in release. The file
//! is short because every step reads it: a whole content block would make
//! each read copy a MiB.

use drc_cluster::{ClusterSpec, FailureEvent, FailureEventKind, FailureTrace, NodeId};
use drc_codes::{CodeKind, ErasureCode};
use drc_hdfs::{BlockKey, Bytes, DistributedFileSystem, EncodedFile, HdfsError};
use drc_sim::PhaseClass;

#[path = "support/stripe_model.rs"]
mod stripe_model;

use stripe_model::StripeModel;

const BLOCK: usize = 1 << 20;
/// The file: one content block, a short one.
const LEN: usize = 4321;

/// One letter of the alphabet, naming hosts by stripe-local index.
#[derive(Debug, Clone, Copy)]
enum Letter {
    Fail(usize),
    RejoinEmpty(usize),
    RepairWiped,
    Read,
}

fn alphabet(n: usize) -> Vec<Letter> {
    let mut letters: Vec<Letter> = (0..n)
        .flat_map(|l| [Letter::Fail(l), Letter::RejoinEmpty(l)])
        .collect();
    letters.extend([Letter::RepairWiped, Letter::Read]);
    letters
}

/// Every sequence of `len` letters of `alphabet`.
fn words(len: u32, alphabet: &[Letter]) -> impl Iterator<Item = Vec<Letter>> + '_ {
    let base = alphabet.len();
    (0..base.pow(len)).map(move |w| (0..len).map(|i| alphabet[w / base.pow(i) % base]).collect())
}

fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = 1;
    spec
}

/// What a code's words exercised, summed over them.
#[derive(Debug, Default)]
struct Coverage {
    words: usize,
    refused_reads: usize,
    degraded_reads: usize,
    rebuilt: usize,
    unrecoverable: usize,
}

/// The byte counters every step is held to, in one place.
struct Ledger {
    /// `FsStats`: write, read and repair network bytes.
    stats: [u64; 3],
    /// The timeline: write, read + degraded read, repair phase bytes.
    phases: [u64; 3],
    served: u64,
    received: u64,
}

fn ledger(fs: &DistributedFileSystem) -> Ledger {
    let stats = fs.stats();
    let t = fs.timeline();
    let nodes = (0..fs.cluster().len()).map(|n| fs.datanode(NodeId(n)).unwrap());
    let (served, received) = nodes.fold((0, 0), |(s, r), dn| {
        (s + dn.bytes_served(), r + dn.bytes_received())
    });
    Ledger {
        stats: [
            stats.write_network_bytes,
            stats.read_network_bytes,
            stats.repair_network_bytes,
        ],
        phases: [
            t.bytes_of(PhaseClass::Write),
            t.bytes_of(PhaseClass::Read) + t.bytes_of(PhaseClass::DegradedRead),
            t.bytes_of(PhaseClass::Repair),
        ],
        served,
        received,
    }
}

/// Runs `word` on a fresh deployment of `file` next to the model and
/// checks them after every step.
fn run(
    code: &dyn ErasureCode,
    file: &EncodedFile,
    data: &[u8],
    word: &[Letter],
    cov: &mut Coverage,
) {
    let mut fs = DistributedFileSystem::new(spec(), 0x40DE1);
    let id = fs.write_encoded("/model", file).unwrap();
    let hosts = fs
        .namenode()
        .file(id)
        .unwrap()
        .placement
        .stripe_hosts(0)
        .unwrap();
    let mut model = StripeModel::new(code, data.len().div_ceil(BLOCK));
    let mut before = ledger(&fs);
    let mut rebuilt_blocks = 0u64;
    for (step, &letter) in word.iter().enumerate() {
        let case = || format!("{:?} step {step} of {word:?}", file.code());
        match letter {
            Letter::Fail(l) => {
                fs.fail_node_permanently(hosts[l]);
                model.fail(l);
            }
            Letter::RejoinEmpty(l) => {
                let up = FailureEventKind::NodeUp { node: hosts[l] };
                let trace = FailureTrace::from_events(vec![FailureEvent::at_ns(fs.now().0, up)]);
                fs.schedule_trace(&trace);
                let reports = fs.process_events_until(fs.now()).unwrap();
                assert!(reports.is_empty(), "a rejoin repairs nothing: {}", case());
                assert_eq!(fs.pending_events(), 0, "{}", case());
                model.rejoin(l);
            }
            Letter::RepairWiped => {
                let (wiped, rebuilt) = model.repair_wiped();
                let replaced: Vec<NodeId> = wiped.iter().map(|&l| hosts[l]).collect();
                let report = fs.repair_nodes(&replaced).unwrap();
                let share: usize = wiped.iter().map(|&l| code.node_blocks(l).len()).sum();
                let want = match (wiped.is_empty(), rebuilt) {
                    (true, _) => (0, 0, 0),
                    (false, true) => (1, share, 0),
                    (false, false) => (0, 0, 1),
                };
                let got = (
                    report.stripes_repaired,
                    report.blocks_restored,
                    report.unrecoverable_stripes,
                );
                assert_eq!(got, want, "report on {}", case());
                rebuilt_blocks += report.blocks_restored as u64;
                cov.rebuilt += usize::from(want.0 == 1);
                cov.unrecoverable += want.2;
            }
            Letter::Read => {}
        }
        let degraded = fs.timeline().of(PhaseClass::DegradedRead).count();
        let read = fs.read_file(id);
        cov.degraded_reads += fs.timeline().of(PhaseClass::DegradedRead).count() - degraded;
        match model.unreadable() {
            None => assert!(
                read.as_deref() == Ok(data),
                "read on {}: {:?}",
                case(),
                read.as_ref().map(Vec::len)
            ),
            Some(b) => {
                let lost = BlockKey::new(id, 0, b);
                assert!(
                    matches!(&read, Err(HdfsError::BlockUnavailable { block, .. }) if *block == lost),
                    "read on {}: {:?} bytes, want block {b} unavailable",
                    case(),
                    read.map(|bytes| bytes.len())
                );
                cov.refused_reads += 1;
            }
        }

        for (l, &node) in hosts.iter().enumerate() {
            let (up, holds) = &model.nodes[l];
            assert_eq!(fs.cluster().is_up(node), *up, "node {l} up on {}", case());
            let dn = fs.datanode(node).unwrap();
            for &b in code.node_blocks(l) {
                let key = BlockKey::new(id, 0, b);
                assert_eq!(
                    dn.contains(&key),
                    holds.contains(&b),
                    "node {l} block {b} on {}",
                    case()
                );
            }
        }
        let others = (0..fs.cluster().len())
            .map(NodeId)
            .filter(|n| !hosts.contains(n));
        for node in others {
            assert!(fs.cluster().is_up(node), "{node} on {}", case());
            assert_eq!(
                fs.datanode(node).unwrap().block_count(),
                0,
                "{node} on {}",
                case()
            );
        }
        let stats = fs.stats();
        assert_eq!(stats.stored_blocks, model.stored_blocks(), "{}", case());
        assert_eq!(
            stats.stored_bytes,
            (model.stored_blocks() * BLOCK) as u64,
            "{}",
            case()
        );

        let after = ledger(&fs);
        let delta = |a: [u64; 3], b: [u64; 3]| [0, 1, 2].map(|i| a[i] - b[i]);
        let phases = delta(after.phases, before.phases);
        assert_eq!(
            delta(after.stats, before.stats),
            phases,
            "stats on {}",
            case()
        );
        assert_eq!(
            after.served - before.served,
            phases[1] + phases[2],
            "served on {}",
            case()
        );
        assert_eq!(
            after.received,
            after.phases[0] + rebuilt_blocks * BLOCK as u64,
            "received on {}",
            case()
        );
        before = after;
    }
    cov.words += 1;
}

#[test]
fn every_failure_history_of_one_stripe_matches_the_model() {
    // Per code: the longest word, then the coverage it must reach — words,
    // refused reads, degraded reads, repairs rebuilt, repairs beyond
    // recovery.
    let codes = [
        (CodeKind::TWO_REP, 3, (216, 40, 0, 28, 2)),
        (CodeKind::THREE_REP, 3, (512, 6, 0, 60, 0)),
        (CodeKind::Pentagon, 3, (1728, 18, 68, 150, 0)),
        (CodeKind::Heptagon, 3, (4096, 30, 88, 280, 0)),
        (CodeKind::HeptagonLocal, 2, (1024, 0, 2, 15, 0)),
        (
            CodeKind::ReedSolomon {
                data: 10,
                parity: 4,
            },
            2,
            (900, 0, 88, 14, 0),
        ),
    ];
    let data: Vec<u8> = (0..LEN)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect();
    for (kind, len, want) in codes {
        let code = kind.build().unwrap();
        let file = EncodedFile::encode(Bytes::from(data.clone()), kind, BLOCK).unwrap();
        let letters = alphabet(code.node_count());
        let mut cov = Coverage::default();
        for word in words(len, &letters) {
            run(code.as_ref(), &file, &data, &word, &mut cov);
        }
        let Coverage {
            words,
            refused_reads,
            degraded_reads,
            rebuilt,
            unrecoverable,
        } = cov;
        assert_eq!(words, letters.len().pow(len), "{kind}");
        let got = (words, refused_reads, degraded_reads, rebuilt, unrecoverable);
        assert_eq!(got, want, "{kind}: coverage");
    }
}
