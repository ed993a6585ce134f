//! What the four workloads share: sizes, the check ledger, the stopwatch
//! that keeps the benchmark's own verification out of the timings, and the
//! per-iteration record the runner aggregates.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::procfs::{self, ProcStat};
use crate::surface::{Code, Failure, NodeId};

/// One MiB: the block size of the byte workloads (the smallest a
/// `ClusterSpec` allows).
pub const BLOCK: usize = 1024 * 1024;

/// Nodes of the cluster failures are injected into: the smallest every byte
/// code fits (heptagon-local spans 15).
pub const REPAIR_NODES: usize = 15;

/// Stripes the product's repair pass fuses into one GF batch
/// (`REBUILD_WAVE_STRIPES` in crates/hdfs/src/fs.rs).
pub const REBUILD_WAVE: usize = 8;

/// Map-task load of the MapReduce runs, in percent of the map slots: four
/// waves.
pub const MR_LOAD_PERCENT: f64 = 400.0;

/// The workload names, in the order `run` executes them. Final: later
/// issues cite them.
pub const WORKLOADS: [&str; 4] = ["ingest_read", "fail_repair", "mr_sweep", "repro_quick"];

/// The product layers self time is attributed to, bottom-up.
pub const LAYERS: [&str; 9] = [
    "gf",
    "codes",
    "cluster",
    "sim",
    "hdfs",
    "mapreduce",
    "workloads",
    "reliability",
    "core",
];

/// How much work one iteration does. [`Size::full`] is what the benchmark
/// measures; [`Size::tiny`] exists so the unit tests can smoke every
/// workload in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// How many times a run sets its workload up; `setup_s` is the median.
    pub setup_repeats: usize,
    /// `ingest_read`: files written per code.
    pub ingest_files: usize,
    /// `ingest_read`: target data blocks (= MiB) per file; each code rounds
    /// it to a whole number of its stripes.
    pub ingest_file_blocks: usize,
    /// `fail_repair`: files stored per code.
    pub repair_files: usize,
    /// `fail_repair`: target data blocks per file, rounded to whole stripes.
    pub repair_file_blocks: usize,
    /// `mr_sweep`: nodes in the datacenter cluster.
    pub mr_nodes: usize,
    /// `mr_sweep`: placements per `simulate_locality` point.
    pub mr_locality_trials: usize,
}

impl Size {
    /// The measured configuration; the sizing behind each number is in
    /// `benchmark/README.md`.
    pub fn full() -> Size {
        Size {
            setup_repeats: 3,
            ingest_files: 4,
            ingest_file_blocks: 38,
            repair_files: 2,
            repair_file_blocks: 38,
            mr_nodes: 120,
            mr_locality_trials: 4,
        }
    }

    /// One stripe per file, a 20-node MapReduce cluster.
    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            setup_repeats: 1,
            ingest_files: 1,
            ingest_file_blocks: 1,
            repair_files: 1,
            repair_file_blocks: 1,
            mr_nodes: 20,
            mr_locality_trials: 1,
        }
    }
}

/// `target` data blocks rounded to the nearest whole number of `k`-block
/// stripes, at least one stripe.
pub fn whole_stripes(target: usize, k: usize) -> usize {
    ((target + k / 2) / k).max(1) * k
}

/// SplitMix64 of `seed ^ tag`: independent sub-seeds (payload, placement,
/// victims) from the one `--seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z =
        (seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fills `buf` with the SplitMix64 stream of `seed`: the payload bytes. (The
/// vendored ChaCha stand-in manages 0.1 GB/s; this does several.)
pub fn fill_payload(seed: u64, buf: &mut [u8]) {
    let mut state = seed;
    for chunk in buf.chunks_mut(8) {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let word = sub_seed(state, 0).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// The seeded bytes the byte workloads store: `files` regions of one common
/// stride, of which each code writes a whole-stripe prefix.
pub struct Payload {
    bytes: Vec<u8>,
    stride: usize,
    target_blocks: usize,
    pub files: usize,
}

impl Payload {
    /// `files` files of about `target_blocks` MiB each for `codes`.
    pub fn new(seed: u64, codes: &[Code], files: usize, target_blocks: usize) -> Payload {
        let stride = codes
            .iter()
            .map(|c| whole_stripes(target_blocks, c.k()))
            .max()
            .unwrap_or(1)
            * BLOCK;
        let mut bytes = vec![0u8; stride * files];
        fill_payload(seed, &mut bytes);
        Payload {
            bytes,
            stride,
            target_blocks,
            files,
        }
    }

    /// Bytes of each file of `code`: the target rounded to whole stripes.
    pub fn file_bytes(&self, code: &Code) -> usize {
        whole_stripes(self.target_blocks, code.k()) * BLOCK
    }

    /// The content of file `index` of `code`.
    pub fn file(&self, code: &Code, index: usize) -> &[u8] {
        &self.bytes[index * self.stride..][..self.file_bytes(code)]
    }
}

/// Which nodes fail when: a seeded order of the [`REPAIR_NODES`] nodes, of
/// which round `i` takes the window of `tolerance` nodes starting at
/// `i * tolerance` — every node's turn comes, whatever the seed.
pub struct Victims(Vec<NodeId>);

impl Victims {
    pub fn new(seed: u64) -> Victims {
        let mut order: Vec<NodeId> = (0..REPAIR_NODES).map(NodeId).collect();
        order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        Victims(order)
    }

    /// The `tolerance` victims of round `round`.
    pub fn round(&self, round: usize, tolerance: usize) -> Vec<NodeId> {
        (0..tolerance)
            .map(|j| self.0[(round * tolerance + j) % self.0.len()])
            .collect()
    }
}

/// Correctness checks attempted and failed, with the first few failures
/// spelled out.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// Descriptions of the first failures (capped).
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` is only rendered when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Wall and CPU time accumulated over the timed sections of one iteration.
/// The benchmark's own byte-compares run between sections and are not
/// charged to the product.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Meter {
    /// Host wall seconds inside timed sections.
    pub wall_s: f64,
    /// Process counters accumulated over the same sections.
    pub proc: ProcStat,
}

impl Meter {
    /// Runs `f` as a timed section.
    pub fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = procfs::stat();
        let start = Instant::now();
        let out = f();
        self.wall_s += start.elapsed().as_secs_f64();
        if let (Some(b), Some(a)) = (before, procfs::stat()) {
            let d = a.since(&b);
            self.proc.on_cpu_s += d.on_cpu_s;
            self.proc.user_s += d.user_s;
            self.proc.sys_s += d.sys_s;
            self.proc.minor_faults += d.minor_faults;
        }
        out
    }
}

/// The simulated (virtual-time, byte-exact) outputs of one iteration. They
/// do not depend on the host, so two commits compare exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Model {
    /// Σ simulated completion time, seconds.
    pub virtual_s: f64,
    /// Simulated network bytes moved.
    pub net_bytes: f64,
    /// User bytes the network bytes are relative to.
    pub user_bytes: f64,
    /// Bytes stored on DataNodes (0 when the workload stores none).
    pub stored_bytes: f64,
    /// User bytes the stored bytes are relative to.
    pub stored_user_bytes: f64,
    /// Task-weighted data locality in percent (0 without map tasks).
    pub locality_pct: f64,
}

impl Model {
    /// Simulated network bytes per user byte (0 when undefined).
    pub fn net_bytes_per_user_byte(&self) -> f64 {
        ratio(self.net_bytes, self.user_bytes)
    }

    /// Stored bytes per user byte (0 when undefined).
    pub fn stored_bytes_per_user_byte(&self) -> f64 {
        ratio(self.stored_bytes, self.stored_user_bytes)
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one iteration produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Iteration {
    /// Time charged to the product.
    pub meter: Meter,
    /// Work done, in the workload's unit.
    pub work: f64,
    /// Simulated outputs.
    pub model: Model,
    /// Every non-wall-clock output in a canonical text form; its FNV-1a
    /// hash is the workload's fingerprint.
    pub canon: String,
}

/// Self time per layer in seconds per iteration, as the layer replays
/// attribute it.
pub type Attribution = BTreeMap<&'static str, f64>;

/// One of the four workloads.
pub trait Workload {
    /// What `work_per_s` counts.
    fn work_unit(&self) -> &'static str;

    /// Whether every iteration repeats the first exactly (same inputs, fresh
    /// state), so their fingerprints must be equal.
    fn iterations_repeat(&self) -> bool;

    /// Runs iteration `iter` (0 is the warm-up).
    fn iterate(&mut self, iter: u32, checks: &mut Checks) -> Result<Iteration, Failure>;

    /// Replays the layers below the workload's entry layer with the shapes
    /// of one iteration and splits `top` — median seconds per iteration the
    /// traced spans spent in each entry layer — into self time per layer.
    fn attribute(&mut self, top: &Attribution) -> Result<Attribution, Failure>;
}

/// Seconds `f` took, or its error.
pub fn timed(f: impl FnOnce() -> Result<(), Failure>) -> Result<f64, Failure> {
    let start = Instant::now();
    f()?;
    Ok(start.elapsed().as_secs_f64())
}

/// FNV-1a (64-bit) of `text`, as 16 hex digits.
pub fn fingerprint(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_are_whole_stripes_near_the_target() {
        assert_eq!(whole_stripes(38, 1), 38);
        assert_eq!(whole_stripes(38, 9), 36);
        assert_eq!(whole_stripes(38, 10), 40);
        assert_eq!(whole_stripes(38, 20), 40);
        assert_eq!(whole_stripes(38, 40), 40);
        assert_eq!(whole_stripes(1, 40), 40);
    }

    #[test]
    fn sub_seeds_differ_by_tag_and_seed() {
        assert_ne!(sub_seed(2014, 1), sub_seed(2014, 2));
        assert_ne!(sub_seed(2014, 1), sub_seed(2015, 1));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }

    #[test]
    fn payload_depends_on_the_seed_and_fills_odd_lengths() {
        let (mut a, mut b, mut c) = ([0u8; 21], [0u8; 21], [0u8; 21]);
        fill_payload(1, &mut a);
        fill_payload(1, &mut b);
        fill_payload(2, &mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a[16..].iter().any(|&x| x != 0));
    }

    #[test]
    fn victim_windows_walk_a_permutation_of_the_nodes() {
        let v = Victims::new(9);
        let first: Vec<NodeId> = (0..REPAIR_NODES).flat_map(|i| v.round(i, 1)).collect();
        let mut sorted = first.clone();
        sorted.sort();
        assert_eq!(sorted, (0..REPAIR_NODES).map(NodeId).collect::<Vec<_>>());
        assert_eq!(v.round(0, 4), first[..4]);
        assert_eq!(v.round(4, 4), [first[1], first[2], first[3], first[4]]);
        assert_ne!(Victims::new(10).round(0, 15), v.round(0, 15));
    }

    #[test]
    fn payload_files_are_whole_stripe_prefixes_of_a_common_stride() {
        let codes = crate::surface::byte_codes().unwrap();
        let p = Payload::new(3, &codes, 2, 8);
        assert_eq!(p.file_bytes(&codes[0]), 8 * BLOCK);
        assert_eq!(p.file_bytes(&codes[1]), 9 * BLOCK);
        assert_eq!(p.file_bytes(&codes[3]), 40 * BLOCK);
        assert_eq!(p.file(&codes[1], 1)[..BLOCK], p.file(&codes[3], 1)[..BLOCK]);
        assert_ne!(p.file(&codes[0], 0), p.file(&codes[0], 1));
    }

    #[test]
    fn fingerprint_is_stable_fnv1a() {
        assert_eq!(fingerprint(""), "cbf29ce484222325");
        assert_eq!(fingerprint("a"), "af63dc4c8601ec8c");
        assert_ne!(fingerprint("ab"), fingerprint("ba"));
    }

    #[test]
    fn checks_count_and_keep_the_first_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!("not rendered when the check holds"));
        for i in 0..10 {
            c.check(false, || format!("bad {i}"));
        }
        assert_eq!((c.attempted, c.failed, c.notes.len()), (11, 10, 8));
    }

    #[test]
    fn meter_accumulates_sections() {
        let mut m = Meter::default();
        assert_eq!(m.run(|| 3), 3);
        let first = m.wall_s;
        m.run(|| std::hint::black_box((0..10_000).sum::<u64>()));
        assert!(m.wall_s >= first);
    }
}
