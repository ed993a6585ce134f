//! The product surface the benchmark binds to — every call into a product
//! crate is in this file, so a refactor of the product touches one file here.
//!
//! Bound on purpose (ROADMAP keeps them): `drc_bench::quick_repro_results`
//! and the twelve `experiments::*::run_*` drivers, `fig4::run_terasort_sweep`,
//! `harness::with_jobs`, `simulate_locality`, `provision_workload`,
//! `DistributedFileSystem::{new, write_file, read_file, sync, now, stats,
//! namenode, schedule_trace, process_events_until, process_all_events}`,
//! `FailureTrace`/`FailureEvent`, `StripeEncoder::encode`,
//! `StripeReconstructor::{plan, reconstruct_into}`, `ErasureCode` structural
//! queries and plans, `slice::{mul_acc, xor_assign, matrix_mul_into,
//! matrix_mul_batch}`, `ReedSolomon::{encode_into, reconstruct_into}`,
//! `bufpool::{take, recycle, hits, misses}`, `PlacementMap` queries,
//! `Resource`, `EventQueue`, `Transfer`, `pull_train`/`push_train`,
//! `Timeline::record`, `group_mttdl`, `monte_carlo_mttdl`.
//!
//! Avoided on purpose (ROADMAP plans to delete them): `run_job`/`run_job_on`,
//! `repair_nodes`, the allocating `ReedSolomon::encode`, `FailureScenario`,
//! `MapIndex`/`with_index_kind`/`DRC_BLOCK_INDEX`.
//!
//! Workload-level calls record a [`crate::trace`] span each. The fine-grained
//! operations the ledger probes loop over (`mul_acc`, `reserve_bytes`, …) are
//! plain `#[inline]` forwards: the probe wraps its whole loop in one span.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand_chacha::ChaCha8Rng;

use drc_core::cluster::{
    Cluster, FailureEvent, FailureEventKind, FailureTrace, GlobalBlockId, PlacementPolicy,
};
use drc_core::codes::{StripeEncoder, StripeReconstructor};
use drc_core::experiments::{self, harness, Effort};
use drc_core::gf::slice::{self, MatrixMulTask};
use drc_core::gf::{bufpool, kernel, Gf256, ReedSolomon};
use drc_core::hdfs::DistributedFileSystem;
use drc_core::mapreduce::{simulate_locality, LocalityConfig, SchedulerKind};
use drc_core::reliability::{group_mttdl, monte_carlo_mttdl, ReliabilityParams};
use drc_core::sim::{
    pull_train, push_train, ClusterNet, EventQueue, Resource, SimTime, Timeline, Transfer,
};
use drc_core::workloads::{provision_workload, LoadPoint, WorkloadKind};

use crate::trace::span;

pub use drc_bench::{json_f64, json_lookup};
pub use drc_core::cluster::{ClusterSpec, NodeId, PlacementMap};
pub use drc_core::codes::{CodeKind, ErasureCode};
pub use drc_core::experiments::fig4::TerasortSweep;
pub use drc_core::hdfs::{FileId, FsStats, RepairReport};
pub use drc_core::mapreduce::LocalityResult;
pub use serde_json::Value;

/// A product error, flattened to text: the benchmark only reports it.
pub type Failure = String;

fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> Failure {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------
// Codes
// ---------------------------------------------------------------------------

/// One coding scheme of a workload, with the facts the checks need.
#[derive(Clone)]
pub struct Code {
    /// The name used in metric names (`rep2`, `pentagon`, …).
    pub name: &'static str,
    /// The product's identifier.
    pub kind: CodeKind,
    /// The built code.
    pub code: Arc<dyn ErasureCode>,
    /// Stored blocks per stripe over data blocks per stripe, from the paper's
    /// Table 1 (RS(10,4): 14/10) — kept as the benchmark's own constant so
    /// the overhead check does not ask the product for the expected value.
    pub overhead: (u64, u64),
    /// Node failures the code survives whatever the pattern (Table 1's
    /// resiliency; the product can compute it, by brute force).
    pub tolerance: usize,
}

impl Code {
    fn new(
        name: &'static str,
        kind: CodeKind,
        overhead: (u64, u64),
        tolerance: usize,
    ) -> Result<Code, Failure> {
        Ok(Code {
            name,
            kind,
            code: kind.build().map_err(fail("build code"))?,
            overhead,
            tolerance,
        })
    }

    /// Data blocks per stripe.
    pub fn k(&self) -> usize {
        self.code.data_blocks()
    }
}

/// The five codes of the byte workloads (`ingest_read`, `fail_repair`).
pub fn byte_codes() -> Result<Vec<Code>, Failure> {
    Ok(vec![
        Code::new("rep2", CodeKind::TWO_REP, (2, 1), 1)?,
        Code::new("pentagon", CodeKind::Pentagon, (20, 9), 2)?,
        Code::new("heptagon", CodeKind::Heptagon, (42, 20), 2)?,
        Code::new("heptagon-local", CodeKind::HeptagonLocal, (86, 40), 3)?,
        Code::new(
            "rs-10-4",
            CodeKind::ReedSolomon {
                data: 10,
                parity: 4,
            },
            (14, 10),
            4,
        )?,
    ])
}

/// The five codes of the MapReduce workload: 3-rep takes RS(10,4)'s place
/// (a single-copy code has no second replica for a scheduler to use).
pub fn mr_codes() -> Result<Vec<Code>, Failure> {
    let mut codes = vec![Code::new("rep3", CodeKind::THREE_REP, (3, 1), 2)?];
    codes.extend(byte_codes()?.into_iter().take(4));
    Ok(codes)
}

// ---------------------------------------------------------------------------
// Process-wide state: pool widths, GF kernel, buffer pool
// ---------------------------------------------------------------------------

/// Runs `f` with the worker pool and the experiment harness both pinned to
/// one thread: the benchmark is one client, and on a 2-vCPU host wider
/// figures are time-slicing.
pub fn single_threaded<R>(f: impl FnOnce() -> R) -> R {
    rayon::with_num_threads(1, || harness::with_jobs(1, f))
}

/// Worker threads the product's pool has spawned so far (0 = none).
pub fn pool_workers() -> usize {
    rayon::pool_workers()
}

/// Name of the GF(2^8) kernel the product selected on this CPU.
pub fn gf_kernel() -> &'static str {
    kernel::active().name()
}

/// `(hits, misses)` of the process-wide block-buffer pool.
pub fn bufpool_counters() -> (u64, u64) {
    (bufpool::hits(), bufpool::misses())
}

/// One `take` + `recycle` cycle of a `len`-byte pooled buffer.
#[inline]
pub fn bufpool_cycle(len: usize) {
    bufpool::recycle(std::hint::black_box(bufpool::take(len)));
}

// ---------------------------------------------------------------------------
// hdfs
// ---------------------------------------------------------------------------

/// A simulated HDFS deployment. (`Option` only so that `Drop` can move the
/// file system out and drop it under a span.)
pub struct Fs(Option<DistributedFileSystem>);

/// The paper's 25-node simulation cluster with 1 MiB blocks.
pub fn spec_sim25() -> ClusterSpec {
    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = 1;
    spec
}

/// A `nodes`-node, 3-rack cluster with 1 MiB blocks.
pub fn spec_small(nodes: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::custom(nodes, 3, 4);
    spec.block_size_mb = 1;
    spec
}

/// A datacenter-scale cluster (racks of 40, 4 map slots per node).
pub fn spec_datacenter(nodes: usize) -> ClusterSpec {
    ClusterSpec::datacenter(nodes)
}

impl Fs {
    /// `DistributedFileSystem::new`.
    pub fn new(spec: ClusterSpec, seed: u64, arg: &str) -> Fs {
        span("hdfs", "DistributedFileSystem::new", arg, || {
            Fs(Some(DistributedFileSystem::new(spec, seed)))
        })
    }

    fn fs(&self) -> &DistributedFileSystem {
        self.0.as_ref().expect("present until drop")
    }

    fn fs_mut(&mut self) -> &mut DistributedFileSystem {
        self.0.as_mut().expect("present until drop")
    }

    /// `write_file`.
    pub fn write_file(&mut self, name: &str, data: &[u8], code: &Code) -> Result<FileId, Failure> {
        span("hdfs", "write_file", code.name, || {
            self.fs_mut().write_file(name, data, code.kind)
        })
        .map_err(fail("write_file"))
    }

    /// `read_file` (degraded reads happen inside when replicas are gone).
    pub fn read_file(&mut self, id: FileId, arg: &str) -> Result<Vec<u8>, Failure> {
        span("hdfs", "read_file", arg, || self.fs_mut().read_file(id)).map_err(fail("read_file"))
    }

    /// `sync`: advances the virtual clock past everything in flight and
    /// returns the new instant in virtual nanoseconds.
    pub fn sync_ns(&mut self) -> u64 {
        span("hdfs", "sync", "", || self.fs_mut().sync().0)
    }

    /// The current virtual instant in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.fs().now().0
    }

    /// `stats`.
    pub fn stats(&self) -> FsStats {
        span("hdfs", "stats", "", || self.fs().stats())
    }

    /// Fail-stops `victims` now through the trace path: a `FailureTrace` of
    /// `NodeDown` events at the current instant is scheduled and the engine
    /// driven up to that instant, so the nodes are wiped and dark but their
    /// detection boundary (one detection timeout later) is still pending.
    pub fn fail_now(&mut self, victims: &[NodeId], arg: &str) -> Result<(), Failure> {
        let at = self.fs().now();
        let trace = FailureTrace::from_events(
            victims
                .iter()
                .map(|&node| FailureEvent::at_ns(at.0, FailureEventKind::NodeDown { node }))
                .collect(),
        );
        span("hdfs", "schedule_trace", arg, || {
            self.fs_mut().schedule_trace(&trace)
        });
        span("hdfs", "process_events_until", arg, || {
            self.fs_mut().process_events_until(at)
        })
        .map(drop)
        .map_err(fail("process_events_until"))
    }

    /// `process_all_events`: the pending detection boundaries fire and the
    /// RaidNode's auto-repair passes run; returns their reports.
    pub fn detect_and_repair(&mut self, arg: &str) -> Result<Vec<RepairReport>, Failure> {
        span("hdfs", "process_all_events", arg, || {
            self.fs_mut().process_all_events()
        })
        .map_err(fail("process_all_events"))
    }

    /// Per stripe of file `id`: the stripe-local indices of the hosts that
    /// are in `victims` (empty when the stripe is untouched). Read from the
    /// NameNode's metadata; used to replay the layers below with the shapes
    /// the failure actually produced.
    pub fn failed_locals(
        &self,
        id: FileId,
        victims: &[NodeId],
    ) -> Result<Vec<BTreeSet<usize>>, Failure> {
        let meta = self.fs().namenode().file(id).map_err(fail("file"))?;
        (0..meta.stripes)
            .map(|stripe| {
                let hosts = meta
                    .placement
                    .stripe_hosts(stripe)
                    .map_err(fail("stripe_hosts"))?;
                Ok(hosts
                    .as_slice()
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| victims.contains(n))
                    .map(|(local, _)| local)
                    .collect())
            })
            .collect()
    }
}

impl Drop for Fs {
    fn drop(&mut self) {
        // Dropping the DataNodes recycles every block buffer into the pool:
        // product work, so it is a span like any other call.
        span("hdfs", "drop", "", || drop(self.0.take()));
    }
}

// ---------------------------------------------------------------------------
// core experiments, mapreduce, workloads, reliability
// ---------------------------------------------------------------------------

/// `drc_bench::quick_repro_results()`: all twelve experiments at quick
/// effort, as `(name, JSON)` pairs.
pub fn quick_repro() -> Result<Vec<(&'static str, Value)>, Failure> {
    span(
        "core",
        "quick_repro_results",
        "",
        drc_bench::quick_repro_results,
    )
    .map_err(fail("quick_repro_results"))
}

/// The experiment names `quick_repro` returns, in order.
pub fn experiment_names() -> &'static [&'static str] {
    drc_bench::EXPERIMENTS
}

/// The same twelve runs as [`quick_repro`], one span each, so a traced
/// iteration shows where the quick repro's time goes. The configurations
/// mirror `drc_bench::quick_repro_results` (crates/bench/src/lib.rs); a unit
/// test holds the two to the same fingerprint.
pub fn quick_repro_by_experiment() -> Result<Vec<(&'static str, Value)>, Failure> {
    use experiments::{
        degraded_mr::run_degraded_mr, encoding::run_encoding, failure_trace::run_failure_trace,
        fig3::run_fig3, fig4::run_fig4, fig5::run_fig5, metadata_scale::run_metadata_scale,
        overlap::run_overlap, repair_bandwidth::run_repair_bandwidth,
        repair_pipeline::run_repair_pipeline, shuffle_contention::run_shuffle_contention,
        table1::run_table1,
    };
    let effort = Effort::Quick;
    let (ft_block, ft_tasks) = drc_bench::FAILURE_TRACE_QUICK;
    let (rp_block, rp_stripes, rp_chunks) = drc_bench::REPAIR_PIPELINE_QUICK;
    let mut out = Vec::with_capacity(12);
    macro_rules! run {
        ($name:literal, $call:expr) => {
            let result = span("core", "experiment", $name, || $call)
                .map_err(|e| format!("{}: {e}", $name))?;
            out.push((
                $name,
                serde_json::to_value(&result).map_err(fail("serialise"))?,
            ));
        };
    }
    run!("table1", run_table1(&ReliabilityParams::default()));
    run!("repair_bw", run_repair_bandwidth());
    run!("fig3", run_fig3(effort));
    run!("fig4", run_fig4(effort));
    run!("fig5", run_fig5(effort));
    run!("encoding", run_encoding(1024 * 1024, 8));
    run!("degraded_mr", run_degraded_mr(effort));
    run!("overlap", run_overlap(1024 * 1024, 2));
    run!(
        "shuffle_contention",
        run_shuffle_contention(1024 * 1024, 100)
    );
    run!("failure_trace", run_failure_trace(ft_block, ft_tasks));
    run!("metadata_scale", run_metadata_scale(effort));
    run!(
        "repair_pipeline",
        run_repair_pipeline(rp_block, rp_stripes, rp_chunks)
    );
    Ok(out)
}

/// `run_terasort_sweep`: Terasort through the MapReduce engine for `codes`
/// at one load on `spec`, 10 trials per code at quick effort. The engine's
/// rngs are derived inside the product from its own `DEFAULT_SEED`.
pub fn terasort_sweep(
    spec: ClusterSpec,
    codes: &[Code],
    load_percent: f64,
) -> Result<TerasortSweep, Failure> {
    let kinds = codes.iter().map(|c| c.kind).collect();
    span("core", "run_terasort_sweep", "", || {
        experiments::fig4::run_terasort_sweep(
            "benchmark",
            spec,
            kinds,
            vec![LoadPoint::new(load_percent)],
            Effort::Quick,
        )
    })
    .map_err(fail("run_terasort_sweep"))
}

/// Trials per `(code, load)` point of [`terasort_sweep`] at quick effort
/// (`Effort::Quick.trials() / 3`, as `run_terasort_sweep` derives it).
pub fn terasort_trials() -> usize {
    (Effort::Quick.trials() / 3).max(5)
}

/// The task schedulers by the name used in metric names.
pub fn schedulers() -> [(&'static str, SchedulerKind); 3] {
    [
        ("delay", SchedulerKind::Delay),
        ("max-matching", SchedulerKind::MaxMatching),
        ("peeling", SchedulerKind::Peeling),
    ]
}

/// `simulate_locality`: `trials` random placements of `code` on `spec`,
/// each assigned by `scheduler`.
pub fn locality(
    code: &Code,
    scheduler: (&'static str, SchedulerKind),
    spec: ClusterSpec,
    load_percent: f64,
    trials: usize,
    seed: u64,
) -> Result<LocalityResult, Failure> {
    let config = LocalityConfig {
        code: code.kind,
        scheduler: scheduler.1,
        cluster: spec,
        load_percent,
        trials,
        seed,
    };
    span("mapreduce", "simulate_locality", scheduler.0, || {
        simulate_locality(&config)
    })
    .map_err(fail("simulate_locality"))
}

/// `provision_workload`: places a Terasort input of `load_percent` on a
/// fresh cluster of `spec`; returns `(map tasks, reduce tasks, stripes)`.
pub fn provision_terasort(
    code: &Code,
    spec: &ClusterSpec,
    load_percent: f64,
    rng: &mut ChaCha8Rng,
) -> Result<(usize, usize, usize), Failure> {
    let cluster = Cluster::new(spec.clone());
    let w = span("workloads", "provision_workload", code.name, || {
        provision_workload(
            WorkloadKind::Terasort,
            code.kind,
            &cluster,
            load_percent,
            rng,
        )
    })
    .map_err(fail("provision_workload"))?;
    Ok((
        w.job.map_tasks().len(),
        w.job.reduce_tasks(),
        w.placement.stripe_count(),
    ))
}

/// `group_mttdl` for `code` under the default calibration; returns years.
pub fn markov_mttdl_years(code: &Code) -> Result<f64, Failure> {
    group_mttdl(code.code.as_ref(), &ReliabilityParams::default())
        .map(|r| r.mttdl_years)
        .map_err(fail("group_mttdl"))
}

/// `monte_carlo_mttdl`: `runs` failure/repair histories until data loss;
/// returns mean years. Under the default calibration (5-year MTTF, 1.2 h
/// repairs) one history is ~10^8 events, so — like the product's own tests —
/// this uses failure-prone parameters (100 h MTTF, 40 h repairs) under which
/// a history ends after a handful.
pub fn montecarlo_mttdl_years(code: &Code, runs: usize, seed: u64) -> f64 {
    let params = ReliabilityParams {
        node_mttf_hours: 100.0,
        node_repair_hours: 40.0,
        ..ReliabilityParams::default()
    };
    monte_carlo_mttdl(code.code.as_ref(), &params, runs, seed).mean_years
}

// ---------------------------------------------------------------------------
// codes
// ---------------------------------------------------------------------------

/// A reusable `StripeEncoder`.
#[derive(Default)]
pub struct Encoder(StripeEncoder);

impl Encoder {
    /// `StripeEncoder::encode`: the parities of one stripe of `k` equal data
    /// blocks; returns the number of parity blocks produced.
    #[inline]
    pub fn encode(&mut self, code: &Code, stripe: &[&[u8]]) -> Result<usize, Failure> {
        self.0
            .encode(code.code.as_ref(), stripe)
            .map(|p| std::hint::black_box(p).len())
            .map_err(fail("encode"))
    }
}

/// The row-major `(distinct − k) × k` parity coefficient matrix of `code`:
/// the shape (and values) `StripeEncoder::encode` hands to
/// `slice::matrix_mul_into`.
pub fn parity_matrix(code: &Code) -> Vec<Gf256> {
    let s = code.code.structure();
    s.generator
        .rows_flat(s.data_blocks, code.code.distinct_blocks())
        .to_vec()
}

/// What a failure of stripe-local nodes `failed` costs one stripe of `code`:
/// the blocks that lost every replica, each data block among them (a
/// degraded read rebuilds those one by one), and the repair plan's transfer
/// and destination counts.
pub struct StripeLoss {
    /// Distinct blocks with no surviving replica, ascending.
    pub lost: Vec<usize>,
    /// Distinct blocks with at least one surviving replica.
    pub available: BTreeSet<usize>,
    /// Helper transfers the code's repair plan moves (network blocks).
    pub repair_transfers: usize,
    /// Replica slots the repair writes back.
    pub repair_stores: usize,
}

/// `ErasureCode::repair_plan` + layout queries for one failure pattern.
pub fn stripe_loss(code: &Code, failed: &BTreeSet<usize>) -> Result<StripeLoss, Failure> {
    let layout = &code.code.structure().layout;
    let plan = code.code.repair_plan(failed).map_err(fail("repair_plan"))?;
    Ok(StripeLoss {
        lost: layout.fully_lost_blocks(failed).into_iter().collect(),
        available: layout.surviving_blocks(failed),
        repair_transfers: plan.transfers.len(),
        repair_stores: failed.iter().map(|&n| code.code.node_blocks(n).len()).sum(),
    })
}

/// Helper transfers of `ErasureCode::degraded_read_plan` for `block`.
pub fn degraded_read_fetches(
    code: &Code,
    block: usize,
    failed: &BTreeSet<usize>,
) -> Result<usize, Failure> {
    code.code
        .degraded_read_plan(block, failed)
        .map(|p| p.network_blocks)
        .map_err(fail("degraded_read_plan"))
}

/// A solved reconstruction (`StripeReconstructor::plan`).
pub struct Reconstructor(StripeReconstructor);

impl Reconstructor {
    /// `StripeReconstructor::plan`: solve for `targets` from `available`.
    #[inline]
    pub fn plan(
        code: &Code,
        available: &BTreeSet<usize>,
        targets: &[usize],
    ) -> Result<Reconstructor, Failure> {
        StripeReconstructor::plan(code.code.structure(), available, targets)
            .map(Reconstructor)
            .map_err(fail("plan"))
    }

    /// Number of source blocks the rebuild reads.
    pub fn sources(&self) -> usize {
        self.0.sources().len()
    }

    /// Number of blocks the rebuild produces.
    pub fn targets(&self) -> usize {
        self.0.targets().len()
    }

    /// The `targets × sources` coefficient matrix.
    pub fn coefficients(&self) -> &[Gf256] {
        self.0.coefficients()
    }

    /// `reconstruct_into`.
    #[inline]
    pub fn reconstruct_into(&self, sources: &[&[u8]], outs: &mut [Vec<u8>]) {
        self.0.reconstruct_into(sources, outs);
    }
}

// ---------------------------------------------------------------------------
// gf
// ---------------------------------------------------------------------------

/// A nonzero field element for probe coefficients.
pub fn gf(value: u8) -> Gf256 {
    Gf256::new(value)
}

/// `slice::mul_acc`.
#[inline]
pub fn mul_acc(dst: &mut [u8], src: &[u8], coeff: Gf256) {
    slice::mul_acc(dst, src, coeff);
}

/// `slice::xor_assign`.
#[inline]
pub fn xor_assign(dst: &mut [u8], src: &[u8]) {
    slice::xor_assign(dst, src);
}

/// `slice::matrix_mul_into`.
#[inline]
pub fn matrix_mul_into(coeffs: &[Gf256], k: usize, blocks: &[&[u8]], outs: &mut [Vec<u8>]) {
    slice::matrix_mul_into(coeffs, k, blocks, outs);
}

/// `slice::matrix_mul_batch` over `outs.len()` tasks that all apply the
/// `rows × k` matrix `coeffs` to the same `sources` (the repair pass's
/// cross-stripe wave: one fused dispatch for many stripes).
pub fn matrix_mul_batch(coeffs: &[Gf256], k: usize, sources: &[&[u8]], outs: &mut [Vec<Vec<u8>>]) {
    let mut tasks: Vec<MatrixMulTask<'_>> = outs
        .iter_mut()
        .map(|o| MatrixMulTask {
            coeffs,
            k,
            sources: sources.to_vec(),
            outs: o.iter_mut().map(|b| &mut b[..]).collect(),
        })
        .collect();
    slice::matrix_mul_batch(&mut tasks);
}

/// A systematic Reed–Solomon codec.
pub struct Rs(ReedSolomon);

impl Rs {
    /// `ReedSolomon::new`.
    pub fn new(data: usize, parity: usize) -> Result<Rs, Failure> {
        ReedSolomon::new(data, parity)
            .map(Rs)
            .map_err(fail("ReedSolomon::new"))
    }

    /// `encode_into`.
    #[inline]
    pub fn encode_into(&self, shards: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<(), Failure> {
        self.0
            .encode_into(shards, parity)
            .map_err(fail("encode_into"))
    }

    /// `reconstruct_into`.
    #[inline]
    pub fn reconstruct_into(
        &self,
        present: &[Option<&[u8]>],
        len: usize,
        out: &mut [Vec<u8>],
    ) -> Result<(), Failure> {
        self.0
            .reconstruct_into(present, len, out)
            .map_err(fail("reconstruct_into"))
    }
}

// ---------------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------------

/// `PlacementMap::place`: `stripes` stripes of `code` placed uniformly at
/// random on a fresh cluster of `spec`.
pub fn place(
    code: &Code,
    spec: &ClusterSpec,
    stripes: usize,
    rng: &mut ChaCha8Rng,
) -> Result<PlacementMap, Failure> {
    let cluster = Cluster::new(spec.clone());
    PlacementMap::place(
        code.code.as_ref(),
        &cluster,
        stripes,
        PlacementPolicy::Random,
        rng,
    )
    .map_err(fail("place"))
}

/// `PlacementMap::locations` for every `(stripe, block)` in turn; returns the
/// number of replica locations seen.
pub fn lookup_all(placement: &PlacementMap) -> Result<usize, Failure> {
    let mut replicas = 0;
    for stripe in 0..placement.stripe_count() {
        for block in 0..placement.distinct_blocks_per_stripe() {
            replicas += placement
                .locations(GlobalBlockId::new(stripe, block))
                .map_err(fail("locations"))?
                .as_slice()
                .len();
        }
    }
    Ok(replicas)
}

/// `for_each_block_on_node` over every node, as a repair pass planning that
/// node's loss walks it; returns the blocks scanned.
pub fn scan_all_nodes(placement: &PlacementMap) -> Result<usize, Failure> {
    let mut scanned = 0usize;
    for node in 0..placement.node_universe() {
        placement
            .for_each_block_on_node(NodeId(node), |_| scanned += 1)
            .map_err(fail("for_each_block_on_node"))?;
    }
    Ok(scanned)
}

/// `for_each_stripe_on_node` for one node; returns the stripes visited.
pub fn scan_node_stripes(placement: &PlacementMap, node: NodeId) -> Result<usize, Failure> {
    let mut visited = 0usize;
    placement
        .for_each_stripe_on_node(node, |_, _| visited += 1)
        .map_err(fail("for_each_stripe_on_node"))?;
    Ok(visited)
}

/// `FailureTrace::poisson`: up to `max_failures` arrivals on `spec`; returns
/// the number of events generated.
pub fn poisson_trace(spec: &ClusterSpec, max_failures: usize, rng: &mut ChaCha8Rng) -> usize {
    let cluster = Cluster::new(spec.clone());
    FailureTrace::poisson(&cluster, 3600.0, 1e9, max_failures, rng).len()
}

// ---------------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------------

/// The per-node disks and NICs plus the shared fabric of one cluster.
pub struct Net(ClusterNet);

impl Net {
    /// `ClusterNet::new`.
    pub fn new(spec: &ClusterSpec) -> Net {
        Net(ClusterNet::new(spec))
    }

    /// `Transfer::new(fabric, bytes).via(src NIC).via(dst NIC).issue(now)`.
    #[inline]
    pub fn transfer(&self, now_ns: u64, from: NodeId, to: NodeId, bytes: u64) -> u64 {
        Transfer::new(self.0.fabric(), bytes)
            .via(&self.0.node(from).nic)
            .via(&self.0.node(to).nic)
            .issue(SimTime(now_ns))
            .reservation
            .end
            .0
    }

    /// `pull_train`: `sizes` chunks streamed out of `from`; returns the last
    /// chunk's completion.
    #[inline]
    pub fn pull_train(&self, now_ns: u64, from: NodeId, sizes: &[u64]) -> u64 {
        pull_train(SimTime(now_ns), self.0.node(from), self.0.fabric(), sizes)
            .last()
            .map_or(now_ns, |t| t.0)
    }

    /// `push_train`: `sizes` chunks, all available at `now_ns`, streamed into
    /// `to`; returns the last chunk's completion.
    #[inline]
    pub fn push_train(&self, now_ns: u64, to: NodeId, sizes: &[u64]) -> u64 {
        let starts = vec![SimTime(now_ns); sizes.len()];
        push_train(&starts, self.0.node(to), self.0.fabric(), sizes)
            .last()
            .map_or(now_ns, |t| t.0)
    }
}

/// A single `Resource` (a map slot, a disk).
pub struct Pipe(Resource);

impl Pipe {
    /// `Resource::new` at `mib_s` MiB/s.
    pub fn new(mib_s: f64) -> Pipe {
        Pipe(Resource::new(mib_s))
    }

    /// `reserve_bytes`; returns the granted end instant.
    #[inline]
    pub fn reserve_bytes(&self, now_ns: u64, bytes: u64) -> u64 {
        self.0.reserve_bytes(SimTime(now_ns), bytes).end.0
    }
}

/// `EventQueue`: schedules `times` (ns) and pops them all back in time
/// order; returns the number popped.
pub fn event_queue_roundtrip(times: &[u64]) -> usize {
    let mut q: EventQueue<u32> = EventQueue::new();
    for (i, &t) in times.iter().enumerate() {
        q.schedule_at(SimTime(t), i as u32);
    }
    let mut popped = 0;
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

/// `Timeline::record` × `n` with a formatted label, as the file system
/// records one phase per block operation; returns the phases recorded.
pub fn timeline_records(n: usize) -> usize {
    let mut timeline = Timeline::new();
    for i in 0..n {
        timeline.record(
            format!("repair:f0:s{i}"),
            SimTime(i as u64),
            SimTime(i as u64 + 1),
            1,
        );
    }
    timeline.phases.len()
}

/// `PlacementMap::heap_bytes` per stored distinct block: the index's memory
/// cost, as the `metadata_scale` experiment defines it.
pub fn index_bytes_per_block(placement: &PlacementMap) -> f64 {
    let blocks = placement.stripe_count() * placement.distinct_blocks_per_stripe();
    placement.heap_bytes() as f64 / blocks as f64
}

// ---------------------------------------------------------------------------
// Provenance helpers the product's bench crate already has
// ---------------------------------------------------------------------------

pub use drc_bench::{git_sha, host_cpus};
