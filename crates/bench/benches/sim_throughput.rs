//! Event-driven substrate, shard-parallel encode and metadata-plane
//! benchmarks.
//!
//! Five groups:
//!
//! * `sim_stripe_encode` — production stripe-encode throughput (the
//!   HDFS-RAID write path: `StripeEncoder` over `encode_into`) at one worker
//!   thread versus the full pool, for an RS(10,4) stripe and the GF-heavy
//!   heptagon-local stripe,
//! * `sim_reconstruct` — worst-case Reed–Solomon reconstruction, single vs
//!   multi-thread,
//! * `pool_dispatch` — nanoseconds per `rayon::scope` round-trip through
//!   the persistent worker pool at widths 1/2/N, next to the per-call
//!   `std::thread::scope` spawn the old pool paid (the baseline the pool
//!   must beat for the lowered `PAR_MIN_LEN` to make sense),
//! * `sim_substrate` — the discrete-event machinery itself (event queue
//!   churn, timed cluster transfers), in operations per second,
//! * `metadata` — the placement index at datacenter scale (a 1000-node
//!   2-rep placement of 500k blocks): point lookups and full reverse
//!   repair scans per second.
//!
//! `repro` mode additionally stamps `meta_bytes_per_block` measured with a
//! counting global allocator — resident bytes the index build actually
//! held onto, per distinct block — plus the lookup and repair-scan rates,
//! all gated or tracked by `check_speedup`. It also times the full quick-effort repro through the
//! cell harness at 1 job versus the default width (`repro_wall_s`,
//! `repro_serial_wall_s`, `repro_cell_speedup`), asserting the results are
//! identical at both widths for every experiment without wall-clock fields.
//! Finally it stamps the MapReduce scheduling plane on the shape the repo's
//! benchmark sweeps (`datacenter(120)` at 400 % load): `mr_tasks_per_s`
//! (map tasks per wall second through `JobRun`), `delay_assign_ns_per_task`
//! (`DelayScheduler::assign` per placed task) and `transfer_issue_ns` (one
//! shuffle-fetch-shaped `Transfer`) — present and positive on every host,
//! per `check_speedup`.
//!
//! Run with a `repro` argument (`cargo bench -p drc_bench --bench
//! sim_throughput -- repro`) to emit `BENCH_sim.json`: provenance (git SHA,
//! GF kernel, thread count, bench-host CPU count), bytes/sec per
//! configuration, the measured multi-thread speedup, the pool dispatch
//! costs, and the virtual-time contention headlines (shuffle∩repair
//! slowdown, the live failure-trace slowdown and repair∩job overlap, and
//! the streaming-repair pipelined/serial ratio per code), so the
//! parallel-encode and contention trajectories are tracked across
//! PRs. On a
//! single-core host the forced 2-thread point oversubscribes one core, so
//! the recorded speedup is honestly <= 1.0 — `provenance.host_cpus` lets
//! the `check_speedup` gate tell that apart from a real multi-core
//! measurement; only multi-core hosts show the real scaling.

use criterion::{criterion_group, Criterion, Throughput};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use drc_cluster::{Cluster, ClusterSpec, GlobalBlockId, NodeId, PlacementMap, PlacementPolicy};
use drc_codes::{CodeKind, StripeEncoder};
use drc_core::mapreduce::{DelayScheduler, JobRun, TaskNodeGraph, TaskScheduler};
use drc_core::workloads::{provision_workload, WorkloadKind};
use drc_gf::kernel;
use drc_sim::{ClusterNet, EventQueue, SimTime, Transfer};
use drc_testalloc::{close_window, open_window, CountingAlloc, Threads};

// The `meta_bytes_per_block` headline reports bytes the allocator actually
// handed out for the placement index, not the index's own (floor-estimate)
// accounting. Only the thread that opens a window counts, so criterion
// timers and the rayon pool cannot skew the measurement.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Shard/block size for the encode benches: large enough that the parallel
/// split engages (several `PAR_MIN_LEN`s per worker).
const BLOCK: usize = 1024 * 1024;

fn make_block(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + salt * 7 + 3) as u8).collect()
}

/// The worker counts to benchmark: always 1, plus the configured pool width
/// when it exceeds 1.
fn thread_points() -> Vec<usize> {
    let n = rayon::current_num_threads();
    if n > 1 {
        vec![1, n]
    } else {
        vec![1, 2]
    }
}

fn bench_stripe_encode(c: &mut Criterion) {
    for kind in [
        CodeKind::ReedSolomon {
            data: 10,
            parity: 4,
        },
        CodeKind::HeptagonLocal,
    ] {
        let code = kind.build().expect("code builds");
        let k = code.data_blocks();
        let data: Vec<Vec<u8>> = (0..k).map(|i| make_block(BLOCK, i)).collect();
        let mut group = c.benchmark_group(format!("sim_stripe_encode/{kind}"));
        group.throughput(Throughput::Bytes((k * BLOCK) as u64));
        for threads in thread_points() {
            let mut encoder = StripeEncoder::new();
            group.bench_function(format!("threads={threads}"), |b| {
                rayon::with_num_threads(threads, || {
                    b.iter(|| encoder.encode(code.as_ref(), &data).expect("encodes").len())
                })
            });
        }
        group.finish();
    }
}

fn bench_reconstruct(c: &mut Criterion) {
    let rs = drc_gf::ReedSolomon::new(10, 4).expect("valid parameters");
    let data: Vec<Vec<u8>> = (0..10).map(|i| make_block(BLOCK, i)).collect();
    let mut parity = vec![vec![0u8; BLOCK]; 4];
    rs.encode_into(&data, &mut parity).expect("encodes");
    let coded: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
    // Worst case: the first 4 (data) shards are lost.
    let present: Vec<Option<&[u8]>> = coded
        .iter()
        .enumerate()
        .map(|(i, s)| (i >= 4).then_some(s.as_slice()))
        .collect();
    let mut group = c.benchmark_group("sim_reconstruct/rs(10,4)");
    group.throughput(Throughput::Bytes((10 * BLOCK) as u64));
    for threads in thread_points() {
        let mut out = vec![vec![0u8; BLOCK]; 14];
        group.bench_function(format!("threads={threads}"), |b| {
            rayon::with_num_threads(threads, || {
                b.iter(|| {
                    rs.reconstruct_into(&present, BLOCK, &mut out)
                        .expect("reconstructs")
                })
            })
        });
    }
    group.finish();
}

/// The widths the pool-dispatch microbench measures: 1 (inline path), 2,
/// and the full pool (at least 4 so the queue handoff is exercised even on
/// narrow hosts — the pool happily oversubscribes).
fn dispatch_widths() -> Vec<usize> {
    vec![1, 2, rayon::current_num_threads().max(4)]
}

fn bench_pool_dispatch(c: &mut Criterion) {
    // Cost of one `rayon::scope` round-trip with trivial tasks: this is the
    // pure dispatch overhead (queue push + condvar wake + completion latch)
    // that bounds how small PAR_MIN_LEN can go. The `thread_scope_spawn`
    // baseline is what the old per-call `std::thread::scope` pool paid for
    // every dispatch; the persistent pool must sit well below it.
    let mut group = c.benchmark_group("pool_dispatch");
    for width in dispatch_widths() {
        group.bench_function(format!("scope/threads={width}"), |b| {
            rayon::with_num_threads(width, || {
                b.iter(|| {
                    rayon::scope(|s| {
                        for _ in 0..width {
                            s.spawn(|_| {
                                criterion::black_box(());
                            });
                        }
                    })
                })
            })
        });
    }
    group.bench_function("thread_scope_spawn_baseline", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                let h = s.spawn(|| criterion::black_box(0u64));
                h.join().expect("baseline thread joins")
            })
        })
    });
    group.finish();
}

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_substrate");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("event_queue_1024", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1024u64 {
                // Reversed times exercise the heap, equal times the FIFO path.
                q.schedule_at(SimTime(1024 - (i % 512)), i);
            }
            let mut popped = 0u64;
            while q.pop().is_some() {
                popped += 1;
            }
            popped
        })
    });
    group.bench_function("cluster_transfers_1024", |b| {
        let spec = ClusterSpec::simulation_25(4);
        b.iter(|| {
            let net = ClusterNet::new(&spec);
            let mut end = SimTime::ZERO;
            for i in 0..1024usize {
                let r = net.transfer(
                    SimTime::ZERO,
                    NodeId(i % 25),
                    NodeId((i + 7) % 25),
                    128 << 20,
                );
                end = end.max(r.end);
            }
            end
        })
    });
    group.finish();
}

/// The metadata-plane headline configuration: 2-rep (the paper's baseline
/// and the worst arena bytes/block ratio of the built-in codes) over a
/// datacenter cluster. `(nodes, stripes, lookups)`.
const META_CONFIG: (usize, usize, usize) = (1000, 500_000, 200_000);

/// Builds a 2-rep placement of the headline size, returning it plus the
/// allocator-measured resident bytes of the build.
fn build_meta_placement() -> (PlacementMap, isize) {
    let (nodes, stripes, _) = META_CONFIG;
    let code = CodeKind::TWO_REP.build().expect("code builds");
    let cluster = Cluster::new(ClusterSpec::datacenter(nodes));
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_2014);
    open_window(Threads::Current, 0);
    let placement = PlacementMap::place(
        code.as_ref(),
        &cluster,
        stripes,
        PlacementPolicy::RoundRobin,
        &mut rng,
    )
    .expect("placement fits the datacenter cluster");
    let resident = close_window().live;
    assert!(resident > 0, "a fresh index must hold live memory");
    (placement, resident)
}

/// One pass of the point-lookup workload: a Weyl sequence over the block
/// space, summing replica-list lengths so the lookups cannot be elided.
fn meta_lookup_pass(placement: &PlacementMap, lookups: usize) -> usize {
    let stripes = placement.stripe_count();
    let distinct = placement.distinct_blocks_per_stripe();
    let mut replica_sum = 0usize;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..lookups {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let stripe = (x >> 32) as usize % stripes;
        let block = (x as u32) as usize % distinct;
        replica_sum += placement
            .locations(GlobalBlockId::new(stripe, block))
            .expect("in-range block")
            .len();
    }
    replica_sum
}

/// One pass of the repair-scan workload: every node's reverse index walked
/// in full, exactly as a repair pass planning that node's loss would.
fn meta_scan_pass(placement: &PlacementMap) -> usize {
    let mut scanned = 0usize;
    for node in 0..placement.node_universe() {
        placement
            .for_each_block_on_node(NodeId(node), |_| scanned += 1)
            .expect("in-universe node");
    }
    scanned
}

fn bench_metadata(c: &mut Criterion) {
    let (_, _, lookups) = META_CONFIG;
    let (placement, _) = build_meta_placement();
    let mut group = c.benchmark_group("metadata");
    group.throughput(Throughput::Elements(lookups as u64));
    group.bench_function("lookups", |b| {
        b.iter(|| meta_lookup_pass(&placement, lookups))
    });
    let total_blocks = placement.stripe_count() * placement.distinct_blocks_per_stripe();
    group.throughput(Throughput::Elements(total_blocks as u64));
    group.bench_function("repair_scan", |b| b.iter(|| meta_scan_pass(&placement)));
    group.finish();
}

criterion_group!(
    benches,
    bench_stripe_encode,
    bench_reconstruct,
    bench_pool_dispatch,
    bench_substrate,
    bench_metadata
);

// ---------------------------------------------------------------------------
// `repro` mode: machine-readable substrate + parallel-encode numbers.
// ---------------------------------------------------------------------------

fn bps(criterion: &Criterion, id: &str) -> Option<f64> {
    criterion
        .measurements()
        .iter()
        .find(|m| m.id == id)
        .and_then(|m| m.bytes_per_sec())
}

fn ns(criterion: &Criterion, id: &str) -> Option<f64> {
    criterion
        .measurements()
        .iter()
        .find(|m| m.id == id)
        .map(|m| m.ns_per_iter)
        .filter(|v| v.is_finite())
}

fn float_value(v: Option<f64>) -> serde_json::Value {
    match v {
        Some(x) => serde_json::Value::Float(x),
        None => serde_json::Value::Null,
    }
}

/// The MapReduce scheduling plane's wall-clock headlines:
/// `(mr_tasks_per_s, delay_assign_ns_per_task, transfer_issue_ns)`.
///
/// Measured on the shape the repo's benchmark sweeps (`mr_sweep`: Terasort
/// at 400 % load on `datacenter(120)`, delay scheduling), so a change to
/// the schedulers, the engine's slot tables or `Transfer` moves these and
/// the benchmark together.
fn mr_ledger() -> (f64, f64, f64) {
    const ROUNDS: usize = 10;
    const TRANSFERS: usize = 200_000;
    let spec = ClusterSpec::datacenter(120);
    let cluster = Cluster::new(spec.clone());
    let scheduler = DelayScheduler::default();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_2014);

    // Engine: whole jobs, provisioning excluded.
    let mut engine_s = 0.0;
    let mut engine_tasks = 0usize;
    for kind in [
        CodeKind::THREE_REP,
        CodeKind::TWO_REP,
        CodeKind::Pentagon,
        CodeKind::Heptagon,
        CodeKind::HeptagonLocal,
    ] {
        let code = kind.build().expect("code builds");
        let workload = provision_workload(WorkloadKind::Terasort, kind, &cluster, 400.0, &mut rng)
            .expect("the paper codes fit 120 nodes");
        let started = std::time::Instant::now();
        for _ in 0..ROUNDS {
            let metrics = JobRun::new(
                &workload.job,
                code.as_ref(),
                &workload.placement,
                &cluster,
                &scheduler,
            )
            .run(&mut rng)
            .expect("a healthy cluster runs the job");
            criterion::black_box(metrics);
        }
        engine_s += started.elapsed().as_secs_f64();
        engine_tasks += ROUNDS * workload.job.map_tasks().len();
    }

    // Delay scheduling: a job's first wave — four times more pending tasks
    // than slots — for the heptagon, whose six blocks per node make it the
    // sweep-heaviest of the five codes. One wave costs 10 µs or 800 µs
    // depending on whether the placement left a node without local tasks
    // (it then waits out a full sweep of skips per slot), so the figure is
    // a mean over fresh placements, not one draw.
    let mut assign_s = 0.0;
    let mut placed = 0usize;
    for _ in 0..4 * ROUNDS {
        let workload = provision_workload(
            WorkloadKind::Terasort,
            CodeKind::Heptagon,
            &cluster,
            400.0,
            &mut rng,
        )
        .expect("the heptagon fits 120 nodes");
        let graph = TaskNodeGraph::build(workload.job.map_tasks(), &workload.placement, &cluster);
        let capacities = vec![spec.map_slots_per_node; graph.nodes().len()];
        let started = std::time::Instant::now();
        placed += scheduler.assign(&graph, &capacities, &mut rng).len();
        assign_s += started.elapsed().as_secs_f64();
    }

    // One shuffle fetch: source NIC + destination NIC + the fabric.
    let net = ClusterNet::new(&spec);
    let nodes = net.len();
    let started = std::time::Instant::now();
    for i in 0..TRANSFERS {
        let fetch = Transfer::new(net.fabric(), 1 << 20)
            .via(&net.node(NodeId(i % nodes)).nic)
            .via(&net.node(NodeId((i + 1) % nodes)).nic)
            .issue(SimTime::ZERO);
        criterion::black_box(fetch);
    }
    let transfer_s = started.elapsed().as_secs_f64();

    (
        engine_tasks as f64 / engine_s.max(1e-9),
        1e9 * assign_s / placed.max(1) as f64,
        1e9 * transfer_s / TRANSFERS as f64,
    )
}

fn repro() {
    let mut criterion = Criterion::default();
    bench_stripe_encode(&mut criterion);
    bench_reconstruct(&mut criterion);
    bench_pool_dispatch(&mut criterion);

    // Headline contention number: how much a concurrent repair pass slows
    // the event-driven shuffle (quick configuration of the
    // `shuffle_contention` experiment), tracked across PRs.
    let contention =
        drc_core::experiments::shuffle_contention::run_shuffle_contention(1024 * 1024, 100)
            .expect("shuffle-contention experiment runs");
    let per_code: Vec<(String, serde_json::Value)> = contention
        .rows
        .iter()
        .map(|r| (r.code.to_string(), serde_json::Value::Float(r.slowdown)))
        .collect();

    // Headline live-trace numbers: worst job slowdown across the detection
    // timeout × arrival rate sweep and the largest repair∩job overlap
    // (the shared quick configuration of the `failure_trace` experiment,
    // so the stamped numbers match the CI repro artifact).
    let (ft_block_bytes, ft_target_tasks) = drc_bench::FAILURE_TRACE_QUICK;
    let failure =
        drc_core::experiments::failure_trace::run_failure_trace(ft_block_bytes, ft_target_tasks)
            .expect("failure-trace experiment runs");
    let failure_per_code: Vec<(String, serde_json::Value)> = {
        let mut worst: Vec<(String, f64)> = Vec::new();
        for row in &failure.rows {
            let name = row.code.to_string();
            match worst.iter_mut().find(|(n, _)| *n == name) {
                Some((_, s)) => *s = s.max(row.slowdown),
                None => worst.push((name, row.slowdown)),
            }
        }
        worst
            .into_iter()
            .map(|(n, s)| (n, serde_json::Value::Float(s)))
            .collect()
    };

    // Headline streaming-repair numbers: pipelined vs serial virtual-time
    // ratio per code (the shared quick configuration of the
    // `repair_pipeline` experiment, so the stamped numbers match the CI
    // repro artifact). Virtual-time, hardware-independent: `check_speedup`
    // requires every erasure code's ratio strictly below 1.0.
    let (rp_block_bytes, rp_stripes, rp_chunks) = drc_bench::REPAIR_PIPELINE_QUICK;
    let pipeline = drc_core::experiments::repair_pipeline::run_repair_pipeline(
        rp_block_bytes,
        rp_stripes,
        rp_chunks,
    )
    .expect("repair-pipeline experiment runs");
    // Per code, the smallest measured chunk's ratio (the headline
    // streaming configuration).
    let rp_min_chunk = rp_chunks.iter().copied().min().expect("a chunk size");
    let pipeline_per_code: Vec<(String, serde_json::Value)> = pipeline
        .rows
        .iter()
        .filter(|r| r.chunk_bytes == rp_min_chunk)
        .map(|r| (r.code.to_string(), serde_json::Value::Float(r.ratio)))
        .collect();

    // Metadata-plane headlines: allocator-measured resident bytes per block
    // of the placement index, plus its query rates. The bytes are a
    // deterministic layout property; the rates are wall-clock and tracked
    // as advisories.
    let (meta_nodes, meta_stripes, meta_lookups) = META_CONFIG;
    let (placement, meta_resident) = build_meta_placement();
    let meta_blocks = placement.stripe_count() * placement.distinct_blocks_per_stripe();
    let meta_bytes_per_block = meta_resident as f64 / meta_blocks as f64;
    let started = std::time::Instant::now();
    let replica_sum = meta_lookup_pass(&placement, meta_lookups);
    let meta_lookups_per_s = meta_lookups as f64 / started.elapsed().as_secs_f64().max(1e-9);
    assert!(replica_sum > 0, "lookups must observe real replica lists");
    let started = std::time::Instant::now();
    let scanned = meta_scan_pass(&placement);
    let meta_scan_per_s = scanned as f64 / started.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        scanned,
        2 * meta_stripes,
        "2-rep stores two replicas/stripe"
    );
    assert_eq!(meta_nodes, placement.node_universe());
    drop(placement);

    // Cell-harness fan-out headlines: wall time of the full quick-effort
    // repro (all 12 experiments through the same code path the repro binary
    // uses) at 1 harness job versus the default width. The merge order is
    // fixed, so the only thing the width changes is the wall clock —
    // asserted here for every experiment that carries no wall-clock fields
    // of its own (`encoding` measures real elapsed time inside its rows and
    // is compared by the width-differential test structurally instead).
    use drc_core::experiments::harness;
    let repro_jobs = harness::current_jobs();
    let started = std::time::Instant::now();
    let serial_results =
        harness::with_jobs(1, drc_bench::quick_repro_results).expect("quick repro runs serially");
    let repro_serial_wall_s = started.elapsed().as_secs_f64().max(1e-9);
    let started = std::time::Instant::now();
    let wide_results = drc_bench::quick_repro_results().expect("quick repro runs at full width");
    let repro_wall_s = started.elapsed().as_secs_f64().max(1e-9);
    let wallclock_experiments = ["encoding"];
    for ((serial_name, serial_value), (wide_name, wide_value)) in
        serial_results.iter().zip(&wide_results)
    {
        assert_eq!(serial_name, wide_name, "experiment order must not vary");
        if !wallclock_experiments.contains(serial_name) {
            assert_eq!(
                serial_value, wide_value,
                "{serial_name}: results must be identical at widths 1 and {repro_jobs}"
            );
        }
    }
    let repro_cell_speedup = repro_serial_wall_s / repro_wall_s;

    let (mr_tasks_per_s, delay_assign_ns_per_task, transfer_issue_ns) = mr_ledger();

    let points = thread_points();
    let multi = *points.last().expect("at least one thread point");
    let mut groups: Vec<(String, serde_json::Value)> = Vec::new();
    let mut speedups: Vec<(String, serde_json::Value)> = Vec::new();
    for (label, group) in [
        ("rs_10_4", "sim_stripe_encode/RS(10,4)"),
        ("heptagon_local", "sim_stripe_encode/heptagon-local"),
        ("reconstruct_rs_10_4", "sim_reconstruct/rs(10,4)"),
    ] {
        let single = bps(&criterion, &format!("{group}/threads=1"));
        let wide = bps(&criterion, &format!("{group}/threads={multi}"));
        groups.push((
            label.to_string(),
            serde_json::Value::Map(vec![
                ("threads_1_bps".to_string(), float_value(single)),
                (format!("threads_{multi}_bps"), float_value(wide)),
            ]),
        ));
        let speedup = match (single, wide) {
            (Some(s), Some(w)) if s > 0.0 => serde_json::Value::Float(w / s),
            _ => serde_json::Value::Null,
        };
        speedups.push((label.to_string(), speedup));
    }

    let doc = serde_json::Value::Map(vec![
        ("provenance".to_string(), drc_bench::provenance()),
        (
            "active_kernel".to_string(),
            serde_json::Value::Str(kernel::active().name().to_string()),
        ),
        (
            "block_bytes".to_string(),
            serde_json::Value::UInt(BLOCK as u64),
        ),
        (
            "multi_threads".to_string(),
            serde_json::Value::UInt(multi as u64),
        ),
        (
            "par_min_len".to_string(),
            serde_json::Value::UInt(drc_gf::slice::PAR_MIN_LEN as u64),
        ),
        (
            "par_engage_min".to_string(),
            serde_json::Value::UInt(drc_gf::slice::PAR_ENGAGE_MIN as u64),
        ),
        ("stripe_encode".to_string(), serde_json::Value::Map(groups)),
        (
            "parallel_speedup".to_string(),
            serde_json::Value::Map(speedups),
        ),
        (
            "pool_dispatch_ns".to_string(),
            serde_json::Value::Map(
                dispatch_widths()
                    .into_iter()
                    .map(|w| {
                        (
                            format!("scope_threads_{w}"),
                            float_value(ns(
                                &criterion,
                                &format!("pool_dispatch/scope/threads={w}"),
                            )),
                        )
                    })
                    .chain(std::iter::once((
                        "thread_scope_spawn_baseline".to_string(),
                        float_value(ns(&criterion, "pool_dispatch/thread_scope_spawn_baseline")),
                    )))
                    .collect(),
            ),
        ),
        (
            "shuffle_contention_slowdown".to_string(),
            serde_json::Value::Float(contention.headline_slowdown()),
        ),
        (
            "shuffle_contention_slowdown_per_code".to_string(),
            serde_json::Value::Map(per_code),
        ),
        (
            "failure_trace_slowdown".to_string(),
            serde_json::Value::Float(failure.headline_slowdown()),
        ),
        (
            "failure_trace_slowdown_per_code".to_string(),
            serde_json::Value::Map(failure_per_code),
        ),
        (
            "failure_trace_repair_job_overlap_s".to_string(),
            serde_json::Value::Float(failure.max_repair_job_overlap_s()),
        ),
        (
            "repair_pipeline_ratio".to_string(),
            serde_json::Value::Float(
                pipeline
                    .worst_erasure_ratio()
                    .expect("erasure rows are measured"),
            ),
        ),
        (
            "repair_pipeline_ratio_per_code".to_string(),
            serde_json::Value::Map(pipeline_per_code),
        ),
        (
            "meta_blocks".to_string(),
            serde_json::Value::UInt(meta_blocks as u64),
        ),
        (
            "meta_bytes_per_block".to_string(),
            serde_json::Value::Float(meta_bytes_per_block),
        ),
        (
            "meta_lookups_per_s".to_string(),
            serde_json::Value::Float(meta_lookups_per_s),
        ),
        (
            "meta_repair_scan_blocks_per_s".to_string(),
            serde_json::Value::Float(meta_scan_per_s),
        ),
        (
            "repro_jobs".to_string(),
            serde_json::Value::UInt(repro_jobs as u64),
        ),
        (
            "repro_wall_s".to_string(),
            serde_json::Value::Float(repro_wall_s),
        ),
        (
            "repro_serial_wall_s".to_string(),
            serde_json::Value::Float(repro_serial_wall_s),
        ),
        (
            "repro_cell_speedup".to_string(),
            serde_json::Value::Float(repro_cell_speedup),
        ),
        (
            "mr_tasks_per_s".to_string(),
            serde_json::Value::Float(mr_tasks_per_s),
        ),
        (
            "delay_assign_ns_per_task".to_string(),
            serde_json::Value::Float(delay_assign_ns_per_task),
        ),
        (
            "transfer_issue_ns".to_string(),
            serde_json::Value::Float(transfer_issue_ns),
        ),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("serializable");
    std::fs::write(drc_bench::SIM_BENCH_JSON_PATH, &json).expect("writable BENCH_sim.json");
    println!("{json}");
    println!("wrote {}", drc_bench::SIM_BENCH_JSON_PATH);
}

fn main() {
    if std::env::args().any(|a| a == "repro") {
        repro();
        return;
    }
    let mut criterion = Criterion::default();
    benches(&mut criterion);
}
