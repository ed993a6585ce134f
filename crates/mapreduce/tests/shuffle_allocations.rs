//! The shuffle's allocation shape, measured with the counting global
//! allocator: a job allocates the same number of times with one reducer as
//! with a whole wave of them, so nothing is allocated per reducer (each
//! reducer's fan-in is one `ClusterNet::gather` over a reused source list),
//! and the list itself — `up.len()` node ids — is allocated exactly once
//! per job, as is the table of reduce-slot free instants.
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! does not leak into other tests; only the measured thread's allocations
//! count (`drc_testalloc::Threads::Current`).

use drc_cluster::{Cluster, ClusterSpec, NodeId, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use drc_mapreduce::{DelayScheduler, JobRun, JobSpec};
use drc_sim::SimTime;
use drc_testalloc::{close_window, open_window, CountingAlloc, Tally, Threads};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Every allocation of one job with `reducers` reduce tasks, on books whose
/// `exact` count is the allocations of precisely `list_bytes` bytes.
fn job_tally(cluster: &Cluster, reducers: usize, list_bytes: usize) -> Tally {
    let code = CodeKind::TWO_REP.build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(2014);
    let placement = PlacementMap::place(
        code.as_ref(),
        cluster,
        30,
        PlacementPolicy::Random,
        &mut rng,
    )
    .unwrap();
    let job = JobSpec::new("alloc", placement.data_blocks()).with_reduce_tasks(reducers);
    let scheduler = DelayScheduler::default();
    let run = JobRun::new(&job, code.as_ref(), &placement, cluster, &scheduler);
    open_window(Threads::Current, list_bytes);
    let metrics = run.run(&mut rng);
    let tally = close_window();
    assert!(metrics.is_ok(), "{reducers} reducers: {metrics:?}");
    tally
}

/// Serialised entry point: one `#[test]` drives every case so the single
/// measurement window is never contended.
#[test]
fn the_shuffle_allocates_one_source_list_per_job_and_nothing_per_reducer() {
    let cluster = Cluster::new(ClusterSpec::simulation_25(4));
    let up = cluster.up_nodes().len();
    let list_bytes = up * std::mem::size_of::<NodeId>();
    // One reduce wave is `up × reduce_slots_per_node` reducers: the wave
    // count, and with it the timeline's labels, stay the same.
    let wave = up * cluster.spec().reduce_slots_per_node;

    let all = |reducers| job_tally(&cluster, reducers, 0);
    let (one, full_wave) = (all(1), all(wave));
    assert_eq!(
        one.allocs, full_wave.allocs,
        "allocations grew with the reducer count (1 vs {wave} reducers)"
    );

    // The reduce-slot table (one free instant per slot) is the job's other
    // shuffle-side allocation. At one reduce slot per node it has the
    // list's byte size, so the exact books count it too.
    let slot_bytes = wave * std::mem::size_of::<SimTime>();
    let per_job = 1 + usize::from(slot_bytes == list_bytes);
    let lists = |reducers| job_tally(&cluster, reducers, list_bytes).exact;
    let without_shuffle = lists(0);
    for reducers in [1, 2, wave] {
        assert_eq!(
            lists(reducers) - without_shuffle,
            per_job,
            "{reducers} reducers: source lists of {list_bytes} B allocated beyond the \
             reducer-less job"
        );
    }
}
