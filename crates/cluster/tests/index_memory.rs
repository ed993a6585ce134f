//! Allocator-measured memory comparison of the two placement-index
//! backends. `PlacementMap::heap_bytes` is self-reported (and deliberately
//! a floor for the map reference, which omits `BTreeMap` node overhead);
//! this test closes the loop with a counting global allocator that tracks
//! *net live bytes*, proving on real allocations that
//!
//! * the map-based reference spends strictly more resident memory than the
//!   compact arena index on the same placement, and
//! * the compact index stays within the 48 B/block target at
//!   thousands-of-stripes scale.
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! does not leak into other tests, and only the measured thread's
//! allocations count (the libtest harness's main thread allocates at
//! nondeterministic moments — see `drc_testalloc::Threads::Current`).

use drc_cluster::{
    with_index_kind, Cluster, ClusterSpec, IndexKind, PlacementMap, PlacementPolicy,
};
use drc_codes::CodeKind;
use drc_testalloc::{close_window, open_window, CountingAlloc, Threads};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Builds a placement on `index` and returns it with the net bytes the
/// build left resident.
fn build_measured(
    kind: CodeKind,
    index: IndexKind,
    nodes: usize,
    stripes: usize,
) -> (PlacementMap, isize) {
    let code = kind.build().unwrap();
    let cluster = Cluster::new(ClusterSpec::datacenter(nodes));
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_2014);
    open_window(Threads::Current, 0);
    let placement = with_index_kind(index, || {
        PlacementMap::place(
            code.as_ref(),
            &cluster,
            stripes,
            PlacementPolicy::RoundRobin,
            &mut rng,
        )
    })
    .unwrap();
    let resident = close_window().live;
    assert!(
        resident > 0,
        "{kind}/{index}: building the index must leave bytes resident"
    );
    (placement, resident)
}

/// Serialised entry point: one `#[test]` drives every comparison so the
/// single measurement window is never contended.
#[test]
fn map_reference_spends_strictly_more_memory_than_compact() {
    for kind in [
        CodeKind::TWO_REP,
        CodeKind::Pentagon,
        CodeKind::HeptagonLocal,
    ] {
        let code = kind.build().unwrap();
        let stripes = 100_000usize.div_ceil(code.distinct_blocks());
        let blocks = stripes * code.distinct_blocks();

        // Build and drop the map placement before measuring the compact one
        // so their residencies never overlap in the counter.
        let (map_placement, map_resident) = build_measured(kind, IndexKind::Map, 60, stripes);
        assert!(
            map_resident >= map_placement.heap_bytes() as isize,
            "{kind}: self-reported map size {} B must floor the measured {} B",
            map_placement.heap_bytes(),
            map_resident
        );
        drop(map_placement);

        let (compact_placement, compact_resident) =
            build_measured(kind, IndexKind::Compact, 60, stripes);

        assert!(
            compact_resident < map_resident,
            "{kind}: compact {compact_resident} B must undercut map {map_resident} B"
        );
        let bytes_per_block = compact_resident as f64 / blocks as f64;
        assert!(
            bytes_per_block <= 48.0,
            "{kind}: compact index measures {bytes_per_block:.1} B/block, target <= 48"
        );
        drop(compact_placement);
    }
}
