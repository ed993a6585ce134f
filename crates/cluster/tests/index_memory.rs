//! Allocator-measured memory comparison of the placement index against the
//! `BTreeMap` double-store it replaced (`support/map_oracle.rs`).
//! `heap_bytes` is self-reported on both sides (and deliberately a floor for
//! the oracle, which omits `BTreeMap` node overhead); this test closes the
//! loop with a counting global allocator that tracks *net live bytes*,
//! proving on real allocations that
//!
//! * the map-based double-store spends strictly more resident memory than
//!   the arena index on the same placement,
//! * the arena stays within the 48 B/block target at thousands-of-stripes
//!   scale, and
//! * the gap `crates/cluster/INTERNALS.md` records for 2-rep (104.1 vs
//!   16.0 B/block) still holds, loosely: oracle ≥ 4 × arena, arena ≤ 16.1.
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! does not leak into other tests, and only the measured thread's
//! allocations count (the libtest harness's main thread allocates at
//! nondeterministic moments — see `drc_testalloc::Threads::Current`).

#[path = "support/map_oracle.rs"]
mod map_oracle;

use drc_cluster::{Cluster, ClusterSpec, CodeShape, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use drc_testalloc::{close_window, open_window, CountingAlloc, Threads};
use map_oracle::MapOracle;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `build` and returns its result with the net bytes it left resident.
fn measured<T>(what: &str, build: impl FnOnce() -> T) -> (T, isize) {
    open_window(Threads::Current, 0);
    let built = build();
    let resident = close_window().live;
    assert!(resident > 0, "{what}: the build must leave bytes resident");
    (built, resident)
}

/// Serialised entry point: one `#[test]` drives every comparison so the
/// single measurement window is never contended.
#[test]
fn map_oracle_spends_strictly_more_memory_than_the_arena() {
    for kind in [
        CodeKind::TWO_REP,
        CodeKind::Pentagon,
        CodeKind::HeptagonLocal,
    ] {
        let code = kind.build().unwrap();
        let stripes = 100_000usize.div_ceil(code.distinct_blocks());
        let blocks = stripes * code.distinct_blocks();
        let cluster = Cluster::new(ClusterSpec::datacenter(60));
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_2014);

        let (placement, arena_resident) = measured(&format!("{kind}/arena"), || {
            PlacementMap::place(
                code.as_ref(),
                &cluster,
                stripes,
                PlacementPolicy::RoundRobin,
                &mut rng,
            )
            .unwrap()
        });
        let (oracle, map_resident) = measured(&format!("{kind}/map oracle"), || {
            MapOracle::new(&placement, CodeShape::of(code.as_ref()))
        });
        assert!(
            map_resident >= oracle.heap_bytes() as isize,
            "{kind}: self-reported map size {} B must floor the measured {} B",
            oracle.heap_bytes(),
            map_resident
        );

        assert!(
            arena_resident < map_resident,
            "{kind}: arena {arena_resident} B must undercut map {map_resident} B"
        );
        let bytes_per_block = arena_resident as f64 / blocks as f64;
        assert!(
            bytes_per_block <= 48.0,
            "{kind}: arena measures {bytes_per_block:.1} B/block, target <= 48"
        );
        if kind == CodeKind::TWO_REP {
            let map_bytes_per_block = map_resident as f64 / blocks as f64;
            assert!(
                bytes_per_block <= 16.1 && map_resident >= 4 * arena_resident,
                "2-rep: arena {bytes_per_block:.1} B/block, map oracle \
                 {map_bytes_per_block:.1} B/block; INTERNALS.md records 16.0 vs 104.1"
            );
        }
    }
}
