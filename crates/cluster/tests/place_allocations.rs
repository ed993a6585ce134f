//! Allocation shape of `PlacementMap::place`, measured with the counting
//! global allocator: the build makes the same number of allocations for
//! `10·S` stripes as for `S` (nothing is allocated per stripe — the random
//! draws reuse one pool, one rack order and one row) and on 1000 nodes as on
//! 25 (nothing is allocated per node — the postings are one slab of offsets
//! and one offset table), and beyond the index it returns it holds only
//! O(nodes) bytes at its peak (the up ring, the per-rack pools) — no
//! transient cell-sized buffer, which is why the 10 M-block placements peak
//! at the size of the index itself.
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! does not leak into other tests; only the measured thread's allocations
//! count (`drc_testalloc::Threads::Current`).

use drc_cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
use drc_codes::CodeKind;
use drc_testalloc::{close_window, open_window, CountingAlloc, Tally, Threads};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Every allocation `place` makes for `stripes` stripes; the placement is
/// still alive when the window closes, so `live` is the index itself.
fn place_tally(
    kind: CodeKind,
    cluster: &Cluster,
    stripes: usize,
    policy: PlacementPolicy,
) -> Tally {
    let code = kind.build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_2014);
    open_window(Threads::Current, 0);
    let placement = PlacementMap::place(code.as_ref(), cluster, stripes, policy, &mut rng);
    let tally = close_window();
    assert_eq!(placement.unwrap().stripe_count(), stripes);
    tally
}

/// Serialised entry point: one `#[test]` drives every case so the single
/// measurement window is never contended.
#[test]
fn place_allocates_nothing_per_stripe_and_no_cell_sized_transient() {
    // 25 nodes in 3 racks of 9 / 8 / 8: room for the heptagon-local code's
    // 7 + 7 + 1 rack groups, so its draw is the rack-aware one.
    let cluster = Cluster::new(ClusterSpec::simulation_25(4));
    const S: usize = 2_000;
    for (what, kind, policy) in [
        (
            "round-robin",
            CodeKind::Pentagon,
            PlacementPolicy::RoundRobin,
        ),
        ("flat random", CodeKind::Pentagon, PlacementPolicy::Random),
        (
            "rack-aware random",
            CodeKind::HeptagonLocal,
            PlacementPolicy::Random,
        ),
    ] {
        let small = place_tally(kind, &cluster, S, policy);
        let large = place_tally(kind, &cluster, 10 * S, policy);
        assert_eq!(
            small.allocs, large.allocs,
            "{what}: allocations grew with the stripe count"
        );
        // Ring, counts, pools, rack lists: a few words per node. The arena
        // of the large build alone is 10·S·arity·4 B ≥ 400 kB.
        let transient_bound = (64 * cluster.len() + 1024) as isize;
        for (stripes, tally) in [(S, small), (10 * S, large)] {
            let transient = tally.peak - tally.live;
            assert!(
                (0..=transient_bound).contains(&transient),
                "{what}, {stripes} stripes: {transient} B held beyond the index at the peak \
                 (bound {transient_bound} B)"
            );
        }
    }
    // The same stripes on a 1000-node, 25-rack cluster: as many allocations
    // as on 25 nodes. (The rack-aware draw is left out: it keeps one up-node
    // list per rack by design.)
    let datacenter = Cluster::new(ClusterSpec::datacenter(1000));
    for (what, policy) in [
        ("round-robin", PlacementPolicy::RoundRobin),
        ("flat random", PlacementPolicy::Random),
    ] {
        let narrow = place_tally(CodeKind::Pentagon, &cluster, S, policy);
        let wide = place_tally(CodeKind::Pentagon, &datacenter, S, policy);
        assert_eq!(
            narrow.allocs, wide.allocs,
            "{what}: allocations grew with the node count: {narrow:?} vs {wide:?}"
        );
    }
}
