//! The paper's explicit quantitative claims, checked one by one against the
//! implementation. Each test cites the section it reproduces.

use std::collections::BTreeSet;

use drc_core::codes::{CodeKind, ErasureCode, PolygonCode, PolygonLocalCode};
use drc_core::experiments::table1::{paper_mttdl_years, run_table1};
use drc_core::experiments::Effort;
use drc_core::mapreduce::{simulate_locality, LocalityConfig, SchedulerKind};
use drc_core::reliability::ReliabilityParams;

/// §2.1: "9 data blocks are encoded into 20 coded blocks and stored in 5
/// nodes with 4 blocks assigned to each node."
#[test]
fn pentagon_encoding_geometry() {
    let pentagon = PolygonCode::pentagon();
    assert_eq!(pentagon.data_blocks(), 9);
    assert_eq!(pentagon.stored_blocks(), 20);
    assert_eq!(pentagon.node_count(), 5);
    for node in 0..5 {
        assert_eq!(pentagon.node_blocks(node).len(), 4);
    }
    // "no two replicas of the same block are stored in the same storage node"
    for block in 0..pentagon.distinct_blocks() {
        let locations = pentagon.block_locations(block);
        assert_eq!(locations.len(), 2);
        assert_ne!(locations[0], locations[1]);
    }
}

/// §2.1: "It can be readily verified that the contents of any 3 nodes suffice
/// to recover all 9 data blocks and thus the code is resilient to 2-node
/// failure."
#[test]
fn pentagon_any_three_nodes_suffice() {
    let pentagon = PolygonCode::pentagon();
    for a in 0..5usize {
        for b in (a + 1)..5 {
            let failed: BTreeSet<usize> = [a, b].into_iter().collect();
            assert!(pentagon.can_recover(&failed));
        }
    }
    assert_eq!(pentagon.fault_tolerance(), 2);
}

/// §2.1: "the overall network data transfer incurred in repairing the two
/// nodes (also known as repair bandwidth) is 10 blocks."
#[test]
fn pentagon_two_node_repair_is_ten_blocks() {
    let pentagon = PolygonCode::pentagon();
    for a in 0..5usize {
        for b in (a + 1)..5 {
            let plan = pentagon.repair_plan(&[a, b].into_iter().collect()).unwrap();
            assert_eq!(plan.network_blocks(), 10, "pair ({a},{b})");
        }
    }
}

/// §2.2: "The heptagon code encodes 20 data blocks into 42 blocks and stores
/// them in 7 nodes, with each node hosting 6 blocks"; "The storage overhead
/// of the heptagon code is less than that of the pentagon code".
#[test]
fn heptagon_geometry_and_overhead() {
    let heptagon = PolygonCode::heptagon();
    assert_eq!(heptagon.data_blocks(), 20);
    assert_eq!(heptagon.stored_blocks(), 42);
    assert_eq!(heptagon.node_count(), 7);
    for node in 0..7 {
        assert_eq!(heptagon.node_blocks(node).len(), 6);
    }
    let pentagon = PolygonCode::pentagon();
    assert!(heptagon.storage_overhead() < pentagon.storage_overhead());
}

/// §2.2: "40 data blocks are encoded into 86 blocks and stored in 15 nodes";
/// "The heptagon-local code can recover from any pattern of 3 node erasures";
/// "The failure of 1 or 2 nodes lying within a heptagon can be handled
/// locally."
#[test]
fn heptagon_local_geometry_and_local_repair() {
    let hl = PolygonLocalCode::heptagon_local();
    assert_eq!(hl.data_blocks(), 40);
    assert_eq!(hl.stored_blocks(), 86);
    assert_eq!(hl.node_count(), 15);
    assert_eq!(hl.fault_tolerance(), 3);
    // Local repair: a 2-node failure inside heptagon 1 only touches heptagon 1.
    let plan = hl.repair_plan(&[8, 11].into_iter().collect()).unwrap();
    for t in &plan.transfers {
        assert!((7..14).contains(&t.from_node));
        assert!((7..14).contains(&t.to_node));
    }
}

/// Table 1: storage overhead and code length columns, exactly as printed.
#[test]
fn table1_storage_overhead_and_code_length() {
    let expected = [
        (CodeKind::THREE_REP, 3.00, 3),
        (CodeKind::Pentagon, 2.22, 5),
        (CodeKind::Heptagon, 2.10, 7),
        (CodeKind::HeptagonLocal, 2.15, 15),
        (CodeKind::RAID_M_10_9, 2.22, 20),
        (CodeKind::RAID_M_12_11, 2.18, 24),
    ];
    for (kind, overhead, length) in expected {
        let code = kind.build().unwrap();
        assert!(
            (code.storage_overhead() - overhead).abs() < 0.005,
            "{kind} overhead {} != {overhead}",
            code.storage_overhead()
        );
        assert_eq!(code.node_count(), length, "{kind}");
    }
}

/// Table 1: the MTTDL column. The absolute values depend on the calibration
/// of the failure/repair model, but the reproduced numbers stay within a
/// small factor of the paper's and preserve its complete ordering.
#[test]
fn table1_mttdl_reproduction() {
    let table = run_table1(&ReliabilityParams::default()).unwrap();
    for row in &table.rows {
        let paper = paper_mttdl_years(row.code).unwrap();
        let ratio = row.mttdl_years / paper;
        assert!(
            ratio > 0.25 && ratio < 4.0,
            "{}: {:.2e} years vs paper {:.2e}",
            row.code,
            row.mttdl_years,
            paper
        );
    }
    // Ordering: heptagon-local > (10,9) RAID+m > 3-rep > (12,11) RAID+m >
    // pentagon > heptagon.
    let years: Vec<f64> = [
        CodeKind::HeptagonLocal,
        CodeKind::RAID_M_10_9,
        CodeKind::THREE_REP,
        CodeKind::RAID_M_12_11,
        CodeKind::Pentagon,
        CodeKind::Heptagon,
    ]
    .iter()
    .map(|k| {
        table
            .rows
            .iter()
            .find(|r| r.code == *k)
            .unwrap()
            .mttdl_years
    })
    .collect();
    for pair in years.windows(2) {
        assert!(pair[0] > pair[1]);
    }
}

/// §3.1: "both the pentagon and the (10,9) RAID+m code have a storage
/// overhead of 2.22; clearly between the two codes, only the pentagon code is
/// feasible in a Hadoop system possessing just 20 nodes."
#[test]
fn code_length_feasibility_argument() {
    let pentagon = CodeKind::Pentagon.build().unwrap();
    let raid_m = CodeKind::RAID_M_10_9.build().unwrap();
    assert!((pentagon.storage_overhead() - raid_m.storage_overhead()).abs() < 1e-9);
    assert!(pentagon.node_count() <= 20);
    assert!(raid_m.node_count() == 20);
    // On a 9-node cluster (set-up 2) the RAID+m stripe cannot even be placed.
    use drc_core::cluster::{Cluster, ClusterSpec, PlacementMap, PlacementPolicy};
    use rand::SeedableRng;
    let cluster = Cluster::new(ClusterSpec::setup2());
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    assert!(PlacementMap::place(
        raid_m.as_ref(),
        &cluster,
        1,
        PlacementPolicy::Random,
        &mut rng
    )
    .is_err());
    assert!(PlacementMap::place(
        pentagon.as_ref(),
        &cluster,
        1,
        PlacementPolicy::Random,
        &mut rng
    )
    .is_ok());
}

/// §3.1: "While the (10,9) RAID+m solution needs a repair bandwidth of 9
/// blocks, a repair bandwidth of 3 blocks suffices in the case of the
/// pentagon code."
#[test]
fn on_the_fly_repair_bandwidth_three_vs_nine() {
    let pentagon = CodeKind::Pentagon.build().unwrap();
    let raid_m = CodeKind::RAID_M_10_9.build().unwrap();
    let pent_hosts: BTreeSet<usize> = pentagon.block_locations(0).iter().copied().collect();
    let raid_hosts: BTreeSet<usize> = raid_m.block_locations(0).iter().copied().collect();
    assert_eq!(
        pentagon
            .degraded_read_plan(0, &pent_hosts)
            .unwrap()
            .network_blocks,
        3
    );
    assert_eq!(
        raid_m
            .degraded_read_plan(0, &raid_hosts)
            .unwrap()
            .network_blocks,
        9
    );
}

/// §3.2 / Fig. 3: "there is a significant loss in data locality with 2 map
/// slots per node for the proposed coding schemes with respect to double
/// replication", "the heptagon code ... suffers more", and "the loss in
/// locality decreases with increasing number of map slots per node."
#[test]
fn locality_claims_from_fig3() {
    let point = |code, mu, load| {
        simulate_locality(
            &LocalityConfig::new(code, SchedulerKind::Delay, mu, load).with_trials(60),
        )
        .unwrap()
        .mean_locality_percent
    };
    let two_rep = point(CodeKind::TWO_REP, 2, 100.0);
    let pentagon2 = point(CodeKind::Pentagon, 2, 100.0);
    let heptagon2 = point(CodeKind::Heptagon, 2, 100.0);
    assert!(
        two_rep - pentagon2 > 10.0,
        "two_rep {two_rep} pentagon {pentagon2}"
    );
    assert!(pentagon2 > heptagon2);
    let pentagon8 = point(CodeKind::Pentagon, 8, 100.0);
    let heptagon8 = point(CodeKind::Heptagon, 8, 100.0);
    assert!(pentagon8 > pentagon2 + 10.0);
    assert!(heptagon8 > heptagon2 + 10.0);
}

/// §3.2: "the locality of the 2-rep systems is indicative of the locality of
/// any of the RAID+m solutions" — RAID+m places one block per node, exactly
/// like replication, so the task-node graph has the same left degree.
#[test]
fn raid_m_locality_structure_matches_two_rep() {
    let raid_m = CodeKind::RAID_M_10_9.build().unwrap();
    let two_rep = CodeKind::TWO_REP.build().unwrap();
    for block in 0..raid_m.data_blocks() {
        assert_eq!(raid_m.block_locations(block).len(), 2);
    }
    assert_eq!(two_rep.block_locations(0).len(), 2);
    assert_eq!(raid_m.structure().layout.max_blocks_per_node(), 1);
}

/// §4 conclusions (i) and (iv), via the Fig. 4 / Fig. 5 reproductions:
/// 2-rep ≈ 3-rep at moderate load, and with 4 map slots the pentagon is close
/// to 2-rep even at 75% load.
#[test]
fn cluster_experiment_conclusions() {
    use drc_core::experiments::fig4::TerasortSweep;
    let point = |sweep: &TerasortSweep, code: CodeKind, load: f64| {
        sweep
            .points
            .iter()
            .find(|p| p.code == code && p.load_percent == load)
            .cloned()
            .unwrap()
    };
    let fig4 = drc_core::experiments::fig4::run_fig4(Effort::Quick).unwrap();
    let two = point(&fig4, CodeKind::TWO_REP, 50.0);
    let three = point(&fig4, CodeKind::THREE_REP, 50.0);
    assert!((two.job_time_s - three.job_time_s).abs() / three.job_time_s < 0.15);

    let fig5 = drc_core::experiments::fig5::run_fig5(Effort::Quick).unwrap();
    let pent = point(&fig5, CodeKind::Pentagon, 75.0);
    let two5 = point(&fig5, CodeKind::TWO_REP, 75.0);
    assert!(pent.data_locality_percent > 85.0);
    assert!((pent.job_time_s - two5.job_time_s).abs() / two5.job_time_s < 0.2);
}
