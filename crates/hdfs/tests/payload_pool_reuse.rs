//! Steady-state allocation proof for the block-payload pool: running the
//! same write → fail → repair cell twice must allocate **zero** new
//! block-sized buffers on the second run. The first run populates the pool
//! (every copied data block, parity and rebuilt block comes
//! from `drc_gf::bufpool`); dropping the file system recycles each
//! allocation exactly once, so the second, identical cell is served
//! entirely from the shelf. Before the pool, every repeated cell of the
//! repro harness malloc/freed GiBs of 1 MiB buffers.
//!
//! The encode-once ingest path gets the complementary proof on a *cold*
//! pool: `EncodedFile::encode` allocates block-sized buffers for the
//! parities only — every data block is a view of the caller's payload —
//! and any number of cells ingesting that file allocate none at all. The
//! parities are shared with the DataNodes, never shelved by them while the
//! file lives, and go back to the pool exactly once, when it drops.
//!
//! The failure path gets the steady-state proof on one *persistent* file
//! system: fail-stop → degraded `read_file` → auto-repair → `read_file`,
//! cycle after cycle with different victims, allocates no block at all —
//! a node's wipe shelves exactly the blocks its repair rebuilds into, and a
//! degraded `read_file` hands every block it reconstructed back to the
//! shelf once it is copied out.
//!
//! A *length-only* cell (`EncodedFile::sized`, what the virtual-time
//! experiment drivers ingest) needs no pool at all: ingest → fail → repair
//! allocates nothing block-sized, takes nothing from the pool and shelves
//! nothing — there is no buffer anywhere in it.
//!
//! The counting allocator tallies allocations at or above the block size
//! inside an explicit window, and those of exactly the block size apart
//! (every payload, parity and rebuild buffer; a file-sized output is
//! larger). The window covers all threads; the tests of this binary take
//! [`SERIAL`], so nothing else allocates concurrently.

use std::sync::Mutex;

use drc_cluster::{ClusterSpec, FailureEvent, FailureEventKind, FailureTrace};
use drc_codes::CodeKind;
use drc_hdfs::{Bytes, DistributedFileSystem, EncodedFile};
use drc_sim::PhaseClass;
use drc_testalloc::{close_window, CountingAlloc, Tally, Threads};

/// Block size of the measured deployment; also the counting threshold —
/// every payload, parity and rebuild buffer is exactly this large.
const BLOCK: u64 = 1024 * 1024;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Opens a window over every thread's block-sized-or-larger allocations.
fn open_window() {
    drc_testalloc::open_window(Threads::All, BLOCK as usize);
}

/// Held by each test for its whole body: the allocation window and the
/// buffer pool are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = BLOCK / (1024 * 1024);
    spec
}

/// `stripes` whole pentagon stripes of non-repeating content.
fn stripes_of_data(stripes: usize) -> Vec<u8> {
    let k = CodeKind::Pentagon.build().unwrap().data_blocks();
    (0..stripes * k * BLOCK as usize)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect()
}

/// One complete experiment cell: deploy, write, double-fail, repair. The
/// file system drop at the end hands every block-sized allocation back to
/// the payload pool.
fn run_cell(data: &[u8]) -> usize {
    let code = CodeKind::Pentagon;
    let built = code.build().unwrap();
    let mut fs = DistributedFileSystem::new(spec(), 0xB00F);

    let id = fs.write_file("/pool/reuse", data, code).unwrap();
    fs.sync();
    let meta = fs.namenode().file(id).unwrap().clone();
    let victims: Vec<_> =
        meta.placement.stripe_hosts(0).unwrap()[..built.fault_tolerance()].to_vec();
    for &v in &victims {
        fs.fail_node_permanently(v);
    }
    let report = fs.repair_nodes(&victims).unwrap();
    assert_eq!(report.unrecoverable_stripes, 0);
    assert!(report.blocks_restored > 0);
    report.blocks_restored
}

/// The second run of an identical cell allocates no new block payloads:
/// every take is a pool hit against the buffers the first run recycled.
#[test]
fn second_identical_cell_allocates_no_block_payloads() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let data = stripes_of_data(2);

    // Start from a clean shelf so the hit/miss accounting below is this
    // test's own, then let the cold run populate it.
    drc_gf::bufpool::drain();
    run_cell(&data);
    assert!(
        drc_gf::bufpool::pooled_bytes() > 0,
        "dropping the cell's file system must recycle its payloads"
    );
    let misses_after_cold = drc_gf::bufpool::misses();

    open_window();
    run_cell(&data);
    let big_allocs = close_window().allocs;

    assert_eq!(
        big_allocs, 0,
        "a repeated cell must be served entirely from the payload pool"
    );
    assert_eq!(
        drc_gf::bufpool::misses(),
        misses_after_cold,
        "the warm run must not miss the pool"
    );
    assert!(
        drc_gf::bufpool::hits() > 0,
        "the warm run's takes must register as pool hits"
    );
}

/// On a cold pool, `write_file` allocates one block-sized buffer per
/// distinct block, per cell. `EncodedFile::encode` allocates one per
/// *parity* and none for data — and that is all an experiment pays: every
/// cell ingesting the file afterwards takes nothing from the pool and
/// allocates nothing block-sized, i.e. the encode ran once for the file, not
/// once per cell.
#[test]
fn cells_over_one_encoded_file_allocate_its_parities_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let code = CodeKind::Pentagon;
    let built = code.build().unwrap();
    let stripes = 2usize;
    let cells = 3usize;
    let k = built.data_blocks();
    let parities = built.distinct_blocks() - k;
    let data = stripes_of_data(stripes);
    let payload = Bytes::from(data.clone());
    let takes = || drc_gf::bufpool::hits() + drc_gf::bufpool::misses();

    let mut fs = DistributedFileSystem::new(spec(), 0xB00F);
    drc_gf::bufpool::drain();
    open_window();
    fs.write_file("/pool/copied", &data, code).unwrap();
    assert_eq!(
        close_window().allocs,
        stripes * (k + parities),
        "one per block"
    );
    drop(fs);

    drc_gf::bufpool::drain();
    let takes_before = takes();
    open_window();
    let file = EncodedFile::encode(payload.clone(), code, BLOCK as usize).unwrap();
    assert_eq!(close_window().allocs, stripes * parities, "parities only");
    assert_eq!(takes() - takes_before, (stripes * parities) as u64);

    open_window();
    for cell in 0..cells {
        let mut fs = DistributedFileSystem::new(spec(), 0xB00F + cell as u64);
        let id = fs.write_encoded("/pool/encoded", &file).unwrap();
        assert_eq!(fs.stats().stored_blocks, stripes * built.stored_blocks());
        // Wiping a node mid-cell releases handles, never the buffers.
        let host = fs
            .namenode()
            .file(id)
            .unwrap()
            .block_locations(0, k)
            .unwrap()[0];
        fs.fail_node_permanently(host);
    }
    assert_eq!(
        close_window().allocs,
        0,
        "ingesting an encoded file allocates nothing"
    );
    assert_eq!(
        takes() - takes_before,
        (stripes * parities) as u64,
        "no cell encoded anything"
    );
    // Every file system is gone, the file is not: no DataNode shelved a
    // parity it shared with it.
    assert_eq!(drc_gf::bufpool::pooled_bytes(), 0);
    drop(file);
    // Now each parity is back on the shelf, once.
    assert_eq!(
        drc_gf::bufpool::pooled_bytes(),
        stripes * parities * BLOCK as usize
    );
    // Every view is gone with the file; the payload is the caller's again,
    // unmoved.
    assert_eq!(payload.try_unwrap().unwrap(), data);
}

/// The converse ownership case: a file system that outlives the
/// `EncodedFile` it ingested is the parities' last holder, and its drop
/// shelves each of them exactly once however many replicas held the handle.
#[test]
fn a_file_system_outliving_the_encoded_file_recycles_its_parities() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let code = CodeKind::Pentagon;
    let built = code.build().unwrap();
    let stripes = 2usize;
    let parities = built.distinct_blocks() - built.data_blocks();
    let payload = Bytes::from(stripes_of_data(stripes));

    drc_gf::bufpool::drain();
    let file = EncodedFile::encode(payload, code, BLOCK as usize).unwrap();
    let mut fs = DistributedFileSystem::new(spec(), 0xB00F);
    fs.write_encoded("/pool/outlived", &file).unwrap();
    drop(file);
    assert_eq!(drc_gf::bufpool::pooled_bytes(), 0, "the replicas hold them");
    drop(fs);
    assert_eq!(
        drc_gf::bufpool::pooled_bytes(),
        stripes * parities * BLOCK as usize
    );
}

/// The failure path in steady state, on a file system that lives across
/// cycles (the shape of the benchmark's `fail_repair` workload): victims
/// fail-stop through the trace path, every file is read while degraded, the
/// detection boundary fires and the RaidNode repairs, every file is read
/// again. Cycle after cycle — different victims, so different lost blocks —
/// not one block-sized buffer is allocated: the wipes shelve the lost
/// blocks' buffers, each degraded read borrows one per rebuild and returns
/// it, and the repair rebuilds into them. The only large allocations left
/// are the file-sized outputs `read_file` hands its caller.
#[test]
fn a_persistent_file_system_repairs_and_reads_degraded_from_the_pool() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let code = CodeKind::Pentagon;
    let built = code.build().unwrap();
    let mut fs = DistributedFileSystem::new(spec(), 0xB00F);
    // Two whole stripes, and a stripe and a block with a ragged tail (whose
    // rebuild reaches the sink as a view of the pooled block).
    let whole = stripes_of_data(2);
    let ragged = &whole[..(built.data_blocks() + 1) * BLOCK as usize + 4321];
    let files = [
        (
            fs.write_file("/pool/whole", &whole, code).unwrap(),
            &whole[..],
        ),
        (fs.write_file("/pool/ragged", ragged, code).unwrap(), ragged),
    ];
    fs.sync();
    // Each cycle's victims are the two holders of one data block, so the
    // readers must reconstruct it: first a whole block, then the ragged tail.
    let holders = |fs: &DistributedFileSystem, file: usize, stripe, block| {
        let meta = fs.namenode().file(files[file].0).unwrap();
        meta.block_locations(stripe, block).unwrap().to_vec()
    };
    let (first_victims, second_victims) = (holders(&fs, 0, 1, 3), holders(&fs, 1, 1, 1));
    assert_ne!(first_victims, second_victims);

    drc_gf::bufpool::drain();
    let cycle = |fs: &mut DistributedFileSystem, victims: &[drc_cluster::NodeId]| -> Tally {
        let phases_before = fs.timeline().of(PhaseClass::DegradedRead).count();
        open_window();
        let at = fs.now();
        let downs = victims
            .iter()
            .map(|&node| FailureEvent::at_ns(at.0, FailureEventKind::NodeDown { node }))
            .collect();
        fs.schedule_trace(&FailureTrace::from_events(downs));
        fs.process_events_until(at).unwrap();
        for (id, want) in files {
            assert!(fs.read_file(id).unwrap() == want, "degraded read-back");
        }
        fs.sync();
        let reports = fs.process_all_events().unwrap();
        fs.sync();
        for (id, want) in files {
            assert!(fs.read_file(id).unwrap() == want, "read-back after repair");
        }
        let books = close_window();
        assert!(reports.iter().map(|r| r.blocks_restored).sum::<usize>() > 0);
        assert!(reports.iter().all(|r| r.unrecoverable_stripes == 0));
        assert!(
            fs.timeline().of(PhaseClass::DegradedRead).count() > phases_before,
            "the victims must cost the readers a reconstruction"
        );
        books
    };
    for (n, victims) in [first_victims, second_victims].iter().enumerate() {
        let misses_before = drc_gf::bufpool::misses();
        let books = cycle(&mut fs, victims);
        assert_eq!(books.exact, 0, "cycle {n} allocates no block");
        assert_eq!(
            books.allocs,
            2 * files.len(),
            "cycle {n}: one file-sized output per read_file call, nothing else"
        );
        assert_eq!(
            drc_gf::bufpool::misses(),
            misses_before,
            "cycle {n}: every rebuild is a pool hit"
        );
    }
}

/// A `repair_pipeline`-shaped cell over a length-only file — ingest, one
/// permanent stripe-host failure, repair, a handle read-back — never holds
/// a block: no allocation at or above the block size, no pool take (hit or
/// miss), nothing shelved when the deployment and the file drop. The same
/// cell over a real file rebuilds into pool buffers, so the counters do
/// move when there are bytes.
#[test]
fn a_sized_cell_allocates_no_block_and_never_touches_the_pool() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let code = CodeKind::Heptagon;
    let len = 2 * code.build().unwrap().data_blocks() * BLOCK as usize;
    let cell = |file: &EncodedFile| {
        let mut fs = DistributedFileSystem::new(spec(), 0x512E);
        fs.set_repair_chunk_bytes(256 * 1024);
        let id = fs.write_encoded("/pool/sized", file).unwrap();
        fs.sync();
        let victim = fs
            .namenode()
            .file(id)
            .unwrap()
            .block_locations(0, 0)
            .unwrap()[0];
        fs.fail_node_permanently(victim);
        let report = fs.repair_nodes(&[victim]).unwrap();
        assert!(report.blocks_restored > 0 && report.unrecoverable_stripes == 0);
        fs.sync();
        fs.read_file_blocks(id).unwrap();
        report
    };
    let takes = || drc_gf::bufpool::hits() + drc_gf::bufpool::misses();

    drc_gf::bufpool::drain();
    let takes_before = takes();
    open_window();
    let sized = EncodedFile::sized(code, BLOCK as usize, len).unwrap();
    let sized_report = cell(&sized);
    drop(sized);
    let big_allocs = close_window().allocs;
    assert_eq!(big_allocs, 0, "a sized cell holds no block-sized buffer");
    assert_eq!(
        takes(),
        takes_before,
        "a sized cell takes nothing from the pool"
    );
    assert_eq!(drc_gf::bufpool::pooled_bytes(), 0, "and shelves nothing");

    let real = EncodedFile::encode(Bytes::from(vec![0x5Au8; len]), code, BLOCK as usize).unwrap();
    assert_eq!(cell(&real), sized_report, "same cell, same report");
    assert!(
        takes() > takes_before,
        "a real cell rebuilds into pool buffers"
    );
}
