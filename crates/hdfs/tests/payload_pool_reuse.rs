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
//! A counting global allocator tallies allocations at or above the block
//! size inside an explicit window. Counters cover all threads (the worker
//! pool's shard work included); the tests of this binary take [`SERIAL`],
//! so nothing else allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use drc_cluster::ClusterSpec;
use drc_codes::CodeKind;
use drc_hdfs::{Bytes, DistributedFileSystem, EncodedFile};

/// Block size of the measured deployment; also the counting threshold —
/// every payload, parity and rebuild buffer is exactly this large.
const BLOCK: u64 = 1024 * 1024;

// ---------------------------------------------------------------------------
// Counting allocator: tallies block-sized-or-larger allocations inside an
// explicit measurement window.
// ---------------------------------------------------------------------------

struct BigAllocCounter;

/// Whether the measurement window is open.
static TRACKING: AtomicBool = AtomicBool::new(false);
/// Allocations of at least `BLOCK` bytes since the window opened.
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn open_window() {
    BIG_ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
}

/// Closes the window and returns the number of block-sized allocations.
fn close_window() -> usize {
    TRACKING.store(false, Ordering::SeqCst);
    BIG_ALLOCS.load(Ordering::SeqCst)
}

fn count(size: usize) {
    if size >= BLOCK as usize && TRACKING.load(Ordering::Relaxed) {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: `unsafe` is required by the `GlobalAlloc` contract; every call
// forwards to `System` with the caller's layout and pointer unchanged, so
// the contract is upheld verbatim and the counter touches no allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for BigAllocCounter {
    // SAFETY: caller upholds the `GlobalAlloc` contract; forwarded to
    // `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same arguments the caller handed us.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds the `GlobalAlloc` contract; forwarded to
    // `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same arguments the caller handed us.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds the `GlobalAlloc` contract; forwarded to
    // `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same arguments the caller handed us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: BigAllocCounter = BigAllocCounter;

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
    let big_allocs = close_window();

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
    assert_eq!(close_window(), stripes * (k + parities), "one per block");
    drop(fs);

    drc_gf::bufpool::drain();
    let takes_before = takes();
    open_window();
    let file = EncodedFile::encode(payload.clone(), code, BLOCK as usize).unwrap();
    assert_eq!(close_window(), stripes * parities, "parities only");
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
        close_window(),
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
