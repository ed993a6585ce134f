//! Working-set proof for the streaming repair path: a counting global
//! allocator measures net heap growth across a repair pass and asserts that
//! the *transient* overhead — everything beyond the restored blocks the
//! repair legitimately retains — stays O(chunk × stripe width), far below
//! the block size. The pre-streaming path copied every helper block
//! (`data.to_vec()`), an O(block × sources) spike this test would catch.

use drc_cluster::ClusterSpec;
use drc_codes::CodeKind;
use drc_hdfs::DistributedFileSystem;
use drc_testalloc::{close_window, open_window, CountingAlloc, Threads};

// The window covers *all* threads; this binary runs exactly one test, so
// nothing else allocates concurrently.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A pentagon double failure over 4 MiB blocks repaired in 512 KiB chunks:
/// the repair's heap high-water mark is the restored blocks it must retain
/// plus a transient working set bounded by O(chunk × stripe width) — the
/// streamed pipeline never materialises whole-block copies of the helper
/// payloads.
#[test]
fn streaming_repair_working_set_is_chunk_sized() {
    const BLOCK: u64 = 4 * 1024 * 1024;
    const CHUNK: u64 = 512 * 1024;
    let code = CodeKind::Pentagon;
    let built = code.build().unwrap();

    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = BLOCK / (1024 * 1024);
    let mut fs = DistributedFileSystem::new(spec, 0x3E3A);
    fs.set_repair_chunk_bytes(CHUNK);

    // Two full stripes; the write path also warms the kernel selection so
    // the measurement window sees no one-time setup.
    let stripes = 2usize;
    let data: Vec<u8> = (0..stripes * built.data_blocks() * BLOCK as usize)
        .map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes()[i % 8])
        .collect();
    let id = fs.write_file("/mem/stream", &data, code).unwrap();
    fs.sync();

    let meta = fs.namenode().file(id).unwrap().clone();
    let victims: Vec<_> =
        meta.placement.stripe_hosts(0).unwrap()[..built.fault_tolerance()].to_vec();
    for &v in &victims {
        fs.fail_node_permanently(v);
    }

    open_window(Threads::All, 0);
    let report = fs.repair_nodes(&victims).unwrap();
    let books = close_window();
    let (peak, end) = (books.peak, books.live);

    assert_eq!(report.unrecoverable_stripes, 0);
    assert!(report.blocks_restored > 0);

    // What the repair legitimately keeps: one fresh buffer per rebuilt block
    // (replica-backed restores are handle clones and retain nothing).
    let retained_cap = report.blocks_restored as isize * BLOCK as isize;
    assert!(
        end <= retained_cap,
        "repair retained {end} bytes, more than {} restored blocks can explain",
        report.blocks_restored
    );

    // The transient spike above what survives the pass: chunk-granular
    // streaming keeps it O(chunk × width) — bookkeeping vectors and solved
    // matrices. One whole-block helper copy (the old
    // monolithic path made several per stripe) would blow through this.
    let width = built.stored_blocks() as isize;
    let transient = peak - end.max(0);
    let bound = CHUNK as isize * width;
    assert!(
        transient <= bound,
        "transient working set {transient} exceeds chunk×width bound {bound} \
         (peak {peak}, end {end})"
    );
    assert!(
        transient < BLOCK as isize,
        "transient working set {transient} reaches block size {BLOCK}"
    );

    assert_eq!(fs.read_file(id).unwrap(), data, "bytes restored intact");
}
