//! Galois-field substrate micro-benchmarks: bulk XOR, multiply-accumulate and
//! Reed–Solomon encode/reconstruct throughput, per kernel variant.
//!
//! Run as a normal criterion bench (`cargo bench --bench gf_throughput`), or
//! with a `repro` argument (`cargo bench --bench gf_throughput -- repro`) to
//! emit `BENCH_gf.json` — bytes/sec per kernel per operation (including
//! worst-case RS(10,4) reconstruct pinned to each kernel via
//! `kernel::with_forced`) plus RS(10,4) stripe-encode throughput — so the
//! perf trajectory is tracked across PRs.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};

use drc_gf::kernel::{self, Kernel};
use drc_gf::{slice, Matrix, ReedSolomon};

const BUF: usize = 1024 * 1024;

fn make_src(len: usize) -> Vec<u8> {
    drc_core::experiments::harness::pattern_payload(len).to_vec()
}

/// All `k + m` coded shards of `data` (bench set-up, not a measured path).
fn coded_shards(rs: &ReedSolomon, data: &[Vec<u8>], shard: usize) -> Vec<Vec<u8>> {
    let mut parity = vec![vec![0u8; shard]; rs.parity_shards()];
    rs.encode_into(data, &mut parity).expect("encodes");
    data.iter().cloned().chain(parity).collect()
}

fn bench_slice_ops(c: &mut Criterion) {
    for kern in kernel::all() {
        let mut group = c.benchmark_group(format!("gf_slice_ops/{}", kern.name()));
        group.throughput(Throughput::Bytes(BUF as u64));
        let src = make_src(BUF);
        group.bench_function("xor_assign_1MiB", |b| {
            let mut dst = vec![0u8; BUF];
            b.iter(|| kern.xor_assign(&mut dst, &src))
        });
        group.bench_function("mul_acc_1MiB", |b| {
            let mut dst = vec![0u8; BUF];
            b.iter(|| kern.mul_acc(&mut dst, &src, 0x1d))
        });
        group.bench_function("scale_assign_1MiB", |b| {
            let mut dst = make_src(BUF);
            b.iter(|| kern.scale_assign(&mut dst, 0x1d))
        });
        group.finish();
    }
}

fn bench_reconstruct_per_kernel(c: &mut Criterion) {
    // Worst-case RS(10,4) reconstruction (4 data shards lost) pinned to each
    // kernel in turn via `kernel::with_forced`, so BENCH_gf.json tracks
    // reconstruct throughput for every variant, not just the auto-selected
    // one. The pin is process-wide, so the pool workers the parallel split
    // engages run the pinned kernel too.
    let rs = ReedSolomon::new(10, 4).expect("valid parameters");
    let shard = 64 * 1024;
    let data: Vec<Vec<u8>> = (0..10u8)
        .map(|i| make_src(shard).iter().map(|b| b.wrapping_add(i)).collect())
        .collect();
    let coded = coded_shards(&rs, &data, shard);
    let present: Vec<Option<&[u8]>> = coded
        .iter()
        .enumerate()
        .map(|(i, s)| (i >= 4).then_some(s.as_slice()))
        .collect();
    let mut group = c.benchmark_group("gf_reconstruct");
    group.throughput(Throughput::Bytes((10 * shard) as u64));
    for kern in kernel::all() {
        let mut out = vec![vec![0u8; shard]; 14];
        group.bench_function(kern.name(), |b| {
            kernel::with_forced(kern, || {
                b.iter(|| {
                    rs.reconstruct_into(&present, shard, &mut out)
                        .expect("reconstructs")
                })
            })
        });
    }
    group.finish();
}

fn bench_fused_encode(c: &mut Criterion) {
    // The fused cache-blocked matrix product vs row-by-row mul_acc, on an
    // RS(10,4)-shaped parity computation over 10 x 64 KiB shards.
    let rs = ReedSolomon::new(10, 4).expect("valid parameters");
    let shard = 64 * 1024;
    let data: Vec<Vec<u8>> = (0..10).map(|_| make_src(shard)).collect();
    let coeffs = rs.generator().rows_flat(10, 14).to_vec();
    let mut group = c.benchmark_group("gf_fused");
    group.throughput(Throughput::Bytes((10 * shard) as u64));
    group.bench_function("matrix_mul_into_rs(10,4)_64KiB", |b| {
        let mut outs = vec![vec![0u8; shard]; 4];
        b.iter(|| slice::matrix_mul_into(&coeffs, 10, &data, &mut outs))
    });
    group.bench_function("row_by_row_rs(10,4)_64KiB", |b| {
        let mut outs = vec![vec![0u8; shard]; 4];
        b.iter(|| {
            for (p, out) in outs.iter_mut().enumerate() {
                slice::linear_combination_into(&coeffs[p * 10..(p + 1) * 10], &data, out);
            }
        })
    });
    group.finish();
}

fn bench_reed_solomon(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf_reed_solomon");
    group.sample_size(20);
    for (k, m) in [(9usize, 1usize), (10, 4), (40, 2)] {
        let rs = ReedSolomon::new(k, m).expect("valid parameters");
        let shard = 64 * 1024;
        let data: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8; shard]).collect();
        group.throughput(Throughput::Bytes((k * shard) as u64));
        group.bench_with_input(
            BenchmarkId::new("encode_into", format!("rs({k},{m})")),
            &data,
            |b, data| {
                let mut parity = vec![vec![0u8; shard]; m];
                b.iter(|| rs.encode_into(data, &mut parity).expect("encodes"))
            },
        );
        let coded = coded_shards(&rs, &data, shard);
        let present: Vec<Option<&[u8]>> = coded
            .iter()
            .enumerate()
            .map(|(i, s)| (i >= m).then_some(s.as_slice()))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("reconstruct_into_worst_case", format!("rs({k},{m})")),
            &present,
            |b, present| {
                let mut out = vec![vec![0u8; shard]; k + m];
                b.iter(|| {
                    rs.reconstruct_into(present, shard, &mut out)
                        .expect("reconstructs")
                })
            },
        );
    }
    group.finish();
}

fn bench_matrix_inversion(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf_matrix");
    for n in [9usize, 20, 40] {
        let rows: Vec<usize> = (0..n).collect();
        let m = Matrix::vandermonde(n + 4, n)
            .expect("valid dimensions")
            .select_rows(&rows);
        group.bench_with_input(BenchmarkId::new("invert", n), &m, |b, m| {
            b.iter(|| m.inverse().expect("invertible"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_slice_ops,
    bench_reconstruct_per_kernel,
    bench_fused_encode,
    bench_reed_solomon,
    bench_matrix_inversion
);

// ---------------------------------------------------------------------------
// `repro` mode: machine-readable kernel throughput for cross-PR tracking.
// ---------------------------------------------------------------------------

fn bps_value(m: &criterion::Measurement) -> serde_json::Value {
    match m.bytes_per_sec() {
        Some(bps) => serde_json::Value::Float(bps),
        None => serde_json::Value::Null,
    }
}

/// Runs the criterion benches and distils their measurements into
/// `BENCH_gf.json`, so the JSON and the human-readable bench output come
/// from one measurement harness (budget: `CRITERION_MEASURE_MS`).
fn repro() {
    let mut criterion = Criterion::default();
    bench_slice_ops(&mut criterion);
    bench_reconstruct_per_kernel(&mut criterion);
    bench_fused_encode(&mut criterion);
    bench_reed_solomon(&mut criterion);

    let mut kernels_json: Vec<(String, serde_json::Value)> = Vec::new();
    for kern in kernel::all() {
        let kern: &Kernel = kern;
        let prefix = format!("gf_slice_ops/{}/", kern.name());
        let mut ops: Vec<(String, serde_json::Value)> = criterion
            .measurements()
            .iter()
            .filter_map(|m| {
                let op = m.id.strip_prefix(&prefix)?.strip_suffix("_1MiB")?;
                Some((format!("{op}_bps"), bps_value(m)))
            })
            .collect();
        // RS(10,4) worst-case reconstruct throughput pinned to this kernel.
        let rec_id = format!("gf_reconstruct/{}", kern.name());
        if let Some(m) = criterion.measurements().iter().find(|m| m.id == rec_id) {
            ops.push(("reconstruct_bps".to_string(), bps_value(m)));
        }
        kernels_json.push((kern.name().to_string(), serde_json::Value::Map(ops)));
    }

    // RS(10,4) over 10 x 64 KiB shards — the HDFS-RAID configuration.
    let mut rs_json = vec![(
        "shard_bytes".to_string(),
        serde_json::Value::UInt(64 * 1024),
    )];
    for (key, id) in [
        ("encode_into_bps", "gf_reed_solomon/encode_into/rs(10,4)"),
        (
            "reconstruct_into_bps",
            "gf_reed_solomon/reconstruct_into_worst_case/rs(10,4)",
        ),
    ] {
        let m = criterion
            .measurements()
            .iter()
            .find(|m| m.id == id)
            .expect("bench_reed_solomon ran");
        rs_json.push((key.to_string(), bps_value(m)));
    }

    let doc = serde_json::Value::Map(vec![
        (
            "active_kernel".into(),
            serde_json::Value::Str(kernel::active().name().into()),
        ),
        ("buffer_bytes".into(), serde_json::Value::UInt(BUF as u64)),
        ("kernels".into(), serde_json::Value::Map(kernels_json)),
        ("rs_10_4".into(), serde_json::Value::Map(rs_json)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("serializable");
    std::fs::write(drc_bench::GF_BENCH_JSON_PATH, &json).expect("writable BENCH_gf.json");
    println!("{json}");
    println!("wrote {}", drc_bench::GF_BENCH_JSON_PATH);
}

fn main() {
    if std::env::args().any(|a| a == "repro") {
        repro();
        return;
    }
    let mut criterion = Criterion::default();
    benches(&mut criterion);
}
