//! The per-layer ledger: one figure per layer of the stack, each measured by
//! calling that layer's public functions directly with the shapes the byte
//! and MapReduce workloads use (1 MiB blocks, RS(10,4)'s 4 × 10 matrix,
//! eight-stripe rebuild waves, 16-chunk trains, 400 % load).
//!
//! Every traced run measures these probes the same way, whatever its
//! workload, so a figure means the same thing in all four reports. (What
//! only a workload's own iterations can tell — the process counters, the
//! simulated outputs, the self-time split, the per-experiment wall times —
//! is added by `run.rs`.) Ratios
//! ("efficiency") divide a layer's rate by what the layer below permits;
//! both operands are ledger entries, so every ratio is printed with its
//! base.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::stats::{median, p90_or_max, secs_per_call};
use crate::surface::{self, Code, Encoder, Failure, Fs, Net, NodeId, Pipe, Reconstructor, Rs};
use crate::trace::{self, span};
use crate::workload::{
    sub_seed, Payload, Victims, BLOCK, MR_LOAD_PERCENT, REBUILD_WAVE, REPAIR_NODES,
};

/// Time budget of one micro-probe.
const PROBE: Duration = Duration::from_millis(30);
const GIB: f64 = (1u64 << 30) as f64;
const MIB: f64 = BLOCK as f64;
/// Operations per call of the `sim` probes.
const SIM_OPS: usize = 10_000;
/// Chunks per probed train.
const TRAIN: usize = 16;

/// The ledger under construction: metric name → value. Units and
/// directions are in [`crate::metrics`].
#[derive(Default)]
pub struct Ledger(pub BTreeMap<String, f64>);

impl Ledger {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Seconds per call of `op`, recorded as one span of `layer`.
fn probe(layer: &'static str, what: &str, op: impl FnMut()) -> f64 {
    span(layer, "probe", what, || secs_per_call(PROBE, 3, op))
}

/// Measures every replay-derived ledger entry. `seed` derives payload
/// bytes and victim order of the `hdfs` probe.
pub fn measure(seed: u64) -> Result<Ledger, Failure> {
    let mut l = Ledger::default();
    gf(&mut l)?;
    codes(&mut l)?;
    cluster(&mut l)?;
    sim(&mut l);
    hdfs(&mut l, seed)?;
    mapreduce(&mut l, seed)?;
    small_layers(&mut l)?;
    Ok(l)
}

fn gf(l: &mut Ledger) -> Result<(), Failure> {
    let src = vec![0xa5u8; BLOCK];
    let mut dst = vec![0u8; BLOCK];
    let mul_acc = MIB
        / GIB
        / probe("gf", "mul_acc", || {
            surface::mul_acc(&mut dst, &src, surface::gf(0x1d))
        });
    let xor = MIB / GIB / probe("gf", "xor_assign", || surface::xor_assign(&mut dst, &src));

    let rs_code = &surface::byte_codes()?[4];
    let (k, rows) = (rs_code.k(), 4);
    let coeffs = surface::parity_matrix(rs_code);
    let blocks: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8 + 1; BLOCK]).collect();
    let views: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
    let mut outs = vec![vec![0u8; BLOCK]; rows];
    let input_gib = k as f64 * MIB / GIB;
    let mm = input_gib
        / probe("gf", "matrix_mul_into 4x10", || {
            surface::matrix_mul_into(&coeffs, k, &views, &mut outs)
        });
    let mut wave = vec![vec![vec![0u8; BLOCK]; rows]; REBUILD_WAVE];
    let batch = REBUILD_WAVE as f64 * input_gib
        / probe("gf", "matrix_mul_batch 8x(4x10)", || {
            surface::matrix_mul_batch(&coeffs, k, &views, &mut wave)
        });

    let rs = Rs::new(k, rows)?;
    let mut encode_err = Ok(());
    let enc = input_gib
        / probe("gf", "ReedSolomon::encode_into", || {
            encode_err = rs.encode_into(&views, &mut outs);
        });
    encode_err?;
    // The four data shards a tolerance-sized failure can take are missing;
    // the parities stand in (all-zero parities are not a codeword, but the
    // decode does the same work on any bytes).
    let parity = vec![0u8; BLOCK];
    let present: Vec<Option<&[u8]>> = (0..k + rows)
        .map(|i| match i {
            i if i < rows => None,
            i if i < k => Some(views[i]),
            _ => Some(&parity[..]),
        })
        .collect();
    let mut all = vec![vec![0u8; BLOCK]; k + rows];
    let mut rec_err = Ok(());
    let rec = input_gib
        / probe("gf", "ReedSolomon::reconstruct_into", || {
            rec_err = rs.reconstruct_into(&present, BLOCK, &mut all);
        });
    rec_err?;

    l.put("gf.mul_acc_gib_s", mul_acc);
    l.put("gf.xor_gib_s", xor);
    l.put("gf.matrix_mul_into_gib_s", mm);
    l.put("gf.matrix_mul_batch_gib_s", batch);
    l.put("gf.rs_encode_into_gib_s", enc);
    l.put("gf.rs_reconstruct_into_gib_s", rec);
    // Each source byte of a 4-row product is multiplied-and-accumulated four
    // times: the fused product's mul_acc-equivalent rate over the kernel's.
    l.put("gf.matrix_mul_efficiency", rows as f64 * mm / mul_acc);
    l.put("gf.rs_reconstruct_efficiency", rec / mul_acc);
    l.put(
        "gf.bufpool_take_ns",
        1e9 * probe("gf", "bufpool take+recycle", || {
            surface::bufpool_cycle(BLOCK)
        }),
    );
    Ok(())
}

/// The failure pattern a code's probes rebuild: its first `tolerance`
/// stripe-local nodes are gone.
fn probe_pattern(code: &Code) -> BTreeSet<usize> {
    (0..code.tolerance).collect()
}

fn codes(l: &mut Ledger) -> Result<(), Failure> {
    let block = vec![0x3cu8; BLOCK];
    for code in &surface::byte_codes()? {
        let stripe = vec![&block[..]; code.k()];
        let mut encoder = Encoder::default();
        let mut err = Ok(0);
        let s = probe("codes", code.name, || err = encoder.encode(code, &stripe));
        err?;
        l.put(
            format!("codes.encode_gib_s.{}", code.name),
            code.k() as f64 * MIB / GIB / s,
        );
    }
    let rs_encode = l.get("codes.encode_gib_s.rs-10-4");
    l.put(
        "codes.encode_efficiency.rs-10-4",
        rs_encode / l.get("gf.rs_encode_into_gib_s"),
    );
    for code in &surface::byte_codes()? {
        let loss = surface::stripe_loss(code, &probe_pattern(code))?;
        // 2-rep loses no block outright at its tolerance; rebuilding block 0
        // from its surviving replica is the copy its repair performs.
        let targets = if loss.lost.is_empty() {
            vec![0]
        } else {
            loss.lost.clone()
        };
        let mut planned = Reconstructor::plan(code, &loss.available, &targets);
        let plan_s = probe("codes", code.name, || {
            planned = Reconstructor::plan(code, &loss.available, &targets);
        });
        let rec = planned?;
        let sources = vec![&block[..]; rec.sources()];
        let mut outs = vec![vec![0u8; BLOCK]; rec.targets()];
        let s = probe("codes", code.name, || {
            rec.reconstruct_into(&sources, &mut outs)
        });
        l.put(
            format!("codes.reconstruct_gib_s.{}", code.name),
            rec.targets() as f64 * MIB / GIB / s,
        );
        l.put(format!("codes.plan_us.{}", code.name), plan_s * 1e6);
    }
    Ok(())
}

fn cluster(l: &mut Ledger) -> Result<(), Failure> {
    let codes = surface::byte_codes()?;
    let (rep2, pentagon) = (&codes[0], &codes[1]);
    let spec = surface::spec_datacenter(200);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let mut err = Ok(());
    let stripes = 2_000;
    let s = probe("cluster", "place rep2", || {
        err = surface::place(rep2, &spec, stripes, &mut rng).map(drop);
    });
    err?;
    l.put("cluster.place_stripes_per_s", stripes as f64 / s);

    let stripes = 5_000;
    let mut placed = surface::place(pentagon, &spec, stripes, &mut rng);
    let s = probe("cluster", "place pentagon", || {
        placed = surface::place(pentagon, &spec, stripes, &mut rng);
    });
    let placement = placed?;
    let blocks = (stripes * pentagon.code.stored_blocks()) as f64;
    l.put("cluster.index_build_blocks_per_s", blocks / s);

    let mut err = Ok(0);
    let s = probe("cluster", "locations", || {
        err = surface::lookup_all(&placement)
    });
    err?;
    let lookups = (stripes * placement.distinct_blocks_per_stripe()) as f64;
    l.put("cluster.index_lookups_per_s", lookups / s);
    l.put(
        "cluster.index_bytes_per_block",
        surface::index_bytes_per_block(&placement),
    );
    let mut scanned = Ok(0);
    let s = probe("cluster", "for_each_block_on_node", || {
        scanned = surface::scan_all_nodes(&placement);
    });
    l.put("cluster.repair_scan_blocks_per_s", scanned? as f64 / s);

    let big = surface::spec_datacenter(1000);
    let mut events = 0;
    let s = probe("cluster", "FailureTrace::poisson", || {
        events = surface::poisson_trace(&big, 1000, &mut rng);
    });
    l.put("cluster.trace_poisson_events_per_s", events as f64 / s);
    Ok(())
}

fn sim(l: &mut Ledger) {
    let per_op = |s: f64, ops: usize| 1e9 * s / ops as f64;
    let pipe = Pipe::new(100.0);
    let s = probe("sim", "Resource::reserve_bytes", || {
        for i in 0..SIM_OPS {
            std::hint::black_box(pipe.reserve_bytes(i as u64, 1 << 20));
        }
    });
    l.put("sim.reserve_ns", per_op(s, SIM_OPS));

    // A Weyl sequence: out-of-order arrival times, as concurrent transfers
    // completing produce them.
    let times: Vec<u64> = (0..SIM_OPS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20)
        .collect();
    let s = probe("sim", "EventQueue schedule+pop", || {
        std::hint::black_box(surface::event_queue_roundtrip(&times));
    });
    l.put("sim.event_queue_ns", per_op(s, SIM_OPS));

    let spec = surface::spec_sim25();
    let net = Net::new(&spec);
    let n = spec.data_nodes;
    let s = probe("sim", "Transfer::issue", || {
        for i in 0..SIM_OPS {
            std::hint::black_box(net.transfer(0, NodeId(i % n), NodeId((i + 1) % n), 1 << 20));
        }
    });
    l.put("sim.transfer_ns", per_op(s, SIM_OPS));

    let sizes = vec![1u64 << 20; TRAIN];
    let trains = SIM_OPS / TRAIN;
    let s = probe("sim", "pull_train", || {
        for i in 0..trains {
            std::hint::black_box(net.pull_train(0, NodeId(i % n), &sizes));
        }
    });
    l.put("sim.pull_train_ns_per_chunk", per_op(s, trains * TRAIN));
    let s = probe("sim", "push_train", || {
        for i in 0..trains {
            std::hint::black_box(net.push_train(0, NodeId(i % n), &sizes));
        }
    });
    l.put("sim.push_train_ns_per_chunk", per_op(s, trains * TRAIN));

    let s = probe("sim", "Timeline::record", || {
        std::hint::black_box(surface::timeline_records(SIM_OPS));
    });
    l.put("sim.timeline_record_ns", per_op(s, SIM_OPS));
}

/// The byte path end to end at probe size: ten rounds of write + read on a
/// fresh file system per code (two files of ≈ 8 MiB each: 100 `write_file`
/// calls in all, enough for a p90), then twenty fail → degraded-read →
/// repair cycles per code on the last round's file system (100 repair
/// passes).
fn hdfs(l: &mut Ledger, seed: u64) -> Result<(), Failure> {
    const ROUNDS: usize = 10;
    const FILES: usize = 2;
    const CYCLES: usize = 20;
    let codes = surface::byte_codes()?;
    let payload = Payload::new(sub_seed(seed, 40), &codes, FILES, 8);

    let mut write_ms = Vec::new();
    let mut repair_ms = Vec::new();
    for (ci, code) in codes.iter().enumerate() {
        let bytes = payload.file_bytes(code);
        let user_mib = (FILES * bytes) as f64 / MIB;
        let (mut write_s, mut read_s) = (0.0, 0.0);
        let mut last = None;
        for round in 0..ROUNDS {
            let mut fs = Fs::new(
                surface::spec_small(REPAIR_NODES),
                sub_seed(seed, 41 + ci as u64),
                code.name,
            );
            let mut ids = Vec::with_capacity(FILES);
            for f in 0..FILES {
                let start = Instant::now();
                ids.push(fs.write_file(&format!("/probe/{f}"), payload.file(code, f), code)?);
                let s = start.elapsed().as_secs_f64();
                write_ms.push(s * 1e3);
                write_s += s;
            }
            fs.sync_ns();
            let start = Instant::now();
            for &id in &ids {
                std::hint::black_box(fs.read_file(id, code.name)?);
            }
            read_s += start.elapsed().as_secs_f64();
            if round + 1 == ROUNDS {
                last = Some((fs, ids));
            }
        }
        l.put(
            format!("hdfs.write_mib_s.{}", code.name),
            ROUNDS as f64 * user_mib / write_s,
        );
        l.put(
            format!("hdfs.read_mib_s.{}", code.name),
            ROUNDS as f64 * user_mib / read_s,
        );

        let (mut fs, ids) = last.expect("the last round keeps its file system");
        let victims = Victims::new(sub_seed(seed, 50 + ci as u64));
        let (mut degraded_s, mut repair_s) = (0.0, 0.0);
        let (mut restored, mut repair_net) = (0usize, 0u64);
        for cycle in 0..CYCLES {
            fs.fail_now(&victims.round(cycle, code.tolerance), code.name)?;
            let start = Instant::now();
            let back = fs.read_file(ids[cycle % FILES], code.name)?;
            degraded_s += start.elapsed().as_secs_f64();
            if back != payload.file(code, cycle % FILES) {
                return Err(format!(
                    "hdfs probe: {} read back differently while degraded",
                    code.name
                ));
            }
            fs.sync_ns();
            let start = Instant::now();
            let reports = fs.detect_and_repair(code.name)?;
            let s = start.elapsed().as_secs_f64();
            repair_ms.push(s * 1e3);
            repair_s += s;
            fs.sync_ns();
            restored += reports.iter().map(|r| r.blocks_restored).sum::<usize>();
            repair_net += reports.iter().map(|r| r.network_bytes).sum::<u64>();
        }
        l.put(
            format!("hdfs.degraded_read_mib_s.{}", code.name),
            CYCLES as f64 * bytes as f64 / MIB / degraded_s,
        );
        l.put(
            format!("hdfs.repair_mib_s.{}", code.name),
            restored as f64 / repair_s,
        );
        l.put(
            format!("hdfs.repair_net_bytes_per_lost_byte.{}", code.name),
            repair_net as f64 / (restored as f64 * MIB),
        );
    }
    for code in &codes {
        let write_gib_s = l.get(&format!("hdfs.write_mib_s.{}", code.name)) / 1024.0;
        l.put(
            format!("hdfs.write_efficiency.{}", code.name),
            write_gib_s / l.get(&format!("codes.encode_gib_s.{}", code.name)),
        );
    }
    l.put("hdfs.write_file_ms_p90", p90_or_max(&write_ms));
    l.put("hdfs.repair_pass_ms_p90", p90_or_max(&repair_ms));
    Ok(())
}

/// The `mr_sweep` calls at probe size: a 40-node datacenter at 400 % load.
fn mapreduce(l: &mut Ledger, seed: u64) -> Result<(), Failure> {
    const NODES: usize = 40;
    const TRIALS: usize = 3;
    let codes = surface::mr_codes()?;
    let spec = surface::spec_datacenter(NODES);
    let tasks = spec.tasks_for_load(MR_LOAD_PERCENT);

    let start = Instant::now();
    let sweep = surface::terasort_sweep(spec.clone(), &codes, MR_LOAD_PERCENT)?;
    let engine_s = start.elapsed().as_secs_f64();
    let engine_tasks = tasks * codes.len() * surface::terasort_trials();
    l.put("mapreduce.tasks_per_s", engine_tasks as f64 / engine_s);

    let mut locality_s = 0.0;
    for scheduler in surface::schedulers() {
        let start = Instant::now();
        surface::locality(
            &codes[2],
            scheduler,
            spec.clone(),
            MR_LOAD_PERCENT,
            TRIALS,
            sub_seed(seed, 60),
        )?;
        let s = start.elapsed().as_secs_f64();
        locality_s += s;
        l.put(
            format!("mapreduce.assign_us_per_task.{}", scheduler.0),
            1e6 * s / (tasks * TRIALS) as f64,
        );
    }
    l.put(
        "mapreduce.locality_trials_per_s",
        (3 * TRIALS) as f64 / locality_s,
    );
    for (code, p) in codes.iter().zip(&sweep.points) {
        l.put(
            format!("mapreduce.locality_pct.{}", code.name),
            p.data_locality_percent,
        );
    }
    for (code, p) in codes.iter().zip(&sweep.points) {
        l.put(
            format!("mapreduce.job_virtual_s.{}", code.name),
            p.job_time_s,
        );
    }
    Ok(())
}

/// `reliability` and `workloads`: expected to be under 1 % of `repro_quick`
/// and recorded so that this is a measured fact.
fn small_layers(l: &mut Ledger) -> Result<(), Failure> {
    let pentagon = &surface::byte_codes()?[1];
    let mut err = Ok(0.0);
    let s = probe("reliability", "group_mttdl", || {
        err = surface::markov_mttdl_years(pentagon)
    });
    err?;
    l.put("reliability.markov_solve_us", s * 1e6);
    const RUNS: usize = 200;
    let s = probe("reliability", "monte_carlo_mttdl", || {
        std::hint::black_box(surface::montecarlo_mttdl_years(pentagon, RUNS, 7));
    });
    l.put("reliability.montecarlo_trials_per_s", RUNS as f64 / s);

    let spec = surface::spec_datacenter(40);
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let mut err = Ok((0, 0, 0));
    let s = probe("workloads", "provision_workload", || {
        err = surface::provision_terasort(pentagon, &spec, MR_LOAD_PERCENT, &mut rng);
    });
    err?;
    l.put("workloads.provision_us", s * 1e6);
    Ok(())
}

/// `core.wall_ms.<experiment>`: the median duration of each experiment's
/// spans among `spans` — where the quick repro's time goes. Only
/// `repro_quick` runs the experiments; the other workloads spend no time in
/// them and report 0.
pub fn core_wall_ms(l: &mut Ledger, spans: &[trace::Span]) {
    for name in surface::experiment_names() {
        let ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "experiment" && s.arg == *name)
            .map(|s| s.secs() * 1e3)
            .collect();
        l.put(format!("core.wall_ms.{name}"), median(&ms));
    }
}
