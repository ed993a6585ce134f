//! CI gate for the multi-core stripe-encode scaling (ROADMAP: "Multi-core
//! speedup validation").
//!
//! Reads the `BENCH_sim.json` a preceding `cargo bench -p drc_bench --bench
//! sim_throughput -- repro` run wrote at the workspace root and checks the
//! stripe-encode `parallel_speedup` entries against [`MIN_SPEEDUP`]. What a
//! miss *means* depends on the hardware the snapshot was measured on
//! (`provenance.host_cpus`, stamped by the bench itself), so the gate has
//! three modes:
//!
//! * **skip** — the snapshot's bench host had fewer CPUs than the pool had
//!   threads (e.g. 2 threads time-slicing one core, like a 1-CPU dev
//!   container, or a snapshot taken with `multi_threads < 2`). An
//!   oversubscribed run can never show a speedup, so ~1.0 or below is the
//!   honest result and asserting a floor against it would gate on noise.
//!   The gate prints a loud notice and exits successfully.
//! * **advisory** — the bench host had fewer than [`HARD_GATE_MIN_CPUS`]
//!   CPUs. Stripe encode is memory-bandwidth-bound, and the 2–4 shared
//!   vCPUs of a standard CI runner (typically hyperthreads on shared
//!   memory channels) do not reliably multiply the bandwidth of one, so a
//!   sub-floor speedup is reported as a WARN but does not fail the build.
//! * **enforced** — the bench host had at least [`HARD_GATE_MIN_CPUS`]
//!   CPUs, which in practice means dedicated hardware with real bandwidth
//!   headroom; there a speedup below the floor fails the gate.
//!
//! Before the hardware-dependent gate, the snapshot's *virtual-time*
//! contention headlines (`shuffle_contention_slowdown`,
//! `failure_trace_slowdown`, `failure_trace_repair_job_overlap_s`, and the
//! streaming-repair `repair_pipeline_ratio` — pipelined strictly below
//! serial for every erasure code) are
//! checked unconditionally — they are deterministic on any host, so a
//! missing or non-positive headline always fails. The metadata-plane size
//! headline (`meta_bytes_per_block`, a deterministic layout property) is
//! likewise enforced unconditionally against
//! [`META_MAX_BYTES_PER_BLOCK`]; the metadata query *rates* are wall-clock
//! and only advisory. The MapReduce scheduling-plane ledger
//! (`mr_tasks_per_s`, `delay_assign_ns_per_task`, `transfer_issue_ns`) must
//! be present and positive on any host; its values are wall-clock and
//! advisory beyond that. The quick-repro wall time (`repro_wall_s`) must be
//! present and positive on any host, and the cell-harness
//! `repro_cell_speedup` (quick repro at 1 harness job vs the default width)
//! follows the same three hardware tiers as the stripe-encode gate.
//!
//! Exit status: 0 on pass, advisory or skip; 1 on a missing/malformed JSON,
//! a broken virtual-time headline, or an enforced speedup below the floor.

use drc_bench::{json_f64, json_lookup, SIM_BENCH_JSON_PATH};

/// Minimum acceptable multi-thread stripe-encode speedup.
const MIN_SPEEDUP: f64 = 1.5;

/// Ceiling on allocator-measured resident bytes per block for the compact
/// placement index. The arena layout lands at ~16 B/block for 2-rep and
/// below 5 B/block for the paper codes, so 64 B leaves generous headroom
/// while still catching a regression back to per-block `Vec` storage
/// (the map-based reference measures >100 B/block).
const META_MAX_BYTES_PER_BLOCK: f64 = 64.0;

/// Bench-host CPU count from which the floor is enforced rather than
/// advisory. Set above the 2–4 shared vCPUs of standard CI runners, whose
/// hyperthreads on shared memory channels cannot reliably deliver the
/// bandwidth the floor presumes for this memory-bound workload; >= 8 CPUs
/// indicates hardware with genuine scaling headroom.
const HARD_GATE_MIN_CPUS: usize = 8;

/// The stripe-encode entries of `parallel_speedup` the gate checks
/// (`reconstruct_rs_10_4` is recorded but not gated: reconstruction spends
/// part of its time in serial matrix inversion).
const GATED: &[&str] = &["rs_10_4", "heptagon_local"];

fn main() {
    let text = match std::fs::read_to_string(SIM_BENCH_JSON_PATH) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "FAIL: cannot read {SIM_BENCH_JSON_PATH}: {e} \
                 (run `cargo bench -p drc_bench --bench sim_throughput -- repro` first)"
            );
            std::process::exit(1);
        }
    };
    let doc = match serde_json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL: {SIM_BENCH_JSON_PATH} is not valid JSON: {e:?}");
            std::process::exit(1);
        }
    };
    let speedups = match json_lookup(&doc, "parallel_speedup") {
        Some(v) => v,
        None => {
            eprintln!("FAIL: {SIM_BENCH_JSON_PATH} has no `parallel_speedup` map");
            std::process::exit(1);
        }
    };

    // The virtual-time contention headlines are deterministic and
    // hardware-independent, so — unlike the wall-clock speedup below — they
    // are enforced on every host: a stamped snapshot whose contended runs
    // show no slowdown or no repair∩job overlap means the event model broke.
    let mut failed = false;
    for (name, floor, kind) in [
        ("shuffle_contention_slowdown", 1.0, "slowdown"),
        ("failure_trace_slowdown", 1.0, "slowdown"),
        ("failure_trace_repair_job_overlap_s", 0.0, "overlap"),
    ] {
        match json_lookup(&doc, name).and_then(json_f64) {
            Some(v) if v > floor => {
                println!("OK:   {name} = {v:.3} (virtual-time {kind} headline)");
            }
            Some(v) => {
                eprintln!(
                    "FAIL: {name} = {v:.3} — the contended run must show a \
                     {kind} strictly above {floor}"
                );
                failed = true;
            }
            None => {
                eprintln!(
                    "FAIL: `{name}` missing from {SIM_BENCH_JSON_PATH} \
                     (stale snapshot? re-run `cargo bench -p drc_bench --bench \
                     sim_throughput -- repro`)"
                );
                failed = true;
            }
        }
    }
    // The streaming-repair headline is likewise virtual-time and
    // deterministic, so it is enforced unconditionally: the chunk-streamed
    // repair schedule must complete strictly before the serial whole-block
    // baseline for every erasure code (ratio < 1.0). Replication entries
    // have no rebuild stage to overlap and may be neutral, so they only
    // need to stay at-or-below 1.0 (plus per-chunk ns rounding).
    match json_lookup(&doc, "repair_pipeline_ratio").and_then(json_f64) {
        Some(v) if v > 0.0 && v < 1.0 => {
            println!("OK:   repair_pipeline_ratio = {v:.3} (pipelined < serial)");
        }
        Some(v) => {
            eprintln!(
                "FAIL: repair_pipeline_ratio = {v:.3} — the chunk-streamed repair \
                 must beat the serial whole-block schedule (ratio strictly < 1.0)"
            );
            failed = true;
        }
        None => {
            eprintln!(
                "FAIL: `repair_pipeline_ratio` missing from {SIM_BENCH_JSON_PATH} \
                 (stale snapshot? re-run `cargo bench -p drc_bench --bench \
                 sim_throughput -- repro`)"
            );
            failed = true;
        }
    }
    match json_lookup(&doc, "repair_pipeline_ratio_per_code") {
        Some(serde_json::Value::Map(entries)) if !entries.is_empty() => {
            for (code, v) in entries {
                let replication = code.ends_with("-rep");
                match json_f64(v) {
                    Some(r) if r > 0.0 && (r < 1.0 || (replication && r <= 1.0 + 1e-6)) => {
                        println!("OK:   repair_pipeline_ratio[{code}] = {r:.3}");
                    }
                    Some(r) => {
                        eprintln!(
                            "FAIL: repair_pipeline_ratio[{code}] = {r:.3} — every \
                             erasure code's pipelined repair must be strictly \
                             faster than serial"
                        );
                        failed = true;
                    }
                    None => {
                        eprintln!("FAIL: repair_pipeline_ratio[{code}] is not numeric");
                        failed = true;
                    }
                }
            }
        }
        _ => {
            eprintln!(
                "FAIL: `repair_pipeline_ratio_per_code` missing or empty in \
                 {SIM_BENCH_JSON_PATH} (stale snapshot? re-run `cargo bench -p \
                 drc_bench --bench sim_throughput -- repro`)"
            );
            failed = true;
        }
    }
    // The metadata-plane size headline is a deterministic layout property
    // (allocator-measured resident bytes per block of the compact placement
    // index), so it is enforced unconditionally on any host. The query-rate
    // headlines are wall-clock and therefore advisory: missing or
    // non-positive values WARN without failing the build.
    match json_lookup(&doc, "meta_bytes_per_block").and_then(json_f64) {
        Some(v) if v > 0.0 && v <= META_MAX_BYTES_PER_BLOCK => {
            println!(
                "OK:   meta_bytes_per_block = {v:.1} B (ceiling {META_MAX_BYTES_PER_BLOCK} B)"
            );
        }
        Some(v) => {
            eprintln!(
                "FAIL: meta_bytes_per_block = {v:.1} B — the compact placement \
                 index must stay within {META_MAX_BYTES_PER_BLOCK} B per block"
            );
            failed = true;
        }
        None => {
            eprintln!(
                "FAIL: `meta_bytes_per_block` missing from {SIM_BENCH_JSON_PATH} \
                 (stale snapshot? re-run `cargo bench -p drc_bench --bench \
                 sim_throughput -- repro`)"
            );
            failed = true;
        }
    }
    for name in ["meta_lookups_per_s", "meta_repair_scan_blocks_per_s"] {
        match json_lookup(&doc, name).and_then(json_f64) {
            Some(v) if v > 0.0 => println!("OK:   {name} = {v:.3e} (advisory)"),
            Some(v) => println!("WARN: {name} = {v:.3e} — expected a positive rate"),
            None => println!("WARN: `{name}` missing from {SIM_BENCH_JSON_PATH}"),
        }
    }
    // The MapReduce scheduling-plane ledger (engine tasks/s, delay-scheduler
    // ns per placed task, ns per shuffle-fetch `Transfer`) is wall-clock, so
    // its values are advisory — but every snapshot must carry all three, and
    // a non-positive one means the probe measured nothing.
    for (name, unit) in [
        ("mr_tasks_per_s", "map tasks/s"),
        ("delay_assign_ns_per_task", "ns"),
        ("transfer_issue_ns", "ns"),
    ] {
        match json_lookup(&doc, name).and_then(json_f64) {
            Some(v) if v > 0.0 => println!("OK:   {name} = {v:.4e} {unit} (advisory)"),
            Some(v) => {
                eprintln!("FAIL: {name} = {v} — expected a positive measurement");
                failed = true;
            }
            None => {
                eprintln!(
                    "FAIL: `{name}` missing from {SIM_BENCH_JSON_PATH} \
                     (stale snapshot? re-run `cargo bench -p drc_bench --bench \
                     sim_throughput -- repro`)"
                );
                failed = true;
            }
        }
    }
    // The CPUs of the host the *snapshot was measured on* — the gate may run
    // elsewhere than the bench, so its own CPU count proves nothing. Older
    // snapshots without the stamp fall back to this host (CI runs bench and
    // gate back-to-back on one runner).
    let bench_cpus = json_lookup(&doc, "provenance")
        .and_then(|p| json_lookup(p, "host_cpus"))
        .and_then(json_f64)
        .map(|n| n as usize)
        .unwrap_or_else(|| {
            let local = drc_bench::host_cpus();
            println!(
                "NOTE: {SIM_BENCH_JSON_PATH} predates the provenance.host_cpus stamp; \
                 assuming it was measured on this host ({local} CPUs)."
            );
            local
        });
    // The quick-repro wall time must exist and be positive on any host —
    // it is the denominator of the cell-speedup trajectory CI tracks.
    match json_lookup(&doc, "repro_wall_s").and_then(json_f64) {
        Some(v) if v > 0.0 => {
            println!("OK:   repro_wall_s = {v:.1}s (quick repro through the cell harness)");
        }
        Some(v) => {
            eprintln!("FAIL: repro_wall_s = {v} — expected a positive wall time");
            failed = true;
        }
        None => {
            eprintln!(
                "FAIL: `repro_wall_s` missing from {SIM_BENCH_JSON_PATH} \
                 (stale snapshot? re-run `cargo bench -p drc_bench --bench \
                 sim_throughput -- repro`)"
            );
            failed = true;
        }
    }
    // The cell-harness speedup follows the same hardware tiers as the
    // stripe-encode gate below: SKIP on single-job or oversubscribed
    // snapshots, advisory below HARD_GATE_MIN_CPUS, enforced at or above.
    let repro_jobs = json_lookup(&doc, "repro_jobs")
        .and_then(json_f64)
        .unwrap_or(0.0);
    match json_lookup(&doc, "repro_cell_speedup").and_then(json_f64) {
        None => {
            eprintln!("FAIL: `repro_cell_speedup` missing from {SIM_BENCH_JSON_PATH}");
            failed = true;
        }
        Some(s) if repro_jobs < 2.0 => {
            println!(
                "SKIP: repro_cell_speedup = {s:.2}x was measured with \
                 repro_jobs={repro_jobs}; a single-job run cannot show a \
                 speedup — re-run the snapshot with a multi-thread pool."
            );
        }
        Some(s) if (bench_cpus as f64) < repro_jobs => {
            println!(
                "SKIP: repro_cell_speedup = {s:.2}x with {repro_jobs} jobs on a \
                 {bench_cpus}-CPU host — an oversubscribed run time-slices \
                 cores and cannot show a speedup."
            );
        }
        Some(s) if s >= MIN_SPEEDUP => {
            println!(
                "OK:   repro_cell_speedup = {s:.2}x at {repro_jobs} jobs \
                 (floor {MIN_SPEEDUP}x, bench host {bench_cpus} CPUs)"
            );
        }
        Some(s) if bench_cpus < HARD_GATE_MIN_CPUS => {
            println!(
                "WARN: repro_cell_speedup = {s:.2}x at {repro_jobs} jobs is \
                 below the {MIN_SPEEDUP}x floor (advisory on a {bench_cpus}-CPU \
                 bench host)"
            );
        }
        Some(s) => {
            eprintln!(
                "FAIL: repro_cell_speedup = {s:.2}x at {repro_jobs} jobs is \
                 below the {MIN_SPEEDUP}x floor on a {bench_cpus}-CPU bench host"
            );
            failed = true;
        }
    }
    if failed {
        // Fatal regardless of what the hardware-dependent gate below would
        // decide: the SKIP/advisory escape hatches are for wall-clock
        // scaling, not for broken virtual-time accounting or a missing
        // repro headline.
        std::process::exit(1);
    }
    let threads = match json_lookup(&doc, "multi_threads").and_then(json_f64) {
        Some(t) => t,
        None => {
            eprintln!("FAIL: {SIM_BENCH_JSON_PATH} has no numeric `multi_threads` field");
            std::process::exit(1);
        }
    };
    if threads < 2.0 {
        println!(
            "SKIP: BENCH_sim.json was produced with multi_threads={threads}, so a \
             speedup of ~1.0 is the honest result for that run; re-run the sim \
             snapshot with a multi-thread pool to gate scaling."
        );
        return;
    }
    if (bench_cpus as f64) < threads {
        println!(
            "SKIP: BENCH_sim.json was measured with {threads} pool threads on a \
             {bench_cpus}-CPU host — an oversubscribed run time-slices cores and \
             cannot show a speedup (~1.0 or below is expected). Re-run the sim \
             snapshot on a host with >= {threads} CPUs to validate the \
             >= {MIN_SPEEDUP}x scaling."
        );
        return;
    }
    let enforced = bench_cpus >= HARD_GATE_MIN_CPUS;
    if !enforced {
        println!(
            "NOTE: bench host had {bench_cpus} CPUs (< {HARD_GATE_MIN_CPUS}); \
             memory-bandwidth-bound stripe encode cannot reliably reach \
             {MIN_SPEEDUP}x there, so the floor is advisory (WARN, not FAIL)."
        );
    }

    for name in GATED {
        match json_lookup(speedups, name).and_then(json_f64) {
            Some(s) if s >= MIN_SPEEDUP => {
                println!(
                    "OK:   {name} stripe-encode speedup {s:.2}x at {threads} threads \
                     (floor {MIN_SPEEDUP}x, bench host {bench_cpus} CPUs)"
                );
            }
            Some(s) if !enforced => {
                println!(
                    "WARN: {name} stripe-encode speedup {s:.2}x at {threads} threads \
                     is below the {MIN_SPEEDUP}x floor (advisory on a {bench_cpus}-CPU \
                     bench host)"
                );
            }
            Some(s) => {
                eprintln!(
                    "FAIL: {name} stripe-encode speedup {s:.2}x at {threads} threads \
                     is below the {MIN_SPEEDUP}x floor on a {bench_cpus}-CPU bench host"
                );
                failed = true;
            }
            None => {
                eprintln!("FAIL: `parallel_speedup.{name}` missing from {SIM_BENCH_JSON_PATH}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("multi-core stripe-encode speedup gate passed");
}
