//! The metric tables: every name the benchmark reports, with its unit, its
//! direction and whether it is measured in host time or is an exact output
//! of the simulated model. `BENCHMARK.json` lists the same names (a unit
//! test holds the two together).

use crate::workload::LAYERS;

/// What a value is measured in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// Host time, counters or memory: subject to the host's noise.
    Host,
    /// Virtual time or byte counts of the simulated model: repeats exactly
    /// for a given seed, on any host.
    Simulated,
}

impl Base {
    pub fn label(self) -> &'static str {
        match self {
            Base::Host => "host",
            Base::Simulated => "simulated",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub base: Base,
    /// For an end-to-end metric, the share of the parent's median it may
    /// worsen by before a change counts as a regression.
    pub bound: f64,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str, base: Base) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        base,
        bound: 0.0,
    }
}

/// The end-to-end metrics: what someone running the system sees. Every
/// workload reports each, from untraced iterations only.
pub fn end_to_end() -> Vec<Def> {
    let host = |name, unit, better, bound| Def {
        bound,
        ..def(name, unit, better, Base::Host)
    };
    vec![
        host("setup_s", "s", "lower", 0.25),
        host("wall_s", "s", "lower", 0.25),
        host("cpu_s", "s", "lower", 0.25),
        host("work_per_s", "1/s", "higher", 0.25),
        host("peak_rss_mib", "MiB", "lower", 0.15),
    ]
}

pub const BYTE_CODES: [&str; 5] = ["rep2", "pentagon", "heptagon", "heptagon-local", "rs-10-4"];
pub const MR_CODES: [&str; 5] = ["rep3", "rep2", "pentagon", "heptagon", "heptagon-local"];
pub const SCHEDULERS: [&str; 3] = ["delay", "max-matching", "peeling"];

/// The per-layer metrics of a traced run, in report order. The prefix of a
/// name is the crate it measures; `proc.` is the process, `model.` the
/// workload's simulated outputs, `self_share.` the split of the traced
/// iteration's wall time.
pub fn per_layer() -> Vec<Def> {
    use Base::{Host, Simulated};
    let mut v = Vec::new();
    let per = |v: &mut Vec<Def>, stem: &str, names: &[&str], unit, better, base| {
        for n in names {
            v.push(def(format!("{stem}.{n}"), unit, better, base));
        }
    };

    for name in [
        "gf.mul_acc_gib_s",
        "gf.xor_gib_s",
        "gf.matrix_mul_into_gib_s",
        "gf.matrix_mul_batch_gib_s",
        "gf.rs_encode_into_gib_s",
        "gf.rs_reconstruct_into_gib_s",
    ] {
        v.push(def(name, "GiB/s", "higher", Host));
    }
    v.push(def("gf.matrix_mul_efficiency", "ratio", "higher", Host));
    v.push(def("gf.rs_reconstruct_efficiency", "ratio", "higher", Host));
    v.push(def("gf.bufpool_hit_rate", "ratio", "higher", Host));
    v.push(def("gf.bufpool_take_ns", "ns", "lower", Host));

    per(
        &mut v,
        "codes.encode_gib_s",
        &BYTE_CODES,
        "GiB/s",
        "higher",
        Host,
    );
    v.push(def(
        "codes.encode_efficiency.rs-10-4",
        "ratio",
        "higher",
        Host,
    ));
    per(
        &mut v,
        "codes.reconstruct_gib_s",
        &BYTE_CODES,
        "GiB/s",
        "higher",
        Host,
    );
    per(&mut v, "codes.plan_us", &BYTE_CODES, "us", "lower", Host);

    for name in [
        "cluster.place_stripes_per_s",
        "cluster.index_build_blocks_per_s",
        "cluster.index_lookups_per_s",
    ] {
        v.push(def(name, "1/s", "higher", Host));
    }
    v.push(def(
        "cluster.index_bytes_per_block",
        "B",
        "lower",
        Simulated,
    ));
    v.push(def(
        "cluster.repair_scan_blocks_per_s",
        "1/s",
        "higher",
        Host,
    ));
    v.push(def(
        "cluster.trace_poisson_events_per_s",
        "1/s",
        "higher",
        Host,
    ));

    for name in [
        "sim.reserve_ns",
        "sim.event_queue_ns",
        "sim.transfer_ns",
        "sim.pull_train_ns_per_chunk",
        "sim.push_train_ns_per_chunk",
        "sim.timeline_record_ns",
    ] {
        v.push(def(name, "ns", "lower", Host));
    }

    per(
        &mut v,
        "hdfs.write_mib_s",
        &BYTE_CODES,
        "MiB/s",
        "higher",
        Host,
    );
    per(
        &mut v,
        "hdfs.read_mib_s",
        &BYTE_CODES,
        "MiB/s",
        "higher",
        Host,
    );
    per(
        &mut v,
        "hdfs.write_efficiency",
        &BYTE_CODES,
        "ratio",
        "higher",
        Host,
    );
    v.push(def("hdfs.write_file_ms_p90", "ms", "lower", Host));
    per(
        &mut v,
        "hdfs.degraded_read_mib_s",
        &BYTE_CODES,
        "MiB/s",
        "higher",
        Host,
    );
    per(
        &mut v,
        "hdfs.repair_mib_s",
        &BYTE_CODES,
        "MiB/s",
        "higher",
        Host,
    );
    v.push(def("hdfs.repair_pass_ms_p90", "ms", "lower", Host));
    per(
        &mut v,
        "hdfs.repair_net_bytes_per_lost_byte",
        &BYTE_CODES,
        "ratio",
        "lower",
        Simulated,
    );

    v.push(def("mapreduce.tasks_per_s", "1/s", "higher", Host));
    per(
        &mut v,
        "mapreduce.assign_us_per_task",
        &SCHEDULERS,
        "us",
        "lower",
        Host,
    );
    v.push(def(
        "mapreduce.locality_trials_per_s",
        "1/s",
        "higher",
        Host,
    ));
    per(
        &mut v,
        "mapreduce.locality_pct",
        &MR_CODES,
        "%",
        "higher",
        Simulated,
    );
    per(
        &mut v,
        "mapreduce.job_virtual_s",
        &MR_CODES,
        "sim_s",
        "lower",
        Simulated,
    );

    v.push(def("reliability.markov_solve_us", "us", "lower", Host));
    v.push(def(
        "reliability.montecarlo_trials_per_s",
        "1/s",
        "higher",
        Host,
    ));
    v.push(def("workloads.provision_us", "us", "lower", Host));

    per(
        &mut v,
        "core.wall_ms",
        crate::surface::experiment_names(),
        "ms",
        "lower",
        Host,
    );

    v.push(def("proc.sys_share", "ratio", "lower", Host));
    v.push(def("proc.minor_faults", "count", "lower", Host));
    v.push(def("proc.wall_s_max", "s", "lower", Host));
    v.push(def("proc.trace_overhead", "ratio", "lower", Host));

    v.push(def("model.virtual_s", "sim_s", "lower", Simulated));
    v.push(def(
        "model.net_bytes_per_user_byte",
        "ratio",
        "lower",
        Simulated,
    ));
    v.push(def(
        "model.stored_bytes_per_user_byte",
        "ratio",
        "lower",
        Simulated,
    ));
    v.push(def("model.locality_pct", "%", "higher", Simulated));

    // A share has no better direction of its own; "lower" is nominal.
    per(&mut v, "self_share", &LAYERS, "ratio", "lower", Host);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{json_f64, json_lookup, Value};

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<Def> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(per_layer().len() <= 128);
        for d in &all {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{d:?}");
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
        }
        assert!(end_to_end()
            .iter()
            .all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn code_and_scheduler_names_are_the_surfaces() {
        use crate::surface::{byte_codes, mr_codes, schedulers};
        let names =
            |codes: Vec<crate::surface::Code>| -> Vec<_> { codes.iter().map(|c| c.name).collect() };
        assert_eq!(names(byte_codes().unwrap()), BYTE_CODES);
        assert_eq!(names(mr_codes().unwrap()), MR_CODES);
        assert_eq!(schedulers().map(|s| s.0), SCHEDULERS);
    }

    fn listed(section: &Value) -> Vec<(String, String, String, Option<f64>)> {
        let Value::Seq(items) = section else {
            panic!("section is not a list");
        };
        let text = |item: &Value, key: &str| match json_lookup(item, key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        items
            .iter()
            .map(|i| {
                let bound = json_lookup(i, "bound").and_then(json_f64);
                (text(i, "name"), text(i, "unit"), text(i, "better"), bound)
            })
            .collect()
    }

    /// `BENCHMARK.json` at the repo root declares exactly the metrics the
    /// code reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let want = |defs: Vec<Def>, with_bound: bool| -> Vec<_> {
            defs.into_iter()
                .map(|d| {
                    let bound = with_bound.then_some(d.bound);
                    (d.name, d.unit.to_string(), d.better.to_string(), bound)
                })
                .collect()
        };
        assert_eq!(
            listed(json_lookup(&json, "end_to_end").expect("end_to_end")),
            want(end_to_end(), true)
        );
        assert_eq!(
            listed(json_lookup(&json, "per_layer").expect("per_layer")),
            want(per_layer(), false)
        );
        let Some(Value::Seq(workloads)) = json_lookup(&json, "workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<String> = workloads
            .iter()
            .map(|w| match json_lookup(w, "name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("workload name: {other:?}"),
            })
            .collect();
        assert_eq!(names, crate::workload::WORKLOADS);
    }
}
