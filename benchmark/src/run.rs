//! Runs one workload in this process and reports it.
//!
//! Load shape: a closed loop with one client. Set-up builds the inputs and
//! runs one warm-up iteration (the buffer pool fills, lazy tables are built)
//! — three times over, reporting the median; then whole iterations of fixed work repeat until `--seconds` have passed,
//! and timings are reported as medians over those iterations. A traced run
//! alternates untraced and traced iterations (their ratio is the tracing
//! overhead), then replays the layers below and measures the ledger.

use std::path::Path;
use std::time::Instant;

use crate::fail_repair::FailRepair;
use crate::ingest_read::IngestRead;
use crate::ledger::{self, Ledger};
use crate::metrics::{self, Def};
use crate::mr_sweep::MrSweep;
use crate::procfs;
use crate::repro_quick::ReproQuick;
use crate::stats::{max, median};
use crate::surface::{self, Failure, Value};
use crate::trace;
use crate::workload::{fingerprint, ratio, Attribution, Checks, Iteration, Size, Workload, LAYERS};

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    /// How long the timed iterations go on for, in seconds.
    pub seconds: f64,
    pub trace: bool,
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub def: Def,
    pub value: f64,
}

/// What a run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub plan: Plan,
    pub work_unit: &'static str,
    /// Timed untraced iterations.
    pub iterations: usize,
    /// Timed traced iterations (0 in an untraced run).
    pub traced_iterations: usize,
    pub checks: Checks,
    /// FNV-1a of the first timed iteration's non-wall-clock output.
    pub fingerprint: String,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run), in table order.
    pub metrics: Vec<Measured>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The one-line result the driver reads: `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.def.name.clone(),
                    Value::Map(vec![
                        ("value".to_string(), Value::Float(m.value)),
                        ("unit".to_string(), Value::Str(m.def.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::UInt(self.checks.attempted)),
            ("failed".to_string(), Value::UInt(self.checks.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a Value tree serialises")
    }

    /// Every metric by name with unit and time base, for people.
    pub fn table(&self) -> String {
        let p = &self.plan;
        let mut out = format!(
            "workload {} seed {} trace {} | {} timed iterations (+{} traced) of fixed work \
             ({}) in a closed loop, 1 client, 1 thread | checks {}/{} ok | fingerprint {}\n",
            p.workload,
            p.seed,
            u8::from(p.trace),
            self.iterations,
            self.traced_iterations,
            self.work_unit,
            self.checks.attempted - self.checks.failed,
            self.checks.attempted,
            self.fingerprint,
        );
        for note in &self.checks.notes {
            out.push_str(&format!("  FAILED CHECK: {note}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<46} {:>16.6} {:<6} [{}]\n",
                m.def.name,
                m.value,
                m.def.unit,
                m.def.base.label()
            ));
        }
        out
    }
}

fn build(name: &str, seed: u64, size: &Size) -> Result<Box<dyn Workload>, Failure> {
    Ok(match name {
        "ingest_read" => Box::new(IngestRead::new(seed, size)?),
        "fail_repair" => Box::new(FailRepair::new(seed, size)?),
        "mr_sweep" => Box::new(MrSweep::new(seed, size)?),
        "repro_quick" => Box::new(ReproQuick),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Runs `plan` at `size`; a traced run writes `trace-<workload>.json` into
/// `out_dir`.
pub fn run(plan: &Plan, size: &Size, out_dir: &Path) -> Result<Report, Failure> {
    surface::single_threaded(|| run_pinned(plan, size, out_dir))
}

fn run_pinned(plan: &Plan, size: &Size, out_dir: &Path) -> Result<Report, Failure> {
    let mut checks = Checks::default();
    // Under a test harness the process already has other threads; the
    // one-client check then only covers the product's worker pool.
    let alone_at_start = procfs::stat().is_none_or(|s| s.threads == 1);
    // Set-up = inputs built + one warm-up iteration. It runs `setup_repeats`
    // times (each on a fresh instance) and the median is reported: the first
    // set-up of a process also pays first-touch page faults that scatter by
    // ±50 % on this host. The last instance goes on to the timed iterations.
    let mut setups = Vec::with_capacity(size.setup_repeats);
    let mut w = loop {
        let setup = Instant::now();
        let mut w = build(&plan.workload, plan.seed, size)?;
        w.iterate(0, &mut checks)?;
        setups.push(setup.elapsed().as_secs_f64());
        if setups.len() >= size.setup_repeats {
            break w;
        }
    };
    let setup_s = median(&setups);

    // A traced run spends half its time on iterations; the replays and the
    // ledger take the other half.
    let budget = if plan.trace {
        plan.seconds / 2.0
    } else {
        plan.seconds
    };
    let pool_before = surface::bufpool_counters();
    let mut plain: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let started = Instant::now();
    let mut iter = 1u32;
    loop {
        let tracing = plan.trace && iter.is_multiple_of(2);
        trace::enable(tracing);
        trace::set_iter(iter);
        let it = trace::span("bench", "iteration", &plan.workload, || {
            w.iterate(iter, &mut checks)
        })?;
        trace::enable(false);
        (if tracing { &mut traced } else { &mut plain }).push(it);
        iter += 1;
        let sampled = !plain.is_empty() && (!plan.trace || !traced.is_empty());
        if sampled && started.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    let pool_after = surface::bufpool_counters();
    let peak_rss_mib = procfs::peak_rss_mib().unwrap_or(0.0);

    let first = &plain[0];
    if w.iterations_repeat() {
        let same = plain.iter().chain(&traced).all(|i| i.canon == first.canon);
        checks.check(same, || {
            "iterations of identical work produced different outputs".to_string()
        });
    }
    let threads = procfs::stat().map_or(1, |s| s.threads);
    let workers = surface::pool_workers();
    checks.check(workers == 0 && (!alone_at_start || threads == 1), || {
        format!("{threads} threads, {workers} pool workers: the one client must be alone")
    });

    let walls: Vec<f64> = plain.iter().map(|i| i.meter.wall_s).collect();
    let wall_s = median(&walls);
    let metrics = if plan.trace {
        let mut l = ledger::measure(plan.seed)?;
        trace::enable(true);
        let outcome = traced_metrics(&mut l, w.as_mut(), &plain, &traced, pool_before, pool_after);
        trace::enable(false);
        outcome?;
        let spans = trace::spans();
        let path = out_dir.join(format!("trace-{}.json", plan.workload));
        trace::write_chrome(&spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        metrics::per_layer()
            .into_iter()
            .map(|def| match l.0.get(&def.name) {
                Some(&value) if value.is_finite() => Ok(Measured { def, value }),
                other => Err(format!(
                    "per-layer metric {} not measured ({other:?})",
                    def.name
                )),
            })
            .collect::<Result<Vec<_>, _>>()?
    } else {
        let cpu: Vec<f64> = plain.iter().map(|i| i.meter.proc.on_cpu_s).collect();
        let rates: Vec<f64> = plain
            .iter()
            .map(|i| ratio(i.work, i.meter.wall_s))
            .collect();
        let values = [setup_s, wall_s, median(&cpu), median(&rates), peak_rss_mib];
        metrics::end_to_end()
            .into_iter()
            .zip(values)
            .map(|(def, value)| Measured { def, value })
            .collect()
    };

    Ok(Report {
        plan: plan.clone(),
        work_unit: w.work_unit(),
        iterations: plain.len(),
        traced_iterations: traced.len(),
        fingerprint: fingerprint(&first.canon),
        checks,
        metrics,
    })
}

/// Fills in what only the workload's own iterations can tell: the process
/// counters, the simulated outputs, the split of the traced iteration into
/// per-layer self time, and the per-experiment wall times.
fn traced_metrics(
    l: &mut Ledger,
    w: &mut dyn Workload,
    plain: &[Iteration],
    traced: &[Iteration],
    pool_before: (u64, u64),
    pool_after: (u64, u64),
) -> Result<(), Failure> {
    let walls: Vec<f64> = plain.iter().map(|i| i.meter.wall_s).collect();
    let traced_walls: Vec<f64> = traced.iter().map(|i| i.meter.wall_s).collect();
    let mut ticks = procfs::ProcStat::default();
    for i in plain {
        ticks.user_s += i.meter.proc.user_s;
        ticks.sys_s += i.meter.proc.sys_s;
    }
    let faults: Vec<f64> = plain
        .iter()
        .map(|i| i.meter.proc.minor_faults as f64)
        .collect();
    l.put("proc.sys_share", ticks.sys_share());
    l.put("proc.minor_faults", median(&faults));
    l.put("proc.wall_s_max", max(&walls));
    l.put(
        "proc.trace_overhead",
        median(&traced_walls) / median(&walls) - 1.0,
    );

    // No pool-eligible take in the timed iterations means nothing missed.
    let hits = (pool_after.0 - pool_before.0) as f64;
    let misses = (pool_after.1 - pool_before.1) as f64;
    l.put(
        "gf.bufpool_hit_rate",
        if hits + misses == 0.0 {
            1.0
        } else {
            hits / (hits + misses)
        },
    );

    let model = plain[0].model;
    l.put("model.virtual_s", model.virtual_s);
    l.put(
        "model.net_bytes_per_user_byte",
        model.net_bytes_per_user_byte(),
    );
    l.put(
        "model.stored_bytes_per_user_byte",
        model.stored_bytes_per_user_byte(),
    );
    l.put("model.locality_pct", model.locality_pct);

    let spans = trace::spans();
    let top = entered_per_iteration(&spans);
    let own = trace::span("bench", "attribution replays", "", || w.attribute(&top))?;
    let traced_wall = median(&traced_walls);
    for layer in LAYERS {
        let share = ratio(own.get(layer).copied().unwrap_or(0.0), traced_wall);
        l.put(format!("self_share.{layer}"), share);
    }
    ledger::core_wall_ms(l, &spans);
    Ok(())
}

/// Median over the traced iterations of the seconds spent in each layer the
/// workload enters: the spans directly under an iteration's root.
fn entered_per_iteration(spans: &[trace::Span]) -> Attribution {
    let roots: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.layer == "bench" && s.name == "iteration")
        .map(|(i, _)| i)
        .collect();
    let mut out = Attribution::new();
    for layer in LAYERS {
        let per_iter: Vec<f64> = roots
            .iter()
            .map(|&root| {
                spans
                    .iter()
                    .filter(|s| s.parent == Some(root) && s.layer == layer)
                    .map(trace::Span::secs)
                    .sum()
            })
            .collect();
        let m = median(&per_iter);
        if m > 0.0 {
            out.insert(layer, m);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::json_lookup;
    use std::path::PathBuf;

    fn out_dir(tag: &str) -> PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{tag}-{}", std::process::id()))
    }

    fn plan(workload: &str, seed: u64, trace: bool) -> Plan {
        Plan {
            workload: workload.to_string(),
            seed,
            seconds: 0.0,
            trace,
        }
    }

    /// One iteration of `workload` at tiny size, untraced and traced: every
    /// named metric is reported, no check fails, the result line parses and
    /// the traced run leaves a loadable Chrome trace.
    fn smoke(workload: &str) {
        let dir = out_dir(workload);
        for trace in [false, true] {
            let report = run(&plan(workload, 7, trace), &Size::tiny(), &dir).expect("runs");
            assert_eq!(report.checks.failed, 0, "{:?}", report.checks.notes);
            assert!(report.checks.attempted > 0 && report.correct());
            assert_eq!(
                (report.iterations, report.traced_iterations),
                (1, usize::from(trace))
            );
            let want = if trace {
                metrics::per_layer()
            } else {
                metrics::end_to_end()
            };
            let got: Vec<&Def> = report.metrics.iter().map(|m| &m.def).collect();
            assert_eq!(got, want.iter().collect::<Vec<_>>());
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                for m in &report.metrics {
                    assert!(m.value > 0.0, "{} must never be 0", m.def.name);
                }
            }

            let line = serde_json::parse(&report.result_line()).expect("result line is JSON");
            let Some(Value::Map(listed)) = json_lookup(&line, "metrics") else {
                panic!("metrics missing from the result line");
            };
            assert_eq!(listed.len(), want.len());
            assert_eq!(json_lookup(&line, "correct"), Some(&Value::Bool(true)));
            assert_eq!(json_lookup(&line, "failed"), Some(&Value::UInt(0)));
            assert!(report.table().contains(&want[0].name));
        }
        let trace_file = dir.join(format!("trace-{workload}.json"));
        let text = std::fs::read_to_string(&trace_file).expect("trace written");
        std::fs::remove_dir_all(&dir).ok();
        let json = serde_json::parse(&text).expect("trace is JSON");
        match json_lookup(&json, "traceEvents") {
            Some(Value::Seq(events)) => assert!(events.len() > 10, "{} events", events.len()),
            other => panic!("traceEvents: {other:?}"),
        }
    }

    #[test]
    fn ingest_read_smoke() {
        smoke("ingest_read");
    }

    #[test]
    fn fail_repair_smoke() {
        smoke("fail_repair");
    }

    #[test]
    fn mr_sweep_smoke() {
        smoke("mr_sweep");
    }

    /// Also holds the per-experiment path of traced iterations to the
    /// fingerprint of `quick_repro_results()`: the run's "iterations repeat"
    /// check compares the untraced and the traced iteration.
    #[test]
    fn repro_quick_smoke() {
        smoke("repro_quick");
    }

    #[test]
    fn the_seed_decides_the_inputs() {
        let dir = out_dir("seed");
        let fp = |seed| {
            run(&plan("fail_repair", seed, false), &Size::tiny(), &dir)
                .expect("runs")
                .fingerprint
        };
        assert_eq!(fp(1), fp(1));
        assert_ne!(fp(1), fp(2), "other victims, other repair reports");
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(run(&plan("nope", 1, false), &Size::tiny(), &out_dir("nope")).is_err());
    }
}
