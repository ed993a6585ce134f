//! `compare A.json B.json`: the change's `result.json` (B) against the
//! parent's (A), metric by metric and workload by workload.
//!
//! * An end-to-end metric is **within** its bound, a **breach** (the
//!   change's median is worse than the parent's by more than the bound), or
//!   **unresolved**: the run-to-run spread of either side is wider than the
//!   bound, so the two cannot be told apart — unless every run of the change
//!   reads better than every run of the parent.
//! * A simulated metric and a fingerprint must be **identical**.
//!
//! Exits non-zero on any breach or difference. The bounds are those of
//! `BENCHMARK.json` (a unit test keeps the compiled table equal to it).

use crate::metrics::{self, Base, Def};
use crate::stats::{median, spread};
use crate::surface::{json_f64, json_lookup, Value};
use crate::workload::WORKLOADS;

/// How a metric of the change stands against the parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Breach,
    Unresolved,
}

/// The verdict for one metric, with how much worse the change's median is
/// (as a share of the parent's; negative = better) and the wider of the two
/// sides' spreads.
pub fn verdict(def: &Def, parent: &[f64], change: &[f64]) -> (Verdict, f64, f64) {
    let lower = def.better == "lower";
    let (pm, cm) = (median(parent), median(change));
    let worse_by = if pm == 0.0 {
        0.0
    } else if lower {
        (cm - pm) / pm.abs()
    } else {
        (pm - cm) / pm.abs()
    };
    let wide = spread(parent).max(spread(change));
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| if lower { c < p } else { c > p }));
    let v = if wide > def.bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Breach
    } else {
        Verdict::Within
    };
    (v, worse_by, wide)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn samples(result: &Value, workload: &str, section: &str, metric: &str) -> Option<Vec<f64>> {
    let m = json_lookup(
        json_lookup(
            json_lookup(json_lookup(result, "workloads")?, workload)?,
            section,
        )?,
        metric,
    )?;
    match json_lookup(m, "samples")? {
        Value::Seq(items) => items.iter().map(json_f64).collect(),
        _ => None,
    }
}

fn fingerprints<'a>(result: &'a Value, workload: &str) -> Option<&'a Value> {
    json_lookup(
        json_lookup(json_lookup(result, "workloads")?, workload)?,
        "fingerprint",
    )
}

/// Compares two result files; `Ok(true)` when nothing breached or differed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: compare <parent result.json> <change result.json>".to_string());
    };
    let (parent, change) = (load(a)?, load(b)?);
    let mut bad = 0;
    let mut unresolved = 0;
    for workload in WORKLOADS {
        println!("{workload}");
        for def in metrics::end_to_end() {
            let (Some(p), Some(c)) = (
                samples(&parent, workload, "end_to_end", &def.name),
                samples(&change, workload, "end_to_end", &def.name),
            ) else {
                println!("  {:<34} MISSING", def.name);
                bad += 1;
                continue;
            };
            let (v, worse_by, wide) = verdict(&def, &p, &c);
            match v {
                Verdict::Breach => bad += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Within => {}
            }
            println!(
                "  {:<34} {:>14.6} -> {:>14.6} {:<5} worse by {:>+8.2} % (bound {:.0} %, spread {:.2} %) {}",
                def.name,
                median(&p),
                median(&c),
                def.unit,
                worse_by * 100.0,
                def.bound * 100.0,
                wide * 100.0,
                match v {
                    Verdict::Within => "within",
                    Verdict::Breach => "BREACH",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for def in metrics::per_layer()
            .into_iter()
            .filter(|d| d.base == Base::Simulated)
        {
            let p = samples(&parent, workload, "per_layer", &def.name);
            let c = samples(&change, workload, "per_layer", &def.name);
            if p != c || p.is_none() {
                println!("  {:<34} DIFFERS (simulated): {p:?} -> {c:?}", def.name);
                bad += 1;
            }
        }
        let (fp, fc) = (
            fingerprints(&parent, workload),
            fingerprints(&change, workload),
        );
        let one = |f: Option<&Value>| matches!(f, Some(Value::Seq(items)) if items.len() == 1);
        if fp != fc || !one(fp) {
            println!("  fingerprint DIFFERS: {fp:?} -> {fc:?}");
            bad += 1;
        } else {
            println!("  fingerprint and simulated metrics identical");
        }
    }
    println!("{bad} breached or differing, {unresolved} unresolved");
    Ok(bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower() -> Def {
        metrics::end_to_end()
            .into_iter()
            .find(|d| d.name == "wall_s")
            .unwrap()
    }

    fn higher() -> Def {
        metrics::end_to_end()
            .into_iter()
            .find(|d| d.name == "work_per_s")
            .unwrap()
    }

    #[test]
    fn within_when_the_median_moves_less_than_the_bound() {
        let (v, worse, _) = verdict(&lower(), &[1.00, 1.01, 0.99], &[1.20, 1.21, 1.19]);
        assert_eq!(v, Verdict::Within);
        assert!((worse - 0.20).abs() < 1e-9);
        assert_eq!(verdict(&higher(), &[100.0], &[80.0]).0, Verdict::Within);
        // Better is never a breach, however far.
        assert_eq!(verdict(&lower(), &[1.0], &[0.5]).0, Verdict::Within);
    }

    #[test]
    fn breach_when_worse_by_more_than_the_bound() {
        assert_eq!(
            verdict(&lower(), &[1.00, 1.01, 0.99], &[1.30, 1.31, 1.29]).0,
            Verdict::Breach
        );
        assert_eq!(verdict(&higher(), &[100.0], &[70.0]).0, Verdict::Breach);
    }

    #[test]
    fn unresolved_when_the_spread_exceeds_the_bound() {
        // Parent's runs scatter by far more than the 25 % bound.
        let noisy = [1.0, 1.6, 0.6, 1.5, 0.7];
        assert_eq!(
            verdict(&lower(), &noisy, &[1.05, 1.0, 1.1]).0,
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every run of the parent.
        assert_eq!(
            verdict(&lower(), &noisy, &[0.4, 0.5, 0.45]).0,
            Verdict::Within
        );
    }

    #[test]
    fn samples_are_read_from_a_result_tree() {
        let json = r#"{"workloads":{"mr_sweep":{"fingerprint":["ab"],
            "end_to_end":{"wall_s":{"value":1.5,"samples":[1.0,2.0]}}}}}"#;
        let v = serde_json::parse(json).unwrap();
        assert_eq!(
            samples(&v, "mr_sweep", "end_to_end", "wall_s"),
            Some(vec![1.0, 2.0])
        );
        assert_eq!(samples(&v, "mr_sweep", "end_to_end", "cpu_s"), None);
        assert!(fingerprints(&v, "mr_sweep").is_some());
    }
}
