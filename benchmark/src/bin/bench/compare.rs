//! `bench compare A.json B.json`: one row per (end-to-end metric, workload).
//!
//! A is the base of every ratio. A timing row is `unresolved` when either
//! side's inter-quartile range exceeds the metric's bound — the runs cannot
//! tell a change of that size from noise — and otherwise `worse` / `better`
//! when B's reported value lies beyond the bound from A's, else `same`.
//! (The three set-ups behind `setup_s` are too few for quartiles, so that
//! row is never `unresolved`.) Counts and fingerprints are compared exactly.

use bft_sim_benchmark::harness::{load_bounds, Summary};
use bft_sim_core::json::Json;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("bad {path}: {e}"))?;
    if json.get("format").and_then(Json::as_str) != Some(crate::RUN_FORMAT) {
        return Err(format!("{path} is not a {} file", crate::RUN_FORMAT));
    }
    Ok(json)
}

fn workloads(json: &Json) -> &[Json] {
    json.get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
}

/// One side of a row: the reported value and the samples behind it.
pub struct Side {
    pub value: f64,
    pub samples: Summary,
}

impl Side {
    fn from_json(json: &Json) -> Option<Side> {
        Some(Side {
            value: json.get("value")?.as_f64()?,
            samples: Summary::from_json(json)?,
        })
    }
}

/// The verdict for a lower-is-better metric.
pub fn verdict(a: &Side, b: &Side, bound: f64) -> &'static str {
    let too_wide = |s: &Side| s.samples.n >= 4 && s.samples.spread() > bound;
    if too_wide(a) || too_wide(b) {
        "unresolved"
    } else if b.value > a.value * (1.0 + bound) {
        "worse"
    } else if b.value < a.value * (1.0 - bound) {
        "better"
    } else {
        "same"
    }
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [path_a, path_b] = args else {
        return Err("usage: bench compare A.json B.json".into());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let bounds = load_bounds()?;
    let mut bad = 0usize;

    for key in ["commit", "seed", "noisy_host"] {
        let show = |j: &Json| j.get(key).map_or("?".to_string(), Json::dump);
        println!("{key:<11} A {}  B {}", show(&a), show(&b));
    }
    println!("ratios are B / A (base A); times are host time, lower is better");
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name}: missing from B");
            bad += 1;
            continue;
        };
        for (metric, bound) in &bounds {
            let side = |w: &Json| w.get(metric).and_then(Side::from_json);
            let (Some(sa), Some(sb)) = (side(wa), side(wb)) else {
                println!("{name:<16} {metric:<12} missing");
                bad += 1;
                continue;
            };
            let v = verdict(&sa, &sb, *bound);
            bad += usize::from(v == "worse");
            let show = |s: &Side| {
                let q = &s.samples;
                format!(
                    "{:>9.4} (median {:.4}, quartiles [{:.4}, {:.4}])",
                    s.value, q.median, q.q1, q.q3
                )
            };
            println!(
                "{name:<16} {metric:<12} A {}  B {}  B/A {:.3}  bound {bound}  {v}",
                show(&sa),
                show(&sb),
                sb.value / sa.value,
            );
        }
        for key in ["runs", "failed_runs", "failure_share", "fingerprint"] {
            let (va, vb) = (wa.get(key), wb.get(key));
            let same = va == vb;
            bad += usize::from(!same);
            let show = |v: Option<&Json>| v.map_or("?".to_string(), Json::dump);
            if same {
                println!("{name:<16} {key:<12} identical  {}", show(va));
            } else {
                println!(
                    "{name:<16} {key:<12} CHANGED  A {}  B {}",
                    show(va),
                    show(vb)
                );
            }
        }
    }
    if bad > 0 {
        return Err(format!("{bad} row(s) worse, changed or missing"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Side {
        let samples = Summary::of(values).unwrap();
        Side {
            value: samples.median,
            samples,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = s(&[1.00, 1.01, 1.02, 0.99, 1.00]);
        assert_eq!(
            verdict(&base, &s(&[1.03, 1.04, 1.05, 1.04, 1.03]), 0.10),
            "same"
        );
        assert_eq!(
            verdict(&base, &s(&[1.20, 1.21, 1.22, 1.21, 1.20]), 0.10),
            "worse"
        );
        assert_eq!(
            verdict(&base, &s(&[0.80, 0.81, 0.82, 0.81, 0.80]), 0.10),
            "better"
        );
        // A side whose own runs spread wider than the bound decides nothing.
        assert_eq!(
            verdict(&base, &s(&[1.0, 1.3, 1.6, 1.1, 1.5]), 0.10),
            "unresolved"
        );
    }
}
