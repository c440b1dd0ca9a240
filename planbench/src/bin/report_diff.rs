//! `report-diff [--bench BENCHMARK.json] BASE.json... -- NEW.json...`
//!
//! Compares two sets of planbench result files (the
//! `planbench/out/result-*.json` files, one or more runs per side) and
//! prints, per workload and metric, the median on each side, the change,
//! the run-to-run spread, and a verdict:
//!
//! * `improved` / `regressed` — the medians differ by more than the
//!   metric's threshold in the metric's better / worse direction;
//! * `unchanged` — they differ by no more than the threshold;
//! * `unresolved` — the spread (distance between the quartiles, as a
//!   share of the median, on either side) is wider than the threshold, so
//!   the runs cannot tell, unless every run of one side beats every run
//!   of the other.
//!
//! The threshold is the metric's `bound` from `BENCHMARK.json` for an
//! end-to-end metric, and 5% for a per-layer metric (they have no bound).

use std::collections::BTreeMap;

use mjoin_obs::json::{parse, Json};

/// Threshold for per-layer metrics, which `BENCHMARK.json` gives no bound.
const LAYER_THRESHOLD: f64 = 0.05;

struct Spec {
    lower_is_better: bool,
    threshold: f64,
}

type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

fn specs(path: &str) -> Result<BTreeMap<String, Spec>, String> {
    let doc = load(path)?;
    let mut out = BTreeMap::new();
    for (section, default) in [("end_to_end", None), ("per_layer", Some(LAYER_THRESHOLD))] {
        for m in doc.get(section).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            let bound = match m.get("bound") {
                Some(Json::F64(b)) => Some(*b),
                Some(Json::U64(b)) => Some(*b as f64),
                _ => None,
            };
            out.insert(
                name,
                Spec {
                    lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                    threshold: bound.or(default).unwrap_or(LAYER_THRESHOLD),
                },
            );
        }
    }
    Ok(out)
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::F64(x) => Some(*x),
        Json::U64(n) => Some(*n as f64),
        _ => None,
    }
}

fn collect(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for p in paths {
        let doc = load(p)?;
        let workload = doc
            .get("provenance")
            .and_then(|v| v.get("workload"))
            .and_then(Json::as_str)
            .ok_or(format!(
                "{p}: not a planbench result file (no provenance.workload)"
            ))?
            .to_string();
        let Some(Json::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{p}: no result.metrics"));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(number) {
                runs.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn spread(v: &[f64]) -> f64 {
    let m = quantile(v, 0.5);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (quantile(v, 0.75) - quantile(v, 0.25)) / m.abs()
}

fn verdict(spec: &Spec, base: &[f64], new: &[f64]) -> (f64, f64, &'static str) {
    let (b, n) = (quantile(base, 0.5), quantile(new, 0.5));
    let delta = if b == 0.0 {
        if n == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(n)
        }
    } else {
        (n - b) / b.abs()
    };
    let wide = spread(base).max(spread(new));
    let better = |x: f64, y: f64| if spec.lower_is_better { x < y } else { x > y };
    let all_better = new.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    let all_worse = new.iter().all(|&x| base.iter().all(|&y| better(y, x)));
    let gain = if spec.lower_is_better { -delta } else { delta };
    let v = if wide > spec.threshold {
        match (all_better, all_worse) {
            (true, _) => "improved",
            (_, true) => "regressed",
            _ => "unresolved",
        }
    } else if gain > spec.threshold {
        "improved"
    } else if -gain > spec.threshold {
        "regressed"
    } else {
        "unchanged"
    };
    (delta, wide, v)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("report-diff: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = "BENCHMARK.json".to_string();
    let mut sides: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench = it.next().cloned().ok_or("--bench needs a path")?,
            "--" => side = 1,
            p => sides[side].push(p.to_string()),
        }
    }
    if sides.iter().any(Vec::is_empty) {
        return Err(
            "usage: report-diff [--bench BENCHMARK.json] BASE.json... -- NEW.json...".into(),
        );
    }
    let specs = specs(&bench)?;
    let (base, new) = (collect(&sides[0])?, collect(&sides[1])?);
    println!(
        "{:<18} {:<34} {:>12} {:>12} {:>9} {:>8}  verdict",
        "workload", "metric", "base", "new", "change", "spread"
    );
    for (workload, metrics) in &base {
        let Some(other) = new.get(workload) else {
            println!("{workload:<18} (no runs on the new side)");
            continue;
        };
        for (name, b) in metrics {
            let Some(n) = other.get(name) else { continue };
            let default = Spec {
                lower_is_better: true,
                threshold: LAYER_THRESHOLD,
            };
            let spec = specs.get(name).unwrap_or(&default);
            let (delta, wide, v) = verdict(spec, b, n);
            println!(
                "{workload:<18} {name:<34} {:>12.5} {:>12.5} {:>8.1}% {:>7.1}%  {v}",
                quantile(b, 0.5),
                quantile(n, 0.5),
                delta * 100.0,
                wide * 100.0
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Spec = Spec {
        lower_is_better: true,
        threshold: 0.1,
    };

    #[test]
    fn classifies_changes_against_the_threshold() {
        let base = [10.0, 10.1, 9.9];
        assert_eq!(verdict(&LOWER, &base, &[8.0, 8.1, 7.9]).2, "improved");
        assert_eq!(verdict(&LOWER, &base, &[12.0, 12.1, 11.9]).2, "regressed");
        assert_eq!(verdict(&LOWER, &base, &[10.3, 10.2, 10.4]).2, "unchanged");
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let base = [5.0, 10.0, 15.0];
        assert_eq!(verdict(&LOWER, &base, &[4.0, 9.0, 16.0]).2, "unresolved");
        assert_eq!(verdict(&LOWER, &base, &[1.0, 2.0, 4.0]).2, "improved");
    }
}
