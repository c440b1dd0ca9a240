//! `planbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]`
//!
//! Runs one workload from the root of a checkout and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The full result — the same object plus the
//! run's provenance and any failures — is written to
//! `planbench/out/result-<workload>-<seed>-trace<0|1>.json`, and a traced
//! run also writes its spans next to it as JSON lines.

use std::path::PathBuf;

use mjoin_obs::Json;
use planbench::corpus::WORKLOADS;
use planbench::report::Settings;
use planbench::stats::{metrics_json, provenance};

const USAGE: &str = "usage: planbench --workload <plan-materialized|ladder-large|serve-mix> --seed N --seconds S --trace 0|1 [--smoke]";

fn parse_args(args: &[String]) -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or(format!("{a} needs a value\n{USAGE}"))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => trace = value()? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(USAGE)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    }
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let settings = Settings {
        out_dir: root.join("planbench").join("out"),
        root,
        seed: seed.ok_or(USAGE)?,
        seconds,
        trace,
        smoke,
    };
    Ok((workload, settings))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("planbench: {e}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (workload, s) = parse_args(args)?;
    std::fs::create_dir_all(&s.out_dir).map_err(|e| format!("{}: {e}", s.out_dir.display()))?;
    let outcome = match workload.as_str() {
        "serve-mix" => planbench::serve::run_workload(&s)?,
        w => planbench::cli::run_workload(&s, w)?,
    };
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        ("metrics", metrics_json(&outcome.metrics)),
    ]);
    let stem = format!("{workload}-{}-trace{}", s.seed, u8::from(s.trace));
    let full = Json::obj(vec![
        (
            "provenance",
            provenance(
                &s.root,
                &workload,
                s.seed,
                s.seconds as u64,
                s.trace,
                s.smoke,
            ),
        ),
        ("result", result.clone()),
        ("per_request", outcome.per_request.clone()),
        (
            "failures",
            Json::Arr(
                outcome
                    .failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
    ]);
    let path: PathBuf = s.out_dir.join(format!("result-{stem}.json"));
    std::fs::write(&path, full.to_pretty_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(trace) = &outcome.trace {
        let spans = s.out_dir.join(format!("trace-{stem}.jsonl"));
        std::fs::write(&spans, trace.to_jsonl())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    for f in &outcome.failures {
        eprintln!("planbench: failed check: {f}");
    }
    println!("{}", result.to_compact_string());
    Ok(())
}
