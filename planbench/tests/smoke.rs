//! One-pass runs of the serve workload: every answer passes its checks,
//! and the printed metrics are exactly the ones `BENCHMARK.json` lists.

use std::path::{Path, PathBuf};

use mjoin_obs::json::{parse, Json};
use planbench::report::Settings;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    let doc = parse(&text).unwrap();
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn smoke(trace: bool) -> Vec<String> {
    let out_dir = root().join("planbench").join("out");
    std::fs::create_dir_all(&out_dir).unwrap();
    let s = Settings {
        root: root(),
        out_dir,
        seed: 5,
        seconds: 0.5,
        trace,
        smoke: true,
    };
    let out = planbench::serve::run_workload(&s).unwrap();
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{:?}", out.failures);
    out.metrics.iter().map(|m| m.name.clone()).collect()
}

// One test, not two: both runs write the same per-process store file.
#[test]
fn runs_print_exactly_the_declared_metrics() {
    assert_eq!(smoke(false), declared("end_to_end"));
    assert_eq!(smoke(true), declared("per_layer"));
}
