//! Self-tests of the benchmark's inputs and answer checks.
//!
//! Run with `cargo test --manifest-path planbench/Cargo.toml`.

use std::path::{Path, PathBuf};

use mjoin::{CardinalityOracle, ExactOracle};
use mjoin_cli::parse_input;
use planbench::check::check;
use planbench::corpus::{Corpus, Shape, EXAMPLES, WORKLOADS};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

#[test]
fn same_seed_gives_a_byte_identical_corpus() {
    let a = Corpus::build(&root(), 7).unwrap();
    let b = Corpus::build(&root(), 7).unwrap();
    assert_eq!(a.canonical(), b.canonical());
}

#[test]
fn different_seeds_give_different_corpora() {
    let a = Corpus::build(&root(), 7).unwrap();
    let b = Corpus::build(&root(), 8).unwrap();
    assert_ne!(a.canonical(), b.canonical());
    // Every seeded database differs, not just one of them; serve-mix
    // databases are fixed and only its request sequence is seeded.
    let seeded = |c: &Corpus| -> Vec<String> {
        c.files
            .iter()
            .filter(|(p, _)| p.starts_with("gen/") && !p.starts_with("gen/sm-"))
            .map(|(_, t)| t.clone())
            .collect()
    };
    for (x, y) in seeded(&a).iter().zip(seeded(&b).iter()) {
        assert_ne!(x, y);
    }
}

#[test]
fn corpus_always_holds_the_committed_inputs() {
    for seed in [0, 1, 99] {
        let c = Corpus::build(&root(), seed).unwrap();
        assert!(c.files.contains_key("examples/chain40.mj"));
        for ex in EXAMPLES {
            assert!(
                c.files.contains_key(&format!("examples/{ex}.mj")),
                "{ex} missing"
            );
        }
        let sql: Vec<String> = std::fs::read_dir(root().join("tests/workloads"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".sql"))
            .collect();
        assert!(!sql.is_empty());
        for s in sql {
            let path = format!("tests/workloads/{s}");
            assert!(c.files.contains_key(&path), "{path} missing");
            let queried = c
                .workload("plan-materialized")
                .iter()
                .any(|r| r.sql.as_deref() == Some(path.as_str()));
            assert!(queried, "{path} is not a plan-materialized request");
        }
        let ladder = c.workload("ladder-large");
        for threads in [1, 2] {
            assert!(ladder
                .iter()
                .any(|r| r.db == "examples/chain40.mj" && r.threads == threads));
        }
    }
}

#[test]
fn every_request_names_files_in_the_corpus() {
    let c = Corpus::build(&root(), 3).unwrap();
    for w in WORKLOADS {
        let reqs = c.workload(w);
        assert!(reqs.len() >= 2, "{w} has too few requests");
        for r in reqs {
            assert!(c.read(&r.db).is_ok(), "{}: {}", r.label, r.db);
            for p in r.sql.iter().chain(r.golden.iter()) {
                assert!(c.read(p).is_ok(), "{}: {p}", r.label);
            }
            assert!(
                r.threads <= 2,
                "{}: more planner threads than the reference host has",
                r.label
            );
        }
    }
}

#[test]
fn generated_work_does_not_depend_on_the_seed() {
    // Regular data fixes every connected sub-join's size, so the full
    // join of an acyclic shape has the same size for every seed.
    let shapes = [
        Shape::Chain {
            d: 8,
            degrees: vec![2, 1, 3, 1],
        },
        Shape::Star {
            d: 4,
            rows: 12,
            dims: vec![2, 1, 2],
        },
        Shape::Snowflake {
            d: 4,
            rows: 8,
            dims: vec![2, 1],
            subs: vec![1, 2],
        },
        Shape::UnaryStar { d: 3, spokes: 5 },
        Shape::Cycle {
            d: 5,
            degrees: vec![1; 6],
        },
    ];
    for shape in &shapes {
        let sizes: Vec<u64> = [1u64, 2, 3]
            .iter()
            .map(|&seed| {
                let input = parse_input(&shape.generate(seed)).unwrap();
                let db = &input.database;
                assert_eq!(db.len(), shape.relations());
                ExactOracle::new(db).tau(db.scheme().full_set())
            })
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[0] == w[1]),
            "{shape:?}: {sizes:?}"
        );
        assert!(sizes[0] > 0, "{shape:?}: empty join");
    }
}

#[test]
fn checks_accept_golden_outputs_and_reject_a_wrong_tau() {
    let c = Corpus::build(&root(), 0).unwrap();
    let reqs = c.workload("plan-materialized");
    let r = reqs.iter().find(|r| r.label == "example4/all").unwrap();
    let golden = c.read(r.golden.as_deref().unwrap()).unwrap();
    let a = check(&c, r, &golden).unwrap();
    assert_eq!(a.tau, Some(11));
    assert_eq!(a.derived, Some(11));
    assert!(a.optimal && !a.degraded);
    let wrong = golden.replace("= 11", "= 12");
    assert!(check(&c, r, &wrong).is_err());
    for q in reqs.iter().filter(|r| r.sql.is_some()) {
        let golden = c.read(q.golden.as_deref().unwrap()).unwrap();
        check(&c, q, &golden).unwrap_or_else(|e| panic!("{}: {e}", q.label));
    }
}
