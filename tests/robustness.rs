//! Robustness of the budgeted pipeline: hostile inputs under tight
//! budgets, cancellation of long-running searches, and the guarantee that
//! resource governance never changes an answer when it isn't binding.

use std::time::{Duration, Instant};

use mjoin::{
    optimize_database_robust, try_greedy_bushy, try_optimize, Budget, CancelToken,
    CardinalityOracle, Database, ExactOracle, Guard, MjoinError, Rung, SearchSpace,
};
use mjoin_gen::{data, data::DataConfig, schemes};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A clique join graph: `n` relations that all share attribute `X`, each
/// with `2 · per_x` tuples spread over two `X` values. Every pair joins,
/// and the join of any `k` of them has `2 · per_x^k` tuples — intermediate
/// results grow geometrically, which is exactly what a budget must tame.
fn clique_db(n: usize, per_x: i64) -> Database {
    const NAMES: [&str; 14] = [
        "XA", "XB", "XC", "XD", "XE", "XF", "XG", "XH", "XI", "XJ", "XK", "XL", "XM", "XN",
    ];
    assert!(n <= NAMES.len());
    let specs: Vec<(&str, Vec<Vec<i64>>)> = NAMES[..n]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut rows = Vec::new();
            for x in 0..2i64 {
                for j in 0..per_x {
                    rows.push(vec![x, 1000 + (i as i64) * 100 + x * 10 + j]);
                }
            }
            (*name, rows)
        })
        .collect();
    Database::from_specs(&specs).unwrap()
}

/// The ISSUE's acceptance scenario: a 14-relation clique under a 50 ms
/// deadline. Exhaustive search is out (n > 7), the DP cannot finish, the
/// exact oracle cannot even materialize the big intermediates — yet the
/// ladder must hand back a valid covering strategy, promptly, with a
/// report naming the rung that answered.
#[test]
fn hostile_clique_under_tight_deadline_returns_valid_plan() {
    let db = clique_db(14, 4);
    let budget = Budget::unlimited().with_deadline(Duration::from_millis(50));
    let started = Instant::now();
    let r = optimize_database_robust(&db, SearchSpace::All, budget, None, 1).unwrap();
    let elapsed = started.elapsed();

    // No hang: the deadline is 50 ms; allow generous slack for slow CI.
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");

    // A valid strategy covering every relation, always.
    assert_eq!(r.plan.strategy.set(), db.scheme().full_set());
    assert!(r.plan.strategy.validate(db.scheme()));

    // The report names the answering rung and explains the ones above it.
    assert!(r.report.answered_by >= Rung::Dp, "{}", r.report);
    assert!(!r.report.attempts.is_empty());
    let text = r.report.to_string();
    assert!(
        text.contains(&r.report.answered_by.to_string()),
        "report must name the rung: {text}"
    );
    assert!(
        text.contains("enumeration cutoff"),
        "exhaustive rung must be reported as skipped: {text}"
    );
}

/// Same clique, but the binding limit is the intermediate-tuple cap: the
/// optimizers' own materialization work trips it deterministically, and
/// the ladder degrades instead of failing.
#[test]
fn hostile_clique_under_tuple_cap_degrades() {
    let db = clique_db(14, 4);
    let budget = Budget::unlimited().with_max_tuples(10_000);
    let r = optimize_database_robust(&db, SearchSpace::All, budget, None, 1).unwrap();
    assert_eq!(r.plan.strategy.set(), db.scheme().full_set());
    assert!(r.plan.strategy.validate(db.scheme()));
    assert!(r.report.answered_by > Rung::Dp, "{}", r.report);
    // Some rung above must have reported a budget trip, not a skip.
    assert!(
        r.report.attempts.iter().any(|a| a.outcome.contains("budget exceeded")),
        "{}",
        r.report
    );
}

/// Every rung the ladder actually ran — failed attempts and the answering
/// rung alike — records what it consumed: elapsed wall clock plus the memo
/// entries and intermediate tuples charged to the guard. Skipped rungs
/// record zeros, and none of this leaks into the `Display` line the CLI
/// prints.
#[test]
fn rung_attempts_record_elapsed_and_budget_consumed() {
    let db = clique_db(14, 4);
    let budget = Budget::unlimited().with_max_tuples(10_000);
    let r = optimize_database_robust(&db, SearchSpace::All, budget, None, 1).unwrap();
    // At n = 14 the exhaustive rung is skipped (space too large) without
    // doing any work; the DP rung runs and trips the tuple cap.
    let skipped = r
        .report
        .attempts
        .iter()
        .find(|a| a.rung == Rung::Exhaustive)
        .expect("exhaustive rung is attempted first");
    assert!(skipped.outcome.contains("skipped"), "{}", skipped.outcome);
    assert_eq!(skipped.stats, mjoin::RungStats::default());
    let tripped = r
        .report
        .attempts
        .iter()
        .find(|a| a.outcome.contains("budget exceeded"))
        .expect("some rung trips the tuple cap");
    assert!(
        tripped.stats.tuples_used > 0,
        "a tripping rung must have consumed tuples: {:?}",
        tripped.stats
    );
    // The answering rung's own consumption is recorded on the report.
    assert!(
        r.report.answered_stats.memo_used > 0 || r.report.answered_stats.tuples_used > 0,
        "{:?}",
        r.report.answered_stats
    );
    // Display stays the pre-stats format: rungs and outcomes only.
    let line = r.report.to_string();
    assert!(line.starts_with("answered by "), "{line}");
    assert!(!line.contains("memo"), "stats must not leak into Display: {line}");
    assert!(!line.contains("elapsed"), "stats must not leak into Display: {line}");
}

/// Stats are budget *consumption*, so the deterministic caps make them
/// reproducible run to run (elapsed excepted — wall clock is explicitly
/// outside the determinism contract).
#[test]
fn rung_budget_consumption_is_deterministic() {
    let db = clique_db(10, 2);
    let budget = Budget::unlimited().with_max_memo_entries(16);
    let a = optimize_database_robust(&db, SearchSpace::All, budget, None, 1).unwrap();
    let b = optimize_database_robust(&db, SearchSpace::All, budget, None, 1).unwrap();
    assert_eq!(a.report.answered_stats.memo_used, b.report.answered_stats.memo_used);
    assert_eq!(a.report.answered_stats.tuples_used, b.report.answered_stats.tuples_used);
    for (x, y) in a.report.attempts.iter().zip(&b.report.attempts) {
        assert_eq!(x.rung, y.rung);
        assert_eq!(x.stats.memo_used, y.stats.memo_used);
        assert_eq!(x.stats.tuples_used, y.stats.tuples_used);
    }
}

/// A 60-relation query — hostile to every exact rung: the exhaustive
/// enumeration is skipped outright (n > 7) and the full DP's `2⁶⁰` subset
/// space devours its budget slice without finishing. The polynomial rungs
/// must pick it up: under a 100 ms deadline the ladder answers from
/// `LinDp` or `PartitionedDp` with a valid covering plan, never falling
/// all the way to greedy.
#[test]
fn sixty_relation_chain_is_answered_by_a_polynomial_rung() {
    let mut rng = StdRng::seed_from_u64(60);
    let (cat, scheme) = schemes::chain(60);
    // Domain 4 keeps the exact intermediates small (≈ tuples²/domain per
    // step), so the polynomial rungs can afford their τ queries — the
    // hostility here is the 2⁶⁰ search space, not the data volume.
    let cfg = DataConfig {
        tuples_per_relation: 2,
        domain: 4,
        ensure_nonempty: true,
    };
    let db = data::uniform(cat, scheme, &cfg, &mut rng);
    // Real wall-clock deadline ⇒ sensitive to scheduler noise when the
    // whole workspace's test binaries compete for cores: allow a couple
    // of retries before declaring the rungs too slow for their slices.
    let mut r = None;
    for _ in 0..3 {
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(100));
        let started = Instant::now();
        let attempt = optimize_database_robust(&db, SearchSpace::All, budget, None, 1).unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
        let answered_by = attempt.report.answered_by;
        r = Some(attempt);
        if matches!(answered_by, Rung::LinDp | Rung::PartitionedDp) {
            break;
        }
    }
    let r = r.expect("at least one attempt ran");

    assert!(
        matches!(r.report.answered_by, Rung::LinDp | Rung::PartitionedDp),
        "a polynomial rung must answer the 60-relation chain: {}",
        r.report
    );
    assert_eq!(r.plan.strategy.set(), db.scheme().full_set());
    assert!(r.plan.strategy.validate(db.scheme()));
    // The DP above it really was attempted and really did trip its budget.
    assert!(
        r.report
            .attempts
            .iter()
            .any(|a| a.rung == Rung::Dp && a.outcome.contains("budget exceeded")),
        "{}",
        r.report
    );
}

/// Reads and parses a committed example database.
fn example_db(file: &str) -> Database {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path).expect("example file readable");
    mjoin_cli::parse_input(&text)
        .expect("example file parses")
        .database
}

/// The ladder is one code path at every thread count: the same input is
/// answered by the same rung with the same strategy at 1, 2 and 4
/// threads. On the 40-relation chain in the product-free space the DP
/// rung must answer — Tay's product-free space searched exactly, by
/// DPccp, well inside its slice of a 1 s deadline — and on Example 4 the
/// exhaustive rung.
#[test]
fn ladder_answers_identically_at_every_thread_count() {
    for (file, space, rung, tau) in [
        ("examples/chain40.mj", SearchSpace::NoCartesian, Rung::Dp, 40),
        ("examples/example4.mj", SearchSpace::All, Rung::Exhaustive, 11),
    ] {
        let db = example_db(file);
        let plans: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                let run = || {
                    let budget = Budget::unlimited().with_deadline(Duration::from_secs(1));
                    mjoin::optimize_database_robust(&db, space, budget, None, threads).unwrap()
                };
                // A real wall-clock deadline is sensitive to scheduler
                // noise when the workspace's test binaries compete for
                // cores: allow a couple of retries before declaring the
                // rung too slow for its slice.
                let mut r = run();
                for _ in 0..2 {
                    if r.report.answered_by == rung {
                        break;
                    }
                    r = run();
                }
                assert_eq!(
                    r.report.answered_by, rung,
                    "{file} x{threads}: {}",
                    r.report
                );
                assert!(r.report.optimal, "{file} x{threads}: {}", r.report);
                assert_eq!(r.plan.cost, tau, "{file} x{threads}");
                r.plan.strategy
            })
            .collect();
        assert_eq!(plans[0], plans[1], "{file}: 1 vs 2 threads");
        assert_eq!(plans[0], plans[2], "{file}: 1 vs 4 threads");
    }
}

/// DPsub's product-free split scan polls its guard on a stride. On a
/// 40-relation chain whose relations are listed out of path order, almost
/// every split of a large subset is pruned without oracle work, so long
/// runs of the scan enter no new subproblem; polling only on entering one
/// would let a 50 ms deadline overrun by over a minute. The synthetic
/// oracle keeps materialization out of the picture: the scan is all the
/// work there is.
#[test]
fn dpsub_scan_trips_its_deadline_on_a_long_chain() {
    // Relation k joins attributes i and i + 1 for i = 17·k mod 40.
    let letters: Vec<char> = ('A'..='Z').chain('a'..='o').collect();
    let specs: Vec<(String, Vec<Vec<i64>>)> = (0..40usize)
        .map(|k| {
            let i = (k * 17) % 40;
            let name: String = [letters[i], letters[i + 1]].iter().collect();
            let other = vec![(i % 3) as i64 + 2, (i % 2) as i64 + 2];
            (name, vec![vec![1, 1], other])
        })
        .collect();
    let specs: Vec<(&str, Vec<Vec<i64>>)> = specs
        .iter()
        .map(|(n, rows)| (n.as_str(), rows.clone()))
        .collect();
    let db = Database::from_specs(&specs).unwrap();
    let guard = Guard::new(Budget::unlimited().with_deadline(Duration::from_millis(50)));
    let mut oracle = mjoin::SyntheticOracle::from_database(&db);
    let err = try_optimize(
        &mut oracle,
        db.scheme().full_set(),
        SearchSpace::NoCartesian,
        &guard,
    )
    .unwrap_err();
    assert!(
        matches!(err, MjoinError::BudgetExceeded { .. }),
        "expected a budget trip, got: {err}"
    );
}

/// Cancellation from another thread interrupts a search that would
/// otherwise run for a very long time (the 12-relation clique DP), and
/// surfaces as `Cancelled` — not as a degraded answer and not as a hang.
#[test]
fn cancellation_interrupts_a_long_search() {
    let db = clique_db(12, 4);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        })
    };
    let started = Instant::now();
    let err = optimize_database_robust(&db, SearchSpace::All, Budget::unlimited(), Some(&token), 1)
        .unwrap_err();
    canceller.join().unwrap();
    assert_eq!(err, MjoinError::Cancelled);
    assert!(started.elapsed() < Duration::from_secs(60));
}

/// The memo cap alone (no deadline) is deterministic: same input, same
/// trip point, same rung, same strategy — run twice and compare.
#[test]
fn capped_runs_are_deterministic() {
    let db = clique_db(10, 2);
    let budget = Budget::unlimited().with_max_memo_entries(16);
    let a = optimize_database_robust(&db, SearchSpace::All, budget, None, 1).unwrap();
    let b = optimize_database_robust(&db, SearchSpace::All, budget, None, 1).unwrap();
    assert_eq!(a.report.answered_by, b.report.answered_by);
    assert!(a.plan.strategy.eq_unordered(&b.plan.strategy));
    assert_eq!(a.plan.cost, b.plan.cost);
}

fn random_db(seed: u64, n: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let (cat, scheme) = schemes::random_tree(n, &mut rng);
    let cfg = DataConfig {
        tuples_per_relation: 4,
        domain: 4,
        ensure_nonempty: true,
    };
    data::uniform(cat, scheme, &cfg, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property (a): however tight the budget, the ladder still returns a
    /// valid strategy covering every relation.
    #[test]
    fn budget_exhausted_runs_still_cover_all_relations(
        seed: u64,
        n in 2usize..6,
        cap in 1u64..16,
    ) {
        let db = random_db(seed, n);
        let budget = Budget::unlimited()
            .with_max_memo_entries(cap)
            .with_max_tuples(cap);
        let r = optimize_database_robust(&db, SearchSpace::All, budget, None, 1).unwrap();
        prop_assert_eq!(r.plan.strategy.set(), db.scheme().full_set());
        prop_assert!(r.plan.strategy.validate(db.scheme()));
    }

    /// Property (b): with no budget pressure the ladder answers at an
    /// optimal rung, so its cost is never worse than the greedy heuristic.
    #[test]
    fn ladder_never_worse_than_greedy(seed: u64, n in 2usize..6) {
        let db = random_db(seed, n);
        let r = optimize_database_robust(&db, SearchSpace::All, Budget::unlimited(), None, 1)
            .unwrap();
        prop_assert!(r.report.optimal, "{}", r.report);
        let mut oracle = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let greedy = try_greedy_bushy(&mut oracle, full, &Guard::unlimited()).unwrap();
        prop_assert!(
            r.plan.cost <= greedy.cost,
            "ladder {} vs greedy {}",
            r.plan.cost,
            greedy.cost
        );
    }

    /// Property (c): an unlimited guard (fault injection disabled) is
    /// invisible — the guarded entry points return exactly what the legacy
    /// unguarded ones do, in every search space.
    #[test]
    fn unlimited_guard_is_bit_identical_to_unguarded(seed: u64, n in 2usize..5) {
        let db = random_db(seed, n);
        let full = db.scheme().full_set();
        for space in [
            SearchSpace::All,
            SearchSpace::Linear,
            SearchSpace::NoCartesian,
            SearchSpace::LinearNoCartesian,
            SearchSpace::AvoidCartesian,
        ] {
            let mut legacy_oracle = ExactOracle::new(&db);
            let legacy = mjoin::optimize(&mut legacy_oracle, full, space);
            let mut guarded_oracle = ExactOracle::new(&db);
            let guarded =
                try_optimize(&mut guarded_oracle, full, space, &Guard::unlimited()).unwrap();
            match (legacy, guarded) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.cost, b.cost, "{:?}", space);
                    prop_assert_eq!(
                        format!("{:?}", a.strategy),
                        format!("{:?}", b.strategy),
                        "{:?}",
                        space
                    );
                }
                (a, b) => prop_assert!(false, "{:?}: {:?} vs {:?}", space, a, b),
            }
        }
        // And the oracles did the same materialization work.
        prop_assert_eq!(
            legacy_tau_profile(&db),
            guarded_tau_profile(&db)
        );
    }
}

/// Every subset's τ via the legacy infallible surface.
fn legacy_tau_profile(db: &Database) -> Vec<u64> {
    let mut oracle = ExactOracle::new(db);
    subsets(db).into_iter().map(|s| oracle.tau(s)).collect()
}

/// Every subset's τ via the guarded surface under an unlimited guard.
fn guarded_tau_profile(db: &Database) -> Vec<u64> {
    let mut oracle = ExactOracle::with_guard(db, Guard::unlimited());
    subsets(db)
        .into_iter()
        .map(|s| oracle.try_tau(s).unwrap())
        .collect()
}

fn subsets(db: &Database) -> Vec<mjoin::RelSet> {
    let n = db.scheme().len();
    (1u32..(1 << n))
        .map(|bits| {
            mjoin::RelSet::from_indices((0..n).filter(move |&i| bits & (1u32 << i) != 0))
        })
        .collect()
}

/// Deadline accounting under contention: several budgeted searches racing
/// on the same machine must each come back close to their own deadline —
/// the rung-slice arithmetic may not let queueing behind siblings inflate
/// a 60 ms budget into seconds. The slack bound is deliberately loose for
/// CI (the guard polls the clock every 64 oracle operations, so one poll
/// interval of overshoot is legitimate), but it is far below the
/// multi-second overshoot a slicing bug produces on this clique.
#[test]
fn concurrent_threaded_searches_respect_their_deadlines() {
    let deadline = Duration::from_millis(60);
    let slack = Duration::from_millis(2000);
    let results: Vec<(Duration, mjoin::RobustPlan)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                s.spawn(move || {
                    // Distinct sizes so the racing searches don't share a
                    // lockstep work profile.
                    let db = clique_db(10 + i % 4, 4);
                    let budget = Budget::unlimited().with_deadline(deadline);
                    let started = Instant::now();
                    let r = mjoin::optimize_database_robust(&db, SearchSpace::All, budget, None, 2)
                        .unwrap();
                    (started.elapsed(), r)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (elapsed, r) in &results {
        assert!(
            *elapsed < deadline + slack,
            "deadline {deadline:?} overshot to {elapsed:?} under contention: {}",
            r.report
        );
        assert!(r.plan.strategy.set().len() >= 10);
    }
}

/// One `CancelToken` observed by several concurrent ladder searches: every
/// search reports the typed `Cancelled` error — no thread hangs, and no
/// thread smuggles out a partial plan instead of the error.
#[test]
fn concurrent_searches_all_observe_one_cancellation() {
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let results: Vec<(Duration, Result<mjoin::RobustPlan, MjoinError>)> =
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let token = token.clone();
                    s.spawn(move || {
                        // Long enough (12-relation clique DP) that every
                        // thread is still searching at cancel time.
                        let db = clique_db(12, 4);
                        let started = Instant::now();
                        let r = mjoin::optimize_database_robust(
                            &db,
                            SearchSpace::All,
                            Budget::unlimited(),
                            Some(&token),
                            2,
                        );
                        (started.elapsed(), r)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
    canceller.join().unwrap();
    for (elapsed, result) in results {
        assert_eq!(
            result.err(),
            Some(MjoinError::Cancelled),
            "every concurrent search must surface the typed cancellation"
        );
        assert!(elapsed < Duration::from_secs(60), "cancel must be prompt");
    }
}

/// The façade's Result conversion keeps the analysis itself unchanged: an
/// unlimited guard produces the same `Analysis` as the plain entry point.
#[test]
fn guarded_facade_matches_unguarded_on_paper_examples() {
    for db in [data::paper_example4(), data::paper_example5()] {
        let plain = mjoin::analyze(&db).unwrap();
        let guarded = mjoin::analyze_guarded(&db, &Guard::unlimited()).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{guarded:?}"));
    }
}
