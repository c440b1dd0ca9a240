//! The `plan-materialized` and `ladder-large` workloads: requests sent
//! through `mjoin_cli::run` in process, with the CLI's own arguments, by
//! one closed loop.
//!
//! The untraced run times each `run` call end to end. The traced run
//! replays each request through the layers' public functions —
//! `parse_input`, `parse_query`, `lower`, `try_optimize` over a
//! [`TimedOracle`], `Plan::explain`, the degradation ladder — with a span
//! around each call, and reads the program's own counters from the
//! `--metrics-json` run report of a separate `run` of the same request.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mjoin::{
    optimize_database_robust_threaded, try_greedy_bushy, try_greedy_linear, try_lindp,
    try_optimize, try_optimize_with, try_partitioned_dp, Budget, Database, DpAlgorithm,
    ExactOracle, Guard, RelSet, RobustPlan, Rung, SearchSpace, Strategy,
};
use mjoin_cli::{parse_input, query_synthetic_oracle, run};
use mjoin_obs::Json;

use crate::check::{check, Answer};
use crate::corpus::{Corpus, Op, Request, Rng};
use crate::report::{Layers, Outcome, Settings, Tally};
use crate::trace::{TimedOracle, Trace};

/// Set-up runs at least `MIN` times and, while it has taken under
/// `BUDGET` in all, up to `MAX` times; `setup_s` is the median. A cheap
/// set-up is repeated more, because its time is noisier.
const SETUP_REPEATS_MIN: usize = 5;
const SETUP_REPEATS_MAX: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Runs `setup` repeatedly (see [`SETUP_REPEATS_MIN`]), handing every
/// result but the last to `retire`; returns each run's seconds and the
/// last result.
pub(crate) fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut retire: impl FnMut(T),
) -> Result<(Vec<f64>, T), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    while times.len() < SETUP_REPEATS_MIN
        || (started.elapsed() < SETUP_BUDGET && times.len() < SETUP_REPEATS_MAX)
    {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = last.replace(value) {
            retire(old);
        }
    }
    Ok((times, last.expect("set-up ran at least once")))
}

/// What set-up knows before the timed loop starts.
struct Prepared {
    /// Byte-exact expected output, for requests whose output is
    /// deterministic (no deadline).
    expected: Vec<Option<String>>,
    /// The checked answer behind each expected output.
    answers: Vec<Option<Answer>>,
    /// Best-known τ per request.
    best: Vec<Option<u64>>,
    /// Set-up checks that failed.
    failures: Vec<String>,
}

pub(crate) fn space_arg(s: Option<&str>) -> SearchSpace {
    match s {
        Some("nocp") => SearchSpace::NoCartesian,
        Some("linear-nocp") => SearchSpace::LinearNoCartesian,
        Some("linear") => SearchSpace::Linear,
        Some("avoid") => SearchSpace::AvoidCartesian,
        _ => SearchSpace::All,
    }
}

/// Runs one request through `mjoin_cli::run`, reading files from the
/// corpus, with `extra` arguments appended.
pub(crate) fn run_request(
    corpus: &Corpus,
    req: &Request,
    extra: &[String],
) -> Result<String, String> {
    let mut args = req.cli_args();
    args.extend_from_slice(extra);
    run(&args, |p| corpus.read(p)).map_err(|e| e.to_string())
}

fn db_of(corpus: &Corpus, req: &Request) -> Result<Database, String> {
    Ok(parse_input(&corpus.read(&req.db)?)
        .map_err(|e| e.to_string())?
        .database)
}

/// An optimum found independently of the CLI's planning path: DPccp for
/// the product-free space (the CLI plans it with DPsub), a fresh oracle
/// otherwise.
pub(crate) fn independent_best(corpus: &Corpus, req: &Request) -> Result<Option<u64>, String> {
    if req.op != Op::Optimize || req.timeout_ms.is_some() {
        return Ok(None);
    }
    let db = db_of(corpus, req)?;
    let mut oracle = ExactOracle::new(&db);
    let full = db.scheme().full_set();
    let guard = Guard::unlimited();
    let space = space_arg(req.space.as_deref());
    let plan = if space == SearchSpace::NoCartesian {
        try_optimize_with(&mut oracle, full, space, DpAlgorithm::DpCcp, &guard)
    } else {
        try_optimize(&mut oracle, full, space, &guard)
    };
    Ok(plan.map_err(|e| e.to_string())?.map(|p| p.cost))
}

/// Best-known τ for a large product-free request: the exact DPccp
/// optimum when the join graph is a path or a cycle (every relation joins
/// at most two others), where the connected subsets number O(n²). On
/// other shapes the connected subsets are exponential, and the best
/// answer any request returns stands in for the optimum.
fn ladder_best(db: &Database) -> Option<u64> {
    let scheme = db.scheme();
    let n = db.len();
    let degree = |i: usize| {
        (0..n)
            .filter(|&j| j != i && scheme.linked(RelSet::singleton(i), RelSet::singleton(j)))
            .count()
    };
    if (0..n).any(|i| degree(i) > 2) {
        return None;
    }
    let mut oracle = ExactOracle::new(db);
    let full = scheme.full_set();
    try_optimize_with(
        &mut oracle,
        full,
        SearchSpace::NoCartesian,
        DpAlgorithm::DpCcp,
        &Guard::unlimited(),
    )
    .ok()
    .flatten()
    .map(|p| p.cost)
}

fn prepare(corpus: &Corpus, reqs: &[Request]) -> Prepared {
    let mut p = Prepared {
        expected: vec![None; reqs.len()],
        answers: vec![None; reqs.len()],
        best: vec![None; reqs.len()],
        failures: Vec::new(),
    };
    let mut ladder_best_by_db: BTreeMap<String, Option<u64>> = BTreeMap::new();
    for (i, r) in reqs.iter().enumerate() {
        if r.timeout_ms.is_some() {
            let best = ladder_best_by_db
                .entry(r.db.clone())
                .or_insert_with(|| db_of(corpus, r).ok().and_then(|db| ladder_best(&db)));
            p.best[i] = *best;
            continue;
        }
        let out = match run_request(corpus, r, &[]) {
            Ok(out) => out,
            Err(e) => {
                p.failures.push(format!("{}: {e}", r.label));
                continue;
            }
        };
        if let Some(g) = &r.golden {
            if corpus.read(g).as_deref() != Ok(out.as_str()) {
                p.failures
                    .push(format!("{}: output differs from {g}", r.label));
            }
        }
        match check(corpus, r, &out) {
            Ok(a) => {
                let best = match independent_best(corpus, r) {
                    Ok(b) => b,
                    Err(e) => {
                        p.failures.push(format!("{}: {e}", r.label));
                        None
                    }
                };
                if let (Some(b), Some(d)) = (best, a.derived) {
                    if a.optimal && b != d {
                        p.failures.push(format!(
                            "{}: τ {d} but the independent optimum is {b}",
                            r.label
                        ));
                    }
                }
                p.best[i] = best.or(a.derived);
                p.answers[i] = Some(a);
                p.expected[i] = Some(out);
            }
            Err(e) => p.failures.push(e),
        }
    }
    p
}

/// Runs the workload and returns its outcome.
pub fn run_workload(s: &Settings, workload: &str) -> Result<Outcome, String> {
    let (setup_times, (corpus, reqs, prepared)) = repeat_setup(
        || {
            let corpus = Corpus::build(&s.root, s.seed)?;
            let reqs = corpus.workload(workload).to_vec();
            let prepared = prepare(&corpus, &reqs);
            Ok((corpus, reqs, prepared))
        },
        drop,
    )?;
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    Rng::new(s.seed ^ 0x5eed).shuffle(&mut order);

    let mut tally = Tally::new(&setup_times);
    for f in &prepared.failures {
        tally.fail(f.clone());
    }
    let trace = Trace::new();
    let mut layers = Layers::default();
    let mut checked: BTreeMap<(usize, String), Result<Answer, String>> = BTreeMap::new();
    let started = Instant::now();
    let mut next_id = 0u64;
    loop {
        let pass = Instant::now();
        for &i in &order {
            let r = &reqs[i];
            let t = Instant::now();
            let out = run_request(&corpus, r, &[]);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if s.trace {
                next_id += 1;
                layers.untraced_ns += (ms * 1e6) as u64;
                match replay(&trace, next_id, &corpus, r, &mut layers) {
                    Ok(text) => {
                        if prepared.expected[i]
                            .as_ref()
                            .is_some_and(|e| !e.ends_with(&text))
                        {
                            tally.fail(format!(
                                "{}: traced replay output differs from the CLI's",
                                r.label
                            ));
                        }
                    }
                    Err(e) => tally.fail(format!("{}: traced replay failed: {e}", r.label)),
                }
            }
            let answer = match out {
                Err(e) => Err(format!("{}: {e}", r.label)),
                Ok(out) => match (&prepared.expected[i], &prepared.answers[i]) {
                    (Some(exp), Some(a)) if *exp == out => Ok(a.clone()),
                    (Some(_), _) => Err(format!("{}: output differs from set-up's", r.label)),
                    (None, _) => checked
                        .entry((i, out))
                        .or_insert_with_key(|(_, out)| check(&corpus, r, out))
                        .clone(),
                },
            };
            tally.record(r, ms, answer, prepared.best[i]);
        }
        // One window per pass: every window holds the same requests.
        tally.end_window(pass.elapsed().as_secs_f64());
        if s.smoke || started.elapsed().as_secs_f64() >= s.seconds {
            break;
        }
    }
    if !s.trace {
        return Ok(tally.outcome());
    }
    layers.absorb_trace(&trace);
    for r in &reqs {
        match report_counters(s, &corpus, r, 0) {
            Ok(c) => layers.add_counters(&c, 1.0),
            Err(e) => tally.fail(format!("{}: metrics run failed: {e}", r.label)),
        }
    }
    let mut out = tally.outcome();
    out.metrics = layers.metrics();
    out.trace = Some(std::sync::Arc::new(trace));
    Ok(out)
}

/// Replays one request through the layers' public functions, recording a
/// span per call; returns the text the replay rendered (the plan part of
/// the CLI's output for unbudgeted requests).
pub(crate) fn replay(
    trace: &Trace,
    id: u64,
    corpus: &Corpus,
    r: &Request,
    layers: &mut Layers,
) -> Result<String, String> {
    let start = trace.now_ns();
    let text = corpus.read(&r.db)?;
    layers.parsed_bytes += text.len() as u64;
    let input = trace
        .time(id, "cli.parse", None, || parse_input(&text))
        .map_err(|e| e.to_string())?;
    let space = space_arg(r.space.as_deref());
    let mut pending = None;
    let rendered = match (&r.op, r.timeout_ms) {
        (Op::Optimize, Some(ms)) => {
            let budget = Budget::unlimited().with_deadline(Duration::from_millis(ms));
            let db = &input.database;
            let t = trace.now_ns();
            let robust = trace
                .time(id, "ladder", None, || {
                    optimize_database_robust_threaded(db, space, budget, None, r.threads)
                })
                .map_err(|e| e.to_string())?;
            let ladder_ns = trace.now_ns() - t;
            let text = trace.time(id, "render", None, || render_robust(db, space, &robust));
            layers.add_ladder(r, &robust);
            if r.threads == 1 {
                layers.ladder_t1_ns += ladder_ns;
                pending = Some((robust, ms));
            }
            text
        }
        (Op::Optimize, None) => plan_layers(trace, id, &input.database, space)?,
        (Op::Query, _) => {
            let sql = corpus.read(r.sql.as_deref().ok_or("query request without SQL")?)?;
            let query = trace
                .time(id, "query.parse", None, || mjoin::parse_query(&sql))
                .map_err(|e| e.to_string())?;
            let lowered = trace
                .time(id, "query.lower", None, || {
                    mjoin::lower(&query, &input.database)
                })
                .map_err(|e| e.to_string())?;
            if lowered.has_rows() {
                plan_layers(trace, id, &lowered.database, space)?
            } else {
                let t = trace.now_ns();
                let (plan, mut oracle) = trace
                    .time(id, "optimizer", None, || -> Result<_, mjoin::MjoinError> {
                        let mut synthetic = query_synthetic_oracle(&input, &lowered)?;
                        lowered.fold_into(&mut synthetic)?;
                        let mut oracle = TimedOracle::new(synthetic);
                        let full = lowered.database.scheme().full_set();
                        let plan = try_optimize(&mut oracle, full, space, &Guard::unlimited())?;
                        Ok((plan, oracle))
                    })
                    .map_err(|e| e.to_string())?;
                trace.record_oracle(id, "optimizer", t, oracle.take());
                let plan = plan.ok_or("empty search space")?;
                let t = trace.now_ns();
                let text = trace.time(id, "render", None, || {
                    format!(
                        "{}\n",
                        plan.explain(lowered.database.catalog(), &mut oracle)
                    )
                });
                trace.record_oracle(id, "render", t, oracle.take());
                text
            }
        }
        (Op::Execute, _) => {
            let db = &input.database;
            let config = mjoin_adaptive::AdaptiveConfig {
                space,
                threads: r.threads,
                replan_threshold: f64::INFINITY,
                ..mjoin_adaptive::AdaptiveConfig::default()
            };
            let (text, outcome) = trace
                .time(id, "execute", None, || {
                    mjoin_cli::execute_report(db, &mjoin_adaptive::Estimation::Synthetic, &config)
                })
                .map_err(|e| e.to_string())?;
            layers.result_tuples += outcome.result.tau();
            layers.executes += 1;
            text
        }
    };
    trace.record(crate::trace::Span {
        request: id,
        layer: "request",
        parent: None,
        start_ns: start,
        end_ns: trace.now_ns(),
    });
    // Outside the request's span: the replay is the trace's own work.
    if let Some((robust, ms)) = pending {
        oracle_replay(trace, id, &input.database, space, ms, &robust, layers);
    }
    Ok(rendered)
}

/// `try_optimize` then `Plan::explain` over a timed exact oracle, exactly
/// as the unbudgeted single-thread `optimize` path runs them.
fn plan_layers(
    trace: &Trace,
    id: u64,
    db: &Database,
    space: SearchSpace,
) -> Result<String, String> {
    let guard = Guard::new(Budget::unlimited());
    let full = db.scheme().full_set();
    let t = trace.now_ns();
    let (plan, mut oracle) = trace.time(id, "optimizer", None, || {
        let mut oracle = TimedOracle::new(ExactOracle::with_guard(db, guard.clone()));
        (try_optimize(&mut oracle, full, space, &guard), oracle)
    });
    let plan = plan.map_err(|e| e.to_string())?;
    trace.record_oracle(id, "optimizer", t, oracle.take());
    let Some(plan) = plan else {
        return Ok(format!(
            "search space {space:?} is empty for this (unconnected) scheme\n"
        ));
    };
    let t = trace.now_ns();
    let text = trace.time(id, "render", None, || {
        format!(
            "search space: {space:?}\n{}\n",
            plan.explain(db.catalog(), &mut oracle)
        )
    });
    trace.record_oracle(id, "render", t, oracle.take());
    // Freeing the memoized intermediates is the oracle's work too.
    trace.time(id, "oracle", None, || drop(oracle));
    Ok(text)
}

/// The budgeted `optimize` report, rendered as the CLI renders it.
fn render_robust(db: &Database, space: SearchSpace, r: &RobustPlan) -> String {
    let tau = if r.plan.cost == u64::MAX {
        "(not costed within budget)".to_string()
    } else {
        r.plan.cost.to_string()
    };
    format!(
        "search space: {space:?}\nplan: {}\nτ = {tau}\ndegradation: {}\n",
        r.plan.strategy.render(db.catalog(), db.scheme()),
        r.report
    )
}

/// The ladder builds its own oracle, which cannot be wrapped from
/// outside; to split a `--threads 1` ladder's time between the oracle and
/// the optimizer, replay each rung that ran, through the same public
/// function the sequential ladder calls, over a timed exact oracle with
/// that rung's deadline.
fn oracle_replay(
    trace: &Trace,
    id: u64,
    db: &Database,
    space: SearchSpace,
    budget_ms: u64,
    robust: &RobustPlan,
    layers: &mut Layers,
) {
    let mut ran: Vec<(Rung, Duration)> = robust
        .report
        .attempts
        .iter()
        .filter(|a| !a.stats.elapsed.is_zero())
        .map(|a| {
            (
                a.rung,
                Duration::from_millis(limit_ms(&a.outcome).unwrap_or(budget_ms)),
            )
        })
        .collect();
    let used: Duration = robust.report.attempts.iter().map(|a| a.stats.elapsed).sum();
    let left = Duration::from_millis(budget_ms).saturating_sub(used);
    ran.push((
        robust.report.answered_by,
        left.max(Duration::from_millis(1)),
    ));
    let full = db.scheme().full_set();
    let start = trace.now_ns();
    for (rung, deadline) in ran {
        let guard = Guard::new(Budget::unlimited().with_deadline(deadline));
        let mut oracle = TimedOracle::new(ExactOracle::with_guard(db, guard.clone()));
        let o = &mut oracle;
        // Budget trips are the expected outcome for rungs that overran;
        // only the time split matters here.
        let _ = match rung {
            Rung::Dp => try_optimize(o, full, space, &guard).map(|_| ()),
            Rung::LinDp => try_lindp(o, full, &guard).map(|_| ()),
            Rung::PartitionedDp => try_partitioned_dp(o, full, &guard).map(|_| ()),
            Rung::Greedy
                if matches!(space, SearchSpace::Linear | SearchSpace::LinearNoCartesian) =>
            {
                try_greedy_linear(o, full, &guard).map(|_| ())
            }
            Rung::Greedy => try_greedy_bushy(o, full, &guard).map(|_| ()),
            Rung::Fallback => {
                let order: Vec<usize> = full.iter().collect();
                Strategy::left_deep(&order).try_cost(o).map(|_| ())
            }
            Rung::Exhaustive => Ok(()),
        };
        layers.replay_oracle_ns += oracle.take();
    }
    let end_ns = trace.now_ns();
    trace.record(crate::trace::Span {
        request: id,
        layer: "ladder.replay",
        parent: None,
        start_ns: start,
        end_ns,
    });
    layers.replay_wall_ns += end_ns - start;
}

/// The `(limit N)` a budget error names, in milliseconds.
pub(crate) fn limit_ms(outcome: &str) -> Option<u64> {
    let tail = outcome.split("(limit ").nth(1)?;
    tail.split(')').next()?.trim().parse().ok()
}

/// The counters of one `--metrics-json` run of `r` — the program's own
/// counters, read only through its versioned run report. `k` tells
/// concurrent report files apart.
pub(crate) fn report_counters(
    s: &Settings,
    corpus: &Corpus,
    r: &Request,
    k: usize,
) -> Result<BTreeMap<String, f64>, String> {
    let path = s
        .out_dir
        .join(format!("metrics-{}-{k}.json", std::process::id()));
    let flag = vec![
        "--metrics-json".to_string(),
        path.to_string_lossy().into_owned(),
    ];
    let read = || -> Result<BTreeMap<String, f64>, String> {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc =
            mjoin_obs::json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        mjoin_obs::validate_schema(&doc)?;
        Ok(match doc.get("counters") {
            Some(Json::Obj(members)) => members
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n as f64)))
                .collect(),
            _ => BTreeMap::new(),
        })
    };
    let counters = run_request(corpus, r, &flag).and_then(|_| read());
    let _ = std::fs::remove_file(&path);
    counters
}
