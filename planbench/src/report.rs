//! Turning measurements into the benchmark's metrics.
//!
//! [`Tally`] collects the end-to-end numbers of the timed loop; [`Layers`]
//! collects the traced run's per-layer numbers. Both emit every metric
//! `BENCHMARK.json` lists, on every workload, so result files line up
//! (a layer a workload never enters reads 0).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use mjoin::RobustPlan;
use mjoin_obs::Json;

use crate::check::Answer;
use crate::corpus::{Op, Request};
use crate::stats::{geomean, median, metric, peak_rss_mb, quantile, ratio, Metric};
use crate::trace::Trace;

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Settings {
    /// The checkout the benchmark runs in (committed inputs are read
    /// from here).
    pub root: PathBuf,
    /// Where result files, traces and temporary files go.
    pub out_dir: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the untraced end-to-end run.
    pub trace: bool,
    /// One pass only, for self-tests.
    pub smoke: bool,
}

/// What one run produced.
pub struct Outcome {
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Requests that errored or were shed, and checks that failed.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Vec<Metric>,
    /// One line per failure.
    pub failures: Vec<String>,
    /// The traced run's spans.
    pub trace: Option<Arc<Trace>>,
    /// Per-request-label summary: count, median latency, answering rungs.
    pub per_request: Json,
}

/// End-to-end accumulator for one run.
pub struct Tally {
    setup_s: Vec<f64>,
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    answered: u64,
    degraded: u64,
    planning: u64,
    optimal: u64,
    /// (problem key, derived τ) of every costed answer.
    taus: Vec<(String, u64)>,
    /// Best τ set-up knows per problem key.
    best: BTreeMap<String, u64>,
    /// Per label: latencies, and how often each rung (or `-`) answered.
    by_label: BTreeMap<String, (Vec<f64>, BTreeMap<String, u64>)>,
    /// Per window of the timed loop: (requests, seconds, median latency,
    /// 99th-percentile latency).
    windows: Vec<(f64, f64, f64, f64)>,
    /// Where the current window starts in `latencies_ms`.
    window_start: usize,
}

/// Requests that pose the same planning problem share a key: the same
/// database, query and space at any thread count or deadline.
fn problem_key(r: &Request) -> String {
    format!("{}|{:?}|{:?}|{}", r.db, r.sql, r.space, r.op.name())
}

impl Tally {
    /// A tally whose set-up took `setup_s` (one entry per repetition).
    pub fn new(setup_s: &[f64]) -> Tally {
        Tally {
            setup_s: setup_s.to_vec(),
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            answered: 0,
            degraded: 0,
            planning: 0,
            optimal: 0,
            taus: Vec::new(),
            best: BTreeMap::new(),
            by_label: BTreeMap::new(),
            windows: Vec::new(),
            window_start: 0,
        }
    }

    /// Counts a failed check that is not a timed request.
    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(msg);
    }

    /// Closes a window of the timed loop that lasted `seconds`: the
    /// requests recorded since the previous window.
    pub fn end_window(&mut self, seconds: f64) {
        let recent = &self.latencies_ms[self.window_start..];
        if !recent.is_empty() {
            self.windows.push((
                recent.len() as f64,
                seconds,
                median(recent),
                quantile(recent, 0.99),
            ));
        }
        self.window_start = self.latencies_ms.len();
    }

    /// Records one timed request and its checked answer.
    pub fn record(
        &mut self,
        r: &Request,
        ms: f64,
        answer: Result<Answer, String>,
        best: Option<u64>,
    ) {
        self.latencies_ms.push(ms);
        let label = self.by_label.entry(r.label.clone()).or_default();
        label.0.push(ms);
        let rung = match &answer {
            Ok(a) => a.rung.clone().unwrap_or_else(|| "-".into()),
            Err(_) => "failed".into(),
        };
        *label.1.entry(rung).or_insert(0) += 1;
        let key = problem_key(r);
        if let Some(b) = best {
            let e = self.best.entry(key.clone()).or_insert(b);
            *e = (*e).min(b);
        }
        let a = match answer {
            Ok(a) => a,
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.failures.push(e);
                return;
            }
        };
        self.attempted += 1;
        self.answered += 1;
        self.degraded += u64::from(a.degraded);
        if r.op != Op::Execute {
            self.planning += 1;
            self.optimal += u64::from(a.optimal);
        }
        if let Some(d) = a.derived {
            self.taus.push((key, d));
        }
    }

    /// The end-to-end metrics.
    pub fn outcome(mut self) -> Outcome {
        // An answer better than set-up's best-known τ becomes the best.
        for (k, d) in &self.taus {
            let e = self.best.entry(k.clone()).or_insert(*d);
            *e = (*e).min(*d);
        }
        let ratios: Vec<f64> = self
            .taus
            .iter()
            .filter_map(|(k, d)| {
                let b = *self.best.get(k)?;
                (b > 0).then(|| *d as f64 / b as f64)
            })
            .collect();
        // Each figure is a median over windows, so that a few slow seconds
        // on a shared host do not move it.
        let over_windows = |f: fn(&(f64, f64, f64, f64)) -> f64| {
            median(&self.windows.iter().map(f).collect::<Vec<f64>>())
        };
        let metrics = vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric("latency_p50_ms", over_windows(|w| w.2), "ms"),
            metric("latency_p99_ms", over_windows(|w| w.3), "ms"),
            metric("throughput_ops_s", over_windows(|w| ratio(w.0, w.1)), "1/s"),
            metric(
                "ok_share",
                1.0 - ratio(self.failed as f64, self.attempted as f64),
                "share",
            ),
            metric(
                "undegraded_share",
                1.0 - ratio(self.degraded as f64, self.answered as f64),
                "share",
            ),
            metric(
                "optimal_share",
                ratio(self.optimal as f64, self.planning as f64),
                "share",
            ),
            metric("tau_ratio", geomean(&ratios), "ratio"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
        self.failures.truncate(50);
        let per_request = Json::Obj(
            self.by_label
                .iter()
                .map(|(label, (ms, rungs))| {
                    let rungs = rungs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                        .collect();
                    let summary = Json::obj(vec![
                        ("count", Json::U64(ms.len() as u64)),
                        ("p50_ms", Json::F64(median(ms))),
                        ("p99_ms", Json::F64(quantile(ms, 0.99))),
                        ("answered_by", Json::Obj(rungs)),
                    ]);
                    (label.clone(), summary)
                })
                .collect(),
        );
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            failures: self.failures,
            trace: None,
            per_request,
        }
    }
}

/// The rungs, in ladder order, as the program names them.
const RUNGS: [&str; 6] = ["exhaustive", "dp", "lindp", "partdp", "greedy", "fallback"];

/// Per-layer accumulator for one traced run.
#[derive(Default)]
pub struct Layers {
    /// Untraced `run` wall time of the same requests the trace replayed.
    pub untraced_ns: u64,
    /// Database text bytes the traced requests parsed.
    pub parsed_bytes: u64,
    /// Result tuples the traced `execute` requests produced.
    pub result_tuples: u64,
    /// Traced `execute` requests.
    pub executes: u64,
    /// Oracle time in the ladder's rung replays (`--threads 1` requests).
    pub replay_oracle_ns: u64,
    /// Wall time of the ladder's rung replays.
    pub replay_wall_ns: u64,
    /// Ladder time of the `--threads 1` requests the replays split.
    pub ladder_t1_ns: u64,
    ladder_requests: u64,
    rung_ns: BTreeMap<String, u64>,
    answered: BTreeMap<String, u64>,
    overrun_ms: f64,
    /// chain40 per thread count: (requests, overrun ms, optimal answers).
    chain40: BTreeMap<usize, (u64, f64, u64)>,
    counters: BTreeMap<String, f64>,
    counter_weight: f64,
    totals: BTreeMap<&'static str, u64>,
    top_level_ns: u64,
    oracle_in_optimizer_ns: u64,
    requests_ns: u64,
    requests: u64,
    /// Metrics only the serve workload measures, by name.
    pub serve: BTreeMap<&'static str, f64>,
    /// Factor from "share of a traced request" to "share of request wall
    /// time": 1 where the traced request is the request; for the daemon,
    /// the engine's share of the clients' round-trip time.
    pub share_scale: Option<f64>,
}

impl Layers {
    /// Records what one budgeted request's ladder did, from its report.
    pub fn add_ladder(&mut self, r: &Request, robust: &RobustPlan) {
        self.ladder_requests += 1;
        let rep = &robust.report;
        let mut overrun = 0.0;
        for a in &rep.attempts {
            *self.rung_ns.entry(a.rung.to_string()).or_insert(0) +=
                a.stats.elapsed.as_nanos() as u64;
            if let Some(limit) = crate::cli::limit_ms(&a.outcome) {
                overrun += (a.stats.elapsed.as_secs_f64() * 1e3 - limit as f64).max(0.0);
            }
        }
        *self.rung_ns.entry(rep.answered_by.to_string()).or_insert(0) +=
            rep.answered_stats.elapsed.as_nanos() as u64;
        *self
            .answered
            .entry(rep.answered_by.to_string())
            .or_insert(0) += 1;
        self.overrun_ms += overrun;
        if r.label.starts_with("chain40/") {
            let e = self.chain40.entry(r.threads).or_insert((0, 0.0, 0));
            e.0 += 1;
            e.1 += overrun;
            e.2 += u64::from(rep.optimal);
        }
    }

    /// Adds one run report's counters with `weight`.
    pub fn add_counters(&mut self, counters: &BTreeMap<String, f64>, weight: f64) {
        for (k, v) in counters {
            *self.counters.entry(k.clone()).or_insert(0.0) += v * weight;
        }
        self.counter_weight += weight;
    }

    /// Folds a trace's spans in: per-layer totals, traced request wall
    /// time and the time covered by top-level layer calls.
    pub fn absorb_trace(&mut self, trace: &Trace) {
        for s in trace.spans() {
            *self.totals.entry(s.layer).or_insert(0) += s.ns();
            match (s.layer, s.parent) {
                ("oracle", Some("optimizer")) => self.oracle_in_optimizer_ns += s.ns(),
                ("request", _) => {
                    self.requests_ns += s.ns();
                    self.requests += 1;
                }
                // Served-request and replay spans are not request layers.
                (_, None) if s.layer.starts_with("serve.") || s.layer == "ladder.replay" => {}
                (_, None) => self.top_level_ns += s.ns(),
                _ => {}
            }
        }
    }

    fn counter(&self, name: &str) -> f64 {
        ratio(
            self.counters.get(name).copied().unwrap_or(0.0),
            self.counter_weight,
        )
    }

    fn total(&self, layer: &str) -> f64 {
        self.totals.get(layer).copied().unwrap_or(0) as f64
    }

    /// Every per-layer metric.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.requests.max(1) as f64;
        let wall = self.requests_ns as f64 / self.share_scale.unwrap_or(1.0);
        let per_ms = |ns: f64| ns / n / 1e6;
        let replay_frac = ratio(self.replay_oracle_ns as f64, self.replay_wall_ns as f64);
        let ladder_oracle_ns = self.ladder_t1_ns as f64 * replay_frac;
        let oracle_ns = self.total("oracle") + ladder_oracle_ns;
        let planning_ns = self.total("optimizer") + self.total("ladder");
        let self_ns =
            (planning_ns - self.oracle_in_optimizer_ns as f64 - ladder_oracle_ns).max(0.0);
        let hits = self.counter("oracle.memo_hits") + self.counter("oracle.shared_hits");
        let materialized = self.counter("oracle.subsets_materialized")
            + self.counter("oracle.shared_distinct_subsets");
        let scanned = self.counter("dp.candidates_scanned");
        let ladder_n = self.ladder_requests.max(1) as f64;
        let serve = |k: &str| self.serve.get(k).copied().unwrap_or(0.0);
        let mut m = vec![
            metric("cli.parse.ms", per_ms(self.total("cli.parse")), "ms"),
            metric(
                "cli.parse.share",
                ratio(self.total("cli.parse"), wall),
                "share",
            ),
            metric(
                "cli.parse.bytes_per_s",
                ratio(self.parsed_bytes as f64, self.total("cli.parse") / 1e9),
                "B/s",
            ),
            metric("query.parse.ms", per_ms(self.total("query.parse")), "ms"),
            metric("query.lower.ms", per_ms(self.total("query.lower")), "ms"),
            metric(
                "query.filters_pushed",
                self.counter("query.filters_pushed"),
                "count",
            ),
            metric("render.ms", per_ms(self.total("render")), "ms"),
            metric("render.share", ratio(self.total("render"), wall), "share"),
            metric("serve.fingerprint.ms", serve("serve.fingerprint.ms"), "ms"),
            metric("serve.engine.ms", serve("serve.engine.ms"), "ms"),
            metric(
                "serve.wire_queue.p50_ms",
                serve("serve.wire_queue.p50_ms"),
                "ms",
            ),
            metric(
                "serve.wire_queue.p99_ms",
                serve("serve.wire_queue.p99_ms"),
                "ms",
            ),
            metric(
                "serve.cache.hit_ratio",
                serve("serve.cache.hit_ratio"),
                "share",
            ),
            metric(
                "serve.cache.evictions",
                serve("serve.cache.evictions"),
                "count",
            ),
            metric("serve.shed_ratio", serve("serve.shed_ratio"), "share"),
            metric("store.load.ms", serve("store.load.ms"), "ms"),
            metric("store.snapshot.ms", serve("store.snapshot.ms"), "ms"),
            metric("store.bytes", serve("store.bytes"), "B"),
            metric("oracle.ms", per_ms(oracle_ns), "ms"),
            metric("oracle.share", ratio(oracle_ns, wall), "share"),
            metric("oracle.calls", hits + materialized, "count"),
            metric(
                "oracle.memo_hit_ratio",
                ratio(hits, hits + materialized),
                "share",
            ),
            metric("oracle.subsets_materialized", materialized, "count"),
            metric("kernel.joins", self.counter("kernel.joins"), "count"),
            metric(
                "kernel.tuples_probed",
                self.counter("kernel.tuples_probed"),
                "count",
            ),
            metric(
                "kernel.tuples_emitted",
                self.counter("kernel.tuples_emitted"),
                "count",
            ),
            metric("optimizer.self.ms", per_ms(self_ns), "ms"),
            metric("optimizer.self.share", ratio(self_ns, wall), "share"),
            metric("dp.candidates_scanned", scanned, "count"),
            metric(
                "dp.ccp_pairs_emitted",
                self.counter("dp.ccp_pairs_emitted"),
                "count",
            ),
            metric(
                "dp.subsets_expanded",
                self.counter("dp.subsets_expanded"),
                "count",
            ),
            metric(
                "dp.useful_ratio",
                ratio(scanned - self.counter("dp.candidates_pruned"), scanned),
                "share",
            ),
            metric("ladder.ms", per_ms(self.total("ladder")), "ms"),
            metric("ladder.share", ratio(self.total("ladder"), wall), "share"),
            metric(
                "ladder.rungs_attempted",
                self.counter("ladder.rungs_attempted"),
                "count",
            ),
            metric("ladder.overrun_ms", self.overrun_ms / ladder_n, "ms"),
        ];
        for rung in RUNGS {
            let ns = self.rung_ns.get(rung).copied().unwrap_or(0) as f64;
            m.push(metric(
                format!("ladder.rung.{rung}.ms"),
                ns / ladder_n / 1e6,
                "ms",
            ));
        }
        for rung in RUNGS {
            let k = self.answered.get(rung).copied().unwrap_or(0) as f64;
            m.push(metric(
                format!("ladder.answered.{rung}"),
                k / ladder_n,
                "share",
            ));
        }
        for t in [1usize, 2] {
            let (k, over, opt) = self.chain40.get(&t).copied().unwrap_or((0, 0.0, 0));
            let k = k.max(1) as f64;
            m.push(metric(
                format!("ladder.chain40.t{t}.overrun_ms"),
                over / k,
                "ms",
            ));
            m.push(metric(
                format!("ladder.chain40.t{t}.optimal_share"),
                opt as f64 / k,
                "share",
            ));
        }
        m.extend([
            metric("execute.ms", per_ms(self.total("execute")), "ms"),
            metric(
                "execute.result_tuples",
                ratio(self.result_tuples as f64, self.executes as f64),
                "count",
            ),
            metric(
                "adaptive.replans",
                self.counter("adaptive.replans"),
                "count",
            ),
            metric(
                "trace.overhead_share",
                ratio(self.requests_ns as f64, self.untraced_ns as f64) - 1.0,
                "share",
            ),
            metric(
                "trace.coverage_share",
                ratio(self.top_level_ns as f64, self.requests_ns as f64)
                    .min(self.serve.get("coverage").copied().unwrap_or(1.0)),
                "share",
            ),
            metric("obs.counter_bleed", serve("obs.counter_bleed"), "count"),
        ]);
        m
    }
}
