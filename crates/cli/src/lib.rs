//! Command-line interface to the `mjoin` analyzer.
//!
//! The binary (`mjoin`) reads a plain-text database description and runs
//! the paper's machinery over it:
//!
//! ```text
//! mjoin analyze    db.mj            # conditions, theorems, safe space
//! mjoin optimize   db.mj [SPACE]    # best plan in a search space
//! mjoin cost       db.mj "EXPR"     # explain a hand-written strategy
//! mjoin conditions db.mj            # condition report with witnesses
//! ```
//!
//! # Database file format
//!
//! ```text
//! # comments start with '#'
//! relation AB          # a scheme spec (single letters, or "a,b,c")
//! 1 10                 # rows: whitespace-separated values; integers
//! 2 20                 # when they parse, strings otherwise
//!
//! relation BC
//! 10 hello
//!
//! fd B -> C            # optional functional dependencies
//! ```
//!
//! All functionality lives in this library so it can be tested; the binary
//! is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod serve;

pub use serve::MjoinEngine;

use std::fmt::Write as _;
use std::time::Duration;

use mjoin::{
    analyze_guarded, failpoints, optimize_robust, try_optimize, try_optimize_parallel,
    BrownoutLevel, Budget, Condition, Database, ExactOracle, Guard, MjoinError, Rung, SearchSpace,
    SharedOracle, Strategy, Value,
};
use mjoin_fd::FdSet;
use mjoin_hypergraph::{DbScheme, JoinTree};
use mjoin_obs::{Json, Recorder, RunReport};
use mjoin_relation::{Catalog, Relation};

/// A parsed input file: the database plus any declared FDs and
/// statistics.
#[derive(Clone, Debug)]
pub struct Input {
    /// The database (states may be empty when only statistics are given).
    pub database: Database,
    /// Declared functional dependencies (possibly empty).
    pub fds: FdSet,
    /// Declared per-relation cardinality estimates (`relation AB 1000`).
    pub cards: Vec<Option<u64>>,
    /// Declared attribute domain sizes (`domain B 50`).
    pub domains: Vec<(String, u64)>,
}

/// CLI errors, as display-ready strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Parses the database file format described in the crate docs.
pub fn parse_input(text: &str) -> Result<Input, CliError> {
    let mut catalog = Catalog::new();
    let mut specs: Vec<String> = Vec::new();
    let mut cards: Vec<Option<u64>> = Vec::new();
    let mut rows: Vec<Vec<Vec<Value>>> = Vec::new();
    let mut fd_specs: Vec<String> = Vec::new();
    let mut domains: Vec<(String, u64)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(spec) = line.strip_prefix("relation ") {
            let mut parts = spec.split_whitespace();
            let name = parts.next().unwrap_or("").to_string();
            let card = match parts.next() {
                Some(tok) => Some(tok.parse::<u64>().map_err(|_| {
                    CliError(format!("line {}: bad cardinality {tok:?}", lineno + 1))
                })?),
                None => None,
            };
            specs.push(name);
            cards.push(card);
            rows.push(Vec::new());
        } else if let Some(fd) = line.strip_prefix("fd ") {
            fd_specs.push(fd.trim().to_string());
        } else if let Some(dom) = line.strip_prefix("domain ") {
            let mut parts = dom.split_whitespace();
            let (Some(attr), Some(size)) = (parts.next(), parts.next()) else {
                return err(format!("line {}: expected 'domain ATTR SIZE'", lineno + 1));
            };
            let size = size.parse::<u64>().map_err(|_| {
                CliError(format!("line {}: bad domain size {size:?}", lineno + 1))
            })?;
            domains.push((attr.to_string(), size));
        } else {
            let Some(current) = rows.last_mut() else {
                return err(format!(
                    "line {}: row before any 'relation' header",
                    lineno + 1
                ));
            };
            let values: Vec<Value> = line
                .split_whitespace()
                .map(|tok| match tok.parse::<i64>() {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::str(tok),
                })
                .collect();
            current.push(values);
        }
    }
    if specs.is_empty() {
        return err("no relations declared (expected 'relation <SCHEME>' lines)");
    }

    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let scheme = DbScheme::parse(&mut catalog, &spec_refs)
        .map_err(|e| CliError(format!("bad scheme: {e}")))?;
    let states = rows
        .into_iter()
        .enumerate()
        .map(|(i, rs)| {
            Relation::from_rows(scheme.scheme(i), rs)
                .map_err(|e| CliError(format!("relation {}: {e}", specs[i])))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let fd_refs: Vec<&str> = fd_specs.iter().map(String::as_str).collect();
    let fds = if fd_refs.is_empty() {
        FdSet::new()
    } else {
        FdSet::parse(&mut catalog, &fd_refs)
    };
    Ok(Input {
        database: Database::new(catalog, scheme, states),
        fds,
        cards,
        domains,
    })
}

/// Builds a synthetic oracle from the declared statistics: cardinalities
/// default to the actual state size (or 1000 when no rows were given),
/// domains default to 100.
pub fn synthetic_oracle(input: &Input) -> Result<mjoin::SyntheticOracle, CliError> {
    let db = &input.database;
    let bases: Vec<u64> = (0..db.len())
        .map(|i| {
            input.cards[i].unwrap_or_else(|| {
                let t = db.state(i).tau();
                if t > 0 {
                    t
                } else {
                    1000
                }
            })
        })
        .collect();
    let mut oracle = mjoin::SyntheticOracle::new(db.scheme().clone(), bases, 100);
    for (name, size) in &input.domains {
        let Some(attr) = db.catalog().lookup(name) else {
            return err(format!("domain declared for unknown attribute {name:?}"));
        };
        if *size == 0 {
            return err(format!("domain size for {name:?} must be ≥ 1"));
        }
        oracle.set_domain(attr.index(), *size);
    }
    Ok(oracle)
}

/// Resource-governance options stripped from the command line before
/// command dispatch.
#[derive(Clone, Debug, Default)]
pub struct GuardOptions {
    /// Wall-clock deadline (`--timeout-ms N`).
    pub timeout_ms: Option<u64>,
    /// Optimizer memo-entry cap (`--max-memo-entries N`).
    pub max_memo_entries: Option<u64>,
    /// Intermediate-tuple cap (`--max-tuples N`).
    pub max_tuples: Option<u64>,
    /// Fault-injection sites to arm (`--fail-inject a,b`).
    pub fail_inject: Vec<String>,
    /// Worker threads for plan search (`--threads N`).
    pub threads: Option<usize>,
    /// Append a human-readable metrics table to the output (`--metrics`).
    pub metrics: bool,
    /// Write the machine-readable run report here (`--metrics-json PATH`).
    pub metrics_json: Option<String>,
    /// Persistent optimizer store path (`--store PATH`): `optimize`
    /// warm-starts from a matching entry and saves cold results back;
    /// `serve` warm-starts its plan cache and snapshots on drain.
    pub store: Option<String>,
}

impl GuardOptions {
    /// Is any budget limit set (deadline or cap)?
    pub fn is_limited(&self) -> bool {
        self.timeout_ms.is_some() || self.max_memo_entries.is_some() || self.max_tuples.is_some()
    }

    /// Did the invocation ask for metrics in any form?
    pub fn wants_metrics(&self) -> bool {
        self.metrics || self.metrics_json.is_some()
    }

    /// The corresponding [`Budget`].
    pub fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(ms) = self.timeout_ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_memo_entries {
            b = b.with_max_memo_entries(n);
        }
        if let Some(n) = self.max_tuples {
            b = b.with_max_tuples(n);
        }
        b
    }

    /// The effective worker-thread count: the `--threads` flag, else the
    /// `MJOIN_THREADS` environment variable, else 1. Unbudgeted output is
    /// byte-identical at every count.
    pub fn threads(&self) -> usize {
        self.threads
            .or_else(|| std::env::var("MJOIN_THREADS").ok()?.parse().ok())
            .unwrap_or(1)
            .max(1)
    }
}

/// Splits `--timeout-ms`, `--max-memo-entries`, `--max-tuples`,
/// `--fail-inject`, `--threads`, `--metrics` and `--metrics-json` (both
/// `--flag value` and `--flag=value` forms) out of `args`, returning the
/// remaining positional arguments and the parsed options.
pub fn parse_guard_flags(args: &[String]) -> Result<(Vec<String>, GuardOptions), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut opts = GuardOptions::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>| {
            inline.clone().or_else(|| it.next().cloned()).ok_or_else(|| {
                CliError(format!("flag {flag} requires a value"))
            })
        };
        let parse_u64 = |v: String| {
            v.parse::<u64>()
                .map_err(|_| CliError(format!("flag {flag}: bad number {v:?}")))
        };
        match flag {
            "--timeout-ms" => opts.timeout_ms = Some(parse_u64(value(&mut it)?)?),
            "--threads" => {
                let n = parse_u64(value(&mut it)?)?;
                if n == 0 {
                    return err("flag --threads: thread count must be ≥ 1");
                }
                opts.threads = Some(n as usize);
            }
            "--max-memo-entries" => opts.max_memo_entries = Some(parse_u64(value(&mut it)?)?),
            "--max-tuples" => opts.max_tuples = Some(parse_u64(value(&mut it)?)?),
            "--metrics" => opts.metrics = true,
            "--metrics-json" => opts.metrics_json = Some(value(&mut it)?),
            "--store" => opts.store = Some(value(&mut it)?),
            "--fail-inject" => {
                for site in value(&mut it)?.split(',').filter(|s| !s.is_empty()) {
                    if !failpoints::is_known(site) {
                        return err(format!(
                            "unknown fault-injection site {site:?} (known: {})",
                            failpoints::SITES.join(", ")
                        ));
                    }
                    opts.fail_inject.push(site.to_string());
                }
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((rest, opts))
}

/// Disarms the listed failpoints when dropped, so in-process callers
/// (tests) don't leak armed sites across invocations.
struct ArmedSites(Vec<String>);

impl Drop for ArmedSites {
    fn drop(&mut self) {
        for site in &self.0 {
            failpoints::disarm(site);
        }
    }
}

fn parse_space(s: &str) -> Result<SearchSpace, CliError> {
    match s {
        "all" => Ok(SearchSpace::All),
        "linear" => Ok(SearchSpace::Linear),
        "nocp" | "no-cartesian" => Ok(SearchSpace::NoCartesian),
        "linear-nocp" | "linear-no-cartesian" => Ok(SearchSpace::LinearNoCartesian),
        "avoid" | "avoid-cartesian" => Ok(SearchSpace::AvoidCartesian),
        other => err(format!(
            "unknown search space {other:?} (expected all | linear | nocp | linear-nocp | avoid)"
        )),
    }
}

/// The rendered result of one `optimize` invocation: exactly the text the
/// `optimize` command prints, plus the structured pieces the serve daemon
/// and the metrics sections reuse.
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// The report text, byte-identical to the `optimize` command output.
    pub text: String,
    /// The plan's τ, when one was costed within budget.
    pub cost: Option<u64>,
    /// The winning plan itself (absent when the space was empty), so the
    /// persistent-store save path can serialize it without re-optimizing.
    pub plan: Option<mjoin::Plan>,
    /// Budgeted mode only: the degradation ladder's full result.
    pub robust: Option<mjoin::RobustPlan>,
}

/// Runs the `optimize` command's planning paths — the budgeted ladder, or
/// the unbudgeted DP over one shared memo, chosen exactly as the CLI does —
/// and renders the report. Shared by the CLI and the serve daemon so a
/// served plan is byte-identical to the CLI's.
pub fn optimize_outcome(
    db: &Database,
    space: SearchSpace,
    gopts: &GuardOptions,
) -> Result<OptimizeOutcome, MjoinError> {
    let budget = gopts.budget();
    let threads = gopts.threads();
    if gopts.is_limited() {
        // Budgeted mode: the degradation ladder always answers with
        // some valid strategy and reports which rung produced it.
        return ladder_outcome(db, space, budget, threads, Rung::Exhaustive);
    }
    // The space's DP over one shared memo: level-parallel DPccp for the
    // product-free spaces, sequential DP for the rest.
    let guard = Guard::new(budget);
    let shared = SharedOracle::with_guard(db, guard.clone()).with_join_threads(threads);
    let plan = try_optimize_parallel(&shared, db.scheme().full_set(), space, &guard, threads)?;
    let mut out = String::new();
    match &plan {
        Some(plan) => {
            let _ = writeln!(out, "search space: {space:?}");
            let _ = writeln!(out, "{}", plan.explain(db.catalog(), &mut shared.handle()));
        }
        None => {
            let _ = writeln!(
                out,
                "search space {space:?} is empty for this (unconnected) scheme"
            );
        }
    }
    Ok(OptimizeOutcome {
        text: out,
        cost: plan.as_ref().map(|p| p.cost),
        plan,
        robust: None,
    })
}

/// The degradation ladder entered at `entry`, rendered as the budgeted
/// `optimize` report.
fn ladder_outcome(
    db: &Database,
    space: SearchSpace,
    budget: Budget,
    threads: usize,
    entry: Rung,
) -> Result<OptimizeOutcome, MjoinError> {
    let r = optimize_robust(
        db,
        db.scheme().full_set(),
        space,
        budget,
        None,
        threads,
        entry,
    )?;
    let mut out = String::new();
    let _ = writeln!(out, "search space: {space:?}");
    let _ = writeln!(
        out,
        "plan: {}",
        r.plan.strategy.render(db.catalog(), db.scheme())
    );
    if r.plan.cost == u64::MAX {
        let _ = writeln!(out, "τ = (not costed within budget)");
    } else {
        let _ = writeln!(out, "τ = {}", r.plan.cost);
    }
    let _ = writeln!(out, "degradation: {}", r.report);
    Ok(OptimizeOutcome {
        text: out,
        cost: (r.plan.cost != u64::MAX).then_some(r.plan.cost),
        plan: Some(r.plan.clone()),
        robust: Some(r),
    })
}

/// [`optimize_outcome`] with a server-pinned brownout level: `Normal`
/// delegates (byte-identical output); a browned level always runs the
/// degradation ladder from the level's entry rung under the level's
/// tightened budget, so the answer is a valid covering strategy that was
/// cheap to find by construction. The report gains a `brownout:` line
/// naming the level, so a degraded answer can never be mistaken for a
/// full-ladder one.
pub fn optimize_outcome_browned(
    db: &Database,
    space: SearchSpace,
    gopts: &GuardOptions,
    level: BrownoutLevel,
) -> Result<OptimizeOutcome, MjoinError> {
    if level == BrownoutLevel::Normal {
        return optimize_outcome(db, space, gopts);
    }
    let budget = level.apply(gopts.budget());
    let mut o = ladder_outcome(db, space, budget, gopts.threads(), level.entry_rung())?;
    let _ = writeln!(o.text, "brownout: {level}");
    Ok(o)
}

/// The rendered result of one `query` invocation: the lowering header
/// (per-table filter effect, join edges) plus the plan report over the
/// filtered sub-database.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The report text, byte-identical to the `query` command output.
    pub text: String,
    /// The plan's τ over the filtered database, when costed within budget.
    pub cost: Option<u64>,
    /// The winning plan (absent when the space was empty).
    pub plan: Option<mjoin::Plan>,
    /// Budgeted mode only: the degradation ladder's full result.
    pub robust: Option<mjoin::RobustPlan>,
}

/// Builds the synthetic cardinality model for a lowered query over its
/// sub-scheme: base cardinalities come from the declared statistics (or
/// actual state sizes, or the 1000-tuple default), domains from declared
/// `domain` lines (default 100) — exactly the `estimate` command's model,
/// restricted to the selected tables. Filter selectivities are *not*
/// folded here; call [`LoweredQuery::fold_into`](mjoin::LoweredQuery::fold_into)
/// for the selectivity-aware model (tests compare both).
pub fn query_synthetic_oracle(
    input: &Input,
    lowered: &mjoin::LoweredQuery,
) -> Result<mjoin::SyntheticOracle, MjoinError> {
    let src = &input.database;
    let bases: Vec<u64> = lowered
        .table_map
        .iter()
        .map(|&i| {
            input.cards[i].unwrap_or_else(|| {
                let t = src.state(i).tau();
                if t > 0 {
                    t
                } else {
                    1000
                }
            })
        })
        .collect();
    let mut oracle =
        mjoin::SyntheticOracle::try_new(lowered.database.scheme().clone(), bases, 100)?;
    for (name, size) in &input.domains {
        let Some(attr) = src.catalog().lookup(name) else {
            return Err(MjoinError::InvalidScheme(format!(
                "domain declared for unknown attribute {name:?}"
            )));
        };
        oracle.try_set_domain(attr.index(), *size)?;
    }
    Ok(oracle)
}

/// Renders the `query` command's report: a lowering header (per-table
/// rows before→after the pushed-down filters, the join edges), then the
/// plan over the filtered sub-database — via the `optimize` paths when
/// the database has rows, via the selectivity-folded synthetic model when
/// it is statistics-only. Shared by the CLI and the serve daemon so a
/// served query answer is byte-identical to the CLI's.
///
/// A pinned brownout `level` applies to the materialized path exactly as
/// it does for `optimize`; statistics-only planning is cheap by
/// construction and ignores it.
pub fn query_report(
    input: &Input,
    lowered: &mjoin::LoweredQuery,
    rendered: &str,
    space: SearchSpace,
    gopts: &GuardOptions,
    level: BrownoutLevel,
) -> Result<QueryOutcome, MjoinError> {
    let has_rows = lowered.has_rows();
    let mut out = String::new();
    let _ = writeln!(out, "query: {rendered}");
    let _ = writeln!(out, "tables:");
    for (pos, name) in lowered.table_names.iter().enumerate() {
        let filters = lowered.filter_counts[pos];
        if !has_rows {
            // Statistics-only input: the states are empty, so report the
            // declared (or defaulted) cardinality the model will use.
            let card = input.cards[lowered.table_map[pos]].unwrap_or(1000);
            if filters == 0 {
                let _ = writeln!(out, "  {name}: {card} tuples (declared)");
            } else {
                let _ = writeln!(
                    out,
                    "  {name}: {card} tuples (declared; {} filter{}, selectivity {:.4})",
                    filters,
                    if filters == 1 { "" } else { "s" },
                    lowered.selectivities[pos]
                );
            }
        } else if filters == 0 {
            let _ = writeln!(out, "  {name}: {} tuples", lowered.base_taus[pos]);
        } else {
            let _ = writeln!(
                out,
                "  {name}: {} -> {} tuples ({} filter{}, selectivity {:.4})",
                lowered.base_taus[pos],
                lowered.filtered_taus[pos],
                filters,
                if filters == 1 { "" } else { "s" },
                lowered.selectivities[pos]
            );
        }
    }
    if lowered.join_edges.is_empty() {
        let _ = writeln!(out, "join edges: (none — every pair joins as a Cartesian product)");
    } else {
        let edges: Vec<String> = lowered
            .join_edges
            .iter()
            .map(|e| {
                format!(
                    "{}~{} on {}",
                    lowered.table_names[e.left], lowered.table_names[e.right], e.attr
                )
            })
            .collect();
        let _ = writeln!(out, "join edges: {}", edges.join(", "));
    }
    let (cost, plan, robust) = if has_rows {
        let o = optimize_outcome_browned(&lowered.database, space, gopts, level)?;
        out.push_str(&o.text);
        (o.cost, o.plan, o.robust)
    } else {
        let mut oracle = query_synthetic_oracle(input, lowered)?;
        lowered.fold_into(&mut oracle)?;
        let guard = Guard::new(gopts.budget());
        let full = lowered.database.scheme().full_set();
        match try_optimize(&mut oracle, full, space, &guard)? {
            Some(plan) => {
                let _ = writeln!(
                    out,
                    "search space: {space:?} (synthetic cardinality model, filters folded)"
                );
                let _ = writeln!(
                    out,
                    "{}",
                    plan.explain(lowered.database.catalog(), &mut oracle)
                );
                (Some(plan.cost), Some(plan), None)
            }
            None => {
                let _ = writeln!(
                    out,
                    "search space {space:?} is empty for this (unconnected) scheme"
                );
                (None, None, None)
            }
        }
    };
    Ok(QueryOutcome {
        text: out,
        cost,
        plan,
        robust,
    })
}

/// Cache/store key for a `query` invocation: the optimize fingerprint of
/// the **lowered** (filtered) database, with the search-space slot
/// carrying both the space and the canonical rendered query. The
/// namespace prefix guarantees a `query` entry can never collide with a
/// plain `optimize` entry over the same filtered states — and two
/// different queries lowering to identical states still key apart.
pub fn query_fingerprint(
    lowered_db: &Database,
    rendered: &str,
    space_raw: Option<&str>,
    gopts: &GuardOptions,
) -> String {
    let ns = format!("query|{}|{rendered}", space_raw.unwrap_or(""));
    mjoin::optimize_fingerprint(
        lowered_db,
        Some(&ns),
        gopts.timeout_ms,
        gopts.max_memo_entries,
        gopts.max_tuples,
        gopts.threads(),
    )
}

/// Plans and executes under `estimation`/`config`, rendering exactly the
/// text the `execute` command prints. Shared by the CLI and the serve
/// daemon.
pub fn execute_report(
    db: &Database,
    estimation: &mjoin_adaptive::Estimation,
    config: &mjoin_adaptive::AdaptiveConfig,
) -> Result<(String, mjoin_adaptive::ExecutionOutcome), MjoinError> {
    let space = config.space;
    let (plan, outcome) = mjoin_adaptive::plan_and_execute(db, estimation, config)?;
    let mut out = String::new();
    let _ = writeln!(out, "search space: {space:?}");
    let _ = writeln!(
        out,
        "plan: {}",
        plan.strategy.render(db.catalog(), db.scheme())
    );
    if plan.cost == u64::MAX {
        let _ = writeln!(out, "believed τ = (not costed)");
    } else {
        let _ = writeln!(out, "believed τ = {}", plan.cost);
    }
    out.push_str(&outcome.trace.render(db.catalog(), db.scheme()));
    let _ = writeln!(out, "result: {} tuples", outcome.result.tau());
    Ok((out, outcome))
}

/// Runs a CLI invocation (`args` excludes the program name) against `read`,
/// a file loader — injected so tests run without a filesystem. Returns the
/// full report text.
pub fn run<F>(args: &[String], read: F) -> Result<String, CliError>
where
    F: Fn(&str) -> Result<String, String>,
{
    let usage = "usage: mjoin <analyze|optimize|query|execute|cost|conditions|compare|estimate|dot|show> <db-file> [ARGS] [FLAGS]\n\
                 \n\
                 analyze    DB             conditions, theorems, recommended search space\n\
                 optimize   DB [SPACE]     cheapest plan (SPACE: all | linear | nocp | linear-nocp | avoid)\n\
                 query      DB SQL [SPACE] plan a SQL-ish join query (SELECT * FROM .. WHERE ..);\n\
                 \u{20}                         filters push below the joins; SQL may be @FILE\n\
                 execute    DB [SPACE]     run the best plan stage by stage, tracing est vs actual\n\
                 cost       DB EXPR        explain a strategy, e.g. \"(AB ⋈ BC) ⋈ CD\"\n\
                 conditions DB             per-condition verdicts with violation witnesses\n\
                 compare    DB             every search space and heuristic side by side\n\
                 estimate   DB [SPACE]     plan from declared statistics (relation R CARD / domain A SIZE)\n\
                 dot        DB [SPACE]     best plan as a Graphviz digraph\n\
                 reduce     DB             semijoin-reduce the database (full reducer / fixpoint)\n\
                 show       DB             print every relation state and the join result\n\
                 serve      [FLAGS]        TCP daemon: newline-delimited JSON optimize/execute requests\n\
                 store inspect PATH        dump a persistent store's header and per-entry sections\n\
                 failpoints                list every registered fault-injection site\n\
                 \n\
                 serve mode (serve):\n\
                 --addr HOST:PORT          bind address (default 127.0.0.1:7411; port 0 = OS-assigned)\n\
                 --workers N               worker threads draining the queue (default 2)\n\
                 --queue-cap N             admission-queue capacity; beyond it requests are shed (default 64)\n\
                 --max-request-bytes N     per-request size cap (default 1048576)\n\
                 --read-timeout-ms N       per-connection read timeout (default 10000)\n\
                 --max-timeout-ms N        ceiling on any per-request deadline (default 600000)\n\
                 --cache-cap N             plan-cache entry cap, 0 disables (default 256)\n\
                 --shed-retry-ms N         retry-after hint on shed responses (default 50)\n\
                 --shed-retry-jitter-ms N  deterministic jitter window added to the retry hint (default 0)\n\
                 --client-queue-cap N      per-client in-queue quota, 0 = off (default 0)\n\
                 --client-rps N            per-client token-bucket admission rate, 0 = off (default 0)\n\
                 --brownout                degrade-instead-of-shed: pin the ladder entry rung under load\n\
                 --addr-file PATH          write the bound address here once listening\n\
                 \n\
                 persistent store (optimize, query, serve):\n\
                 --store PATH              optimize/query: warm-start from a matching entry, save cold runs;\n\
                 \u{20}                         serve: warm-start the plan cache, snapshot on drain\n\
                 \n\
                 adaptive execution (execute):\n\
                 --adaptive                re-optimize mid-query when a stage's q-error drifts\n\
                 --replan-threshold F      drift trigger, q-error > F (implies --adaptive; default 2)\n\
                 --noise-q F               plan under seeded estimation error within envelope F (≥ 1)\n\
                 --noise-seed N            seed for the injected noise (default 0)\n\
                 \n\
                 resource governance (any command):\n\
                 --timeout-ms N            wall-clock deadline; optimize degrades gracefully\n\
                 --max-memo-entries N      cap on memoized intermediate results\n\
                 --max-tuples N            cap on intermediate tuples generated\n\
                 --threads N               worker threads for plan search (default: $MJOIN_THREADS or 1)\n\
                 --fail-inject SITE[,..]   arm deterministic fault injection (testing)\n\
                 \n\
                 observability (any command):\n\
                 --metrics                 append a counter/span table to the output\n\
                 --metrics-json PATH       write the machine-readable run report (stable JSON schema)";
    let (args, gopts) = parse_guard_flags(args)?;
    let Some(command) = args.first() else {
        return err(usage);
    };
    if command == "help" || command == "--help" {
        return Ok(usage.to_string());
    }
    if command == "failpoints" {
        // Operator discovery: every injectable site with its owner, so
        // nobody has to read the guard crate to find the names.
        let mut out = String::new();
        let _ = writeln!(
            out,
            "registered failpoint sites ({}):",
            failpoints::SITES.len()
        );
        for (site, doc) in failpoints::SITE_DOCS {
            let _ = writeln!(out, "  {site:<24} {doc}");
        }
        let _ = writeln!(
            out,
            "arm with --fail-inject SITE[,SITE..] or MJOIN_FAIL_INJECT=SITE[,SITE..]"
        );
        return Ok(out);
    }
    let _armed = ArmedSites(gopts.fail_inject.clone());
    for site in &gopts.fail_inject {
        failpoints::arm(site);
    }
    if command == "serve" {
        return serve::serve_command(&args[1..], &gopts);
    }
    if command == "store" {
        // Store maintenance needs no database file; handled before the
        // db-file load like the other fileless commands.
        return match args.get(1).map(String::as_str) {
            Some("inspect") => {
                let Some(path) = args.get(2) else {
                    return err("store inspect: missing store PATH");
                };
                let store = mjoin::LoadedStore::open(std::path::Path::new(path))
                    .map_err(|e| CliError(e.to_string()))?;
                Ok(store.inspect(path))
            }
            _ => err("store: expected 'store inspect PATH'"),
        };
    }
    let budget = gopts.budget();
    let guard = Guard::new(budget);
    let fail = |e: mjoin::MjoinError| CliError(e.to_string());
    let Some(path) = args.get(1) else {
        return err(format!("missing database file\n{usage}"));
    };
    let text = read(path).map_err(CliError)?;
    let input = parse_input(&text)?;
    let db = &input.database;
    let mut out = String::new();
    // Armed only on request: without a metrics flag the registry stays
    // disarmed and every instrumentation site is a single relaxed load,
    // so the output (and the work done) is byte-identical to a build
    // without the observability layer.
    let recorder = gopts.wants_metrics().then(Recorder::arm);
    let mut sections: Vec<(&'static str, Json)> = Vec::new();

    match command.as_str() {
        "analyze" => {
            let a = analyze_guarded(db, &guard).map_err(fail)?;
            let _ = writeln!(out, "relations: {}", db.len());
            for (i, s) in db.scheme().schemes().iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  {} ({} tuples)",
                    db.catalog().render(*s),
                    db.state(i).tau()
                );
            }
            let _ = writeln!(out, "connected: {}", a.connected);
            let _ = writeln!(out, "R_D nonempty: {}", a.result_nonempty);
            let _ = writeln!(out, "acyclicity: {:?}", a.acyclicity);
            let _ = writeln!(
                out,
                "conditions: C1={} C1'={} C2={} C3={} C4={}",
                a.conditions.c1,
                a.conditions.c1_strict,
                a.conditions.c2,
                a.conditions.c3,
                a.conditions.c4
            );
            for (name, r) in [
                ("theorem 1", a.theorem1),
                ("theorem 2", a.theorem2),
                ("theorem 3", a.theorem3),
            ] {
                let _ = writeln!(
                    out,
                    "{name}: preconditions={} conclusion={}",
                    r.preconditions_hold, r.conclusion_holds
                );
            }
            if !input.fds.is_empty() {
                let _ = writeln!(
                    out,
                    "declared FDs: {} (all joins on superkeys: {})",
                    input.fds.len(),
                    mjoin_fd::all_joins_on_superkeys(db.scheme(), &input.fds)
                );
            }
            let safe = a.safe_search_space();
            let _ = writeln!(out, "recommended search space: {safe:?}");
            let mut oracle = ExactOracle::with_guard(db, guard.clone());
            if let Some(plan) =
                try_optimize(&mut oracle, db.scheme().full_set(), safe, &guard).map_err(fail)?
            {
                let _ = writeln!(out, "{}", plan.explain(db.catalog(), &mut oracle));
            }
        }
        "optimize" => {
            let space_raw = args.get(2).cloned();
            let space = match &space_raw {
                Some(s) => parse_space(s)?,
                None => SearchSpace::All,
            };
            // Warm-start: a store entry whose fingerprint matches this
            // exact request replays the cold run's response byte for
            // byte, skipping optimization entirely.
            let fp = gopts.store.as_ref().map(|_| {
                mjoin::optimize_fingerprint(
                    db,
                    space_raw.as_deref(),
                    gopts.timeout_ms,
                    gopts.max_memo_entries,
                    gopts.max_tuples,
                    gopts.threads(),
                )
            });
            let mut warm: Option<String> = None;
            if let (Some(store_path), Some(fp)) = (&gopts.store, &fp) {
                let p = std::path::Path::new(store_path);
                if p.exists() {
                    let store = mjoin::LoadedStore::open(p)
                        .map_err(|e| CliError(e.to_string()))?;
                    warm = store.entry(fp).map(|e| e.response().to_string());
                }
            }
            if let Some(response) = warm {
                out.push_str(&response);
            } else {
                let o = optimize_outcome(db, space, &gopts).map_err(fail)?;
                out.push_str(&o.text);
                if recorder.is_some() {
                    if let Some(r) = &o.robust {
                        sections.push(("degradation", mjoin::degradation_section(&r.report)));
                    }
                }
                // Save the cold run. Budgeted (ladder) runs are not
                // persisted: their responses carry rung context that a
                // replay could not reproduce faithfully under a changed
                // budget clock.
                if let (Some(store_path), Some(fp)) = (&gopts.store, fp) {
                    if o.robust.is_none() {
                        // The DP memo and cached cardinalities are worth
                        // persisting only for the product-free space,
                        // where the flat DPccp table is the native form;
                        // a separate save-path pass harvests them so the
                        // user-visible planning paths stay untouched.
                        let (memo, taus) = if space == SearchSpace::NoCartesian {
                            let mut oracle = ExactOracle::new(db);
                            match mjoin::try_best_no_cartesian_ccp_with_memo(
                                &mut oracle,
                                db.scheme().full_set(),
                                &Guard::unlimited(),
                            ) {
                                Ok(Some((_, memo))) => (Some(memo), oracle.memo_taus()),
                                _ => (None, Vec::new()),
                            }
                        } else {
                            (None, Vec::new())
                        };
                        let entry = mjoin::entry_from_optimize(
                            fp,
                            db.scheme().full_set(),
                            o.plan.as_ref().map(|p| (&p.strategy, p.cost)),
                            memo.as_ref(),
                            &taus,
                            &o.text,
                        )
                        .map_err(|e| CliError(e.to_string()))?;
                        mjoin::save_optimize_entry(std::path::Path::new(store_path), entry)
                            .map_err(|e| CliError(e.to_string()))?;
                    }
                }
            }
        }
        "query" => {
            let Some(raw) = args.get(2) else {
                return err("query requires the DSL text (or @FILE) as its argument");
            };
            let sql_owned;
            let sql = match raw.strip_prefix('@') {
                Some(p) => {
                    sql_owned = read(p).map_err(CliError)?;
                    sql_owned.as_str()
                }
                None => raw.as_str(),
            };
            let space_raw = args.get(3).cloned();
            let space = match &space_raw {
                Some(s) => parse_space(s)?,
                None => SearchSpace::All,
            };
            let query = mjoin::parse_query(sql).map_err(fail)?;
            let lowered = mjoin::lower(&query, db).map_err(fail)?;
            let rendered = query.render();
            // Store warm-start mirrors `optimize`, keyed by the lowered
            // (filtered) database plus the canonical query text.
            // Statistics-only inputs are never stored: declared cards and
            // domains live outside the hashed states, so entries for them
            // could collide across different statistics.
            let fp = (gopts.store.is_some() && lowered.has_rows()).then(|| {
                query_fingerprint(&lowered.database, &rendered, space_raw.as_deref(), &gopts)
            });
            let mut warm: Option<String> = None;
            if let (Some(store_path), Some(fp)) = (&gopts.store, &fp) {
                let p = std::path::Path::new(store_path);
                if p.exists() {
                    let store = mjoin::LoadedStore::open(p)
                        .map_err(|e| CliError(e.to_string()))?;
                    warm = store.entry(fp).map(|e| e.response().to_string());
                }
            }
            if let Some(response) = warm {
                out.push_str(&response);
            } else {
                let o = query_report(&input, &lowered, &rendered, space, &gopts, BrownoutLevel::Normal)
                    .map_err(fail)?;
                out.push_str(&o.text);
                if recorder.is_some() {
                    if let Some(r) = &o.robust {
                        sections.push(("degradation", mjoin::degradation_section(&r.report)));
                    }
                }
                // Save the cold run; as for `optimize`, budgeted (ladder)
                // responses are not persisted.
                if let (Some(store_path), Some(fp)) = (&gopts.store, fp) {
                    if o.robust.is_none() {
                        let entry = mjoin::entry_from_optimize(
                            fp,
                            lowered.database.scheme().full_set(),
                            o.plan.as_ref().map(|p| (&p.strategy, p.cost)),
                            None,
                            &[],
                            &o.text,
                        )
                        .map_err(|e| CliError(e.to_string()))?;
                        mjoin::save_optimize_entry(std::path::Path::new(store_path), entry)
                            .map_err(|e| CliError(e.to_string()))?;
                    }
                }
            }
        }
        "execute" => {
            let mut space = SearchSpace::All;
            let mut space_set = false;
            let mut adaptive = false;
            let mut noise_q = 1.0f64;
            let mut noise_seed = 0u64;
            let mut threshold: Option<f64> = None;
            let mut it = args[2..].iter().peekable();
            while let Some(arg) = it.next() {
                let (flag, inline) = match arg.split_once('=') {
                    Some((f, v)) => (f, Some(v.to_string())),
                    None => (arg.as_str(), None),
                };
                let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>| {
                    inline
                        .clone()
                        .or_else(|| it.next().cloned())
                        .ok_or_else(|| CliError(format!("flag {flag} requires a value")))
                };
                let parse_f64 = |v: String| {
                    v.parse::<f64>()
                        .map_err(|_| CliError(format!("flag {flag}: bad number {v:?}")))
                };
                match flag {
                    "--adaptive" => adaptive = true,
                    "--noise-q" => noise_q = parse_f64(value(&mut it)?)?,
                    "--noise-seed" => {
                        let v = value(&mut it)?;
                        noise_seed = v
                            .parse::<u64>()
                            .map_err(|_| CliError(format!("flag {flag}: bad number {v:?}")))?;
                    }
                    "--replan-threshold" => {
                        adaptive = true;
                        threshold = Some(parse_f64(value(&mut it)?)?);
                    }
                    s if s.starts_with("--") => {
                        return err(format!("execute: unknown flag {s:?}"));
                    }
                    s => {
                        if space_set {
                            return err(format!("execute: unexpected argument {s:?}"));
                        }
                        space = parse_space(s)?;
                        space_set = true;
                    }
                }
            }
            if !noise_q.is_finite() || noise_q < 1.0 {
                return err(format!("flag --noise-q: envelope must be ≥ 1, got {noise_q}"));
            }
            let estimation = if noise_q > 1.0 {
                mjoin_adaptive::Estimation::Noisy {
                    q: noise_q,
                    seed: noise_seed,
                }
            } else {
                mjoin_adaptive::Estimation::Synthetic
            };
            let config = mjoin_adaptive::AdaptiveConfig {
                space,
                budget,
                threads: gopts.threads(),
                replan_threshold: if adaptive {
                    threshold.unwrap_or(mjoin_adaptive::DEFAULT_REPLAN_THRESHOLD)
                } else {
                    f64::INFINITY
                },
                ..mjoin_adaptive::AdaptiveConfig::default()
            };
            let (text, outcome) = execute_report(db, &estimation, &config).map_err(fail)?;
            out.push_str(&text);
            if recorder.is_some() {
                sections.push((
                    "adaptive",
                    outcome.trace.to_section(db.catalog(), db.scheme()),
                ));
            }
        }
        "cost" => {
            let Some(expr) = args.get(2) else {
                return err("cost requires a strategy expression");
            };
            let strategy = Strategy::parse(expr, db.catalog(), db.scheme())
                .map_err(|e| CliError(e.to_string()))?;
            if strategy.set() != db.scheme().full_set() {
                return err("the strategy must mention every relation exactly once");
            }
            let mut oracle = ExactOracle::with_guard(db, guard.clone());
            let cost = strategy.try_cost(&mut oracle).map_err(fail)?;
            let plan = mjoin::Plan { strategy, cost };
            let _ = writeln!(out, "{}", plan.explain(db.catalog(), &mut oracle));
            let Some(best) = try_optimize(&mut oracle, db.scheme().full_set(), SearchSpace::All, &guard)
                .map_err(fail)?
            else {
                return err("the full search space cannot be empty");
            };
            let _ = writeln!(
                out,
                "global optimum: τ = {} ({})",
                best.cost,
                if best.cost == cost {
                    "this strategy is τ-optimum".to_string()
                } else {
                    format!("this strategy is {:.2}× worse", cost as f64 / best.cost as f64)
                }
            );
        }
        "estimate" => {
            let space = match args.get(2) {
                Some(sp) => parse_space(sp)?,
                None => SearchSpace::All,
            };
            let mut oracle = synthetic_oracle(&input)?;
            match try_optimize(&mut oracle, db.scheme().full_set(), space, &guard).map_err(fail)? {
                Some(plan) => {
                    let _ = writeln!(out, "search space: {space:?} (synthetic cardinality model)");
                    let _ = writeln!(out, "{}", plan.explain(db.catalog(), &mut oracle));
                }
                None => {
                    let _ = writeln!(
                        out,
                        "search space {space:?} is empty for this (unconnected) scheme"
                    );
                }
            }
        }
        "dot" => {
            let space = match args.get(2) {
                Some(sp) => parse_space(sp)?,
                None => SearchSpace::All,
            };
            let mut oracle = ExactOracle::with_guard(db, guard.clone());
            let Some(plan) =
                try_optimize(&mut oracle, db.scheme().full_set(), space, &guard).map_err(fail)?
            else {
                return err(format!("search space {space:?} is empty for this scheme"));
            };
            let _ = write!(out, "{}", plan.strategy.to_dot(db.catalog(), db.scheme()));
        }
        "compare" => {
            let mut oracle = ExactOracle::with_guard(db, guard.clone());
            let full = db.scheme().full_set();
            let Some(best) =
                try_optimize(&mut oracle, full, SearchSpace::All, &guard).map_err(fail)?
            else {
                return err("the full search space cannot be empty");
            };
            let best = best.cost;
            let _ = writeln!(out, "{:<22} {:>8}  {:>7}  plan", "planner", "τ", "vs best");
            let mut report = |name: &str, plan: Option<mjoin::Plan>| {
                match plan {
                    Some(p) => {
                        let _ = writeln!(
                            out,
                            "{:<22} {:>8}  {:>6.2}x  {}",
                            name,
                            p.cost,
                            p.cost as f64 / best.max(1) as f64,
                            p.strategy.render(db.catalog(), db.scheme())
                        );
                    }
                    None => {
                        let _ = writeln!(out, "{name:<22} {:>8}  {:>7}  (space is empty)", "-", "-");
                    }
                }
            };
            report(
                "exhaustive (all)",
                try_optimize(&mut oracle, full, SearchSpace::All, &guard).map_err(fail)?,
            );
            report(
                "linear",
                try_optimize(&mut oracle, full, SearchSpace::Linear, &guard).map_err(fail)?,
            );
            report(
                "no-cartesian",
                try_optimize(&mut oracle, full, SearchSpace::NoCartesian, &guard).map_err(fail)?,
            );
            report(
                "linear no-cartesian",
                try_optimize(&mut oracle, full, SearchSpace::LinearNoCartesian, &guard)
                    .map_err(fail)?,
            );
            report(
                "avoid-cartesian",
                try_optimize(&mut oracle, full, SearchSpace::AvoidCartesian, &guard)
                    .map_err(fail)?,
            );
            report(
                "ikkbz (tree queries)",
                mjoin_optimizer::try_ikkbz(&mut oracle, full, &guard).map_err(fail)?,
            );
            report(
                "linearized dp",
                mjoin_optimizer::try_lindp(&mut oracle, full, &guard).map_err(fail)?,
            );
            report(
                "partitioned dpccp",
                mjoin_optimizer::try_partitioned_dp(&mut oracle, full, &guard).map_err(fail)?,
            );
            report(
                "greedy bushy",
                Some(mjoin_optimizer::try_greedy_bushy(&mut oracle, full, &guard).map_err(fail)?),
            );
            report(
                "greedy linear",
                Some(mjoin_optimizer::try_greedy_linear(&mut oracle, full, &guard).map_err(fail)?),
            );
            let bp = mjoin::best_bottleneck(&mut oracle, full);
            let _ = writeln!(
                out,
                "{:<22} {:>8}  {:>7}  {}   (cost shown = largest intermediate)",
                "min-bottleneck",
                bp.cost,
                "-",
                bp.strategy.render(db.catalog(), db.scheme())
            );
        }
        "reduce" => {
            let before: Vec<u64> = (0..db.len()).map(|i| db.state(i).tau()).collect();
            let (reduced, stats) = match JoinTree::build(db.scheme()) {
                Some(tree) => {
                    let (reduced, stats) =
                        mjoin_semijoin::try_full_reduce_with_stats(db, &tree, 0, &guard)
                            .map_err(fail)?;
                    let _ = writeln!(out, "full reducer (α-acyclic scheme, root {})", 0);
                    (reduced, Some(stats))
                }
                None => {
                    let reduced = mjoin_semijoin::try_pairwise_consistent_fixpoint(db, &guard)
                        .map_err(fail)?;
                    let _ = writeln!(out, "pairwise-consistency fixpoint (cyclic scheme)");
                    (reduced, None)
                }
            };
            for (i, s) in db.scheme().schemes().iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{}: {} -> {} tuples",
                    db.catalog().render(*s),
                    before[i],
                    reduced.state(i).tau()
                );
            }
            if let Some(stats) = stats {
                let _ = writeln!(
                    out,
                    "semijoins: {}, tuples removed: {}, tuples scanned: {}",
                    stats.semijoins, stats.tuples_removed, stats.tuples_scanned
                );
            }
        }
        "show" => {
            for (i, s) in db.scheme().schemes().iter().enumerate() {
                let _ = writeln!(out, "-- {} ({} tuples)", db.catalog().render(*s), db.state(i).tau());
                let _ = writeln!(out, "{}", db.state(i).to_text(db.catalog()));
                let _ = writeln!(out);
            }
            let mut oracle = ExactOracle::with_guard(db, guard.clone());
            let result = oracle.try_relation(db.scheme().full_set()).map_err(fail)?;
            let _ = writeln!(out, "-- R_D = join of all relations ({} tuples)", result.tau());
            let _ = writeln!(out, "{}", result.to_text(db.catalog()));
        }
        "conditions" => {
            let mut oracle = ExactOracle::with_guard(db, guard.clone());
            for cond in [
                Condition::C1,
                Condition::C1Strict,
                Condition::C2,
                Condition::C3,
                Condition::C4,
            ] {
                if let Some(e) = oracle.tripped() {
                    return Err(fail(e.clone()));
                }
                match mjoin::first_violation(&mut oracle, cond) {
                    None => {
                        let _ = writeln!(out, "{cond}: holds");
                    }
                    Some(v) => {
                        let witness: Vec<String> = v
                            .witness
                            .iter()
                            .map(|&w| db.scheme().render(db.catalog(), w))
                            .collect();
                        let _ = writeln!(
                            out,
                            "{cond}: VIOLATED at {} — {}",
                            witness.join(", "),
                            v.detail
                        );
                    }
                }
            }
            if let Some(e) = oracle.tripped() {
                return Err(fail(e.clone()));
            }
        }
        other => return err(format!("unknown command {other:?}\n{usage}")),
    }
    if let Some(rec) = recorder {
        let snapshot = rec.snapshot();
        drop(rec);
        let mut report = RunReport::new(command, gopts.threads(), snapshot);
        for (name, value) in sections {
            report = report.with_section(name, value);
        }
        if gopts.metrics {
            out.push_str(&report.to_table());
        }
        if let Some(path) = &gopts.metrics_json {
            let text = mjoin::render_run_report(&report).map_err(fail)?;
            std::fs::write(path, text)
                .map_err(|e| CliError(format!("--metrics-json {path}: {e}")))?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# Example 4 from the paper
relation GS
Hockey Mokhtar
Tennis Mokhtar
Tennis Lin

relation SC
Mokhtar Lang22
Mokhtar Lit104
Mokhtar Phy101
Lin Phy101
Lin Hist103
Lin Psch123
Katina Lang22
Katina Lit104
Katina Phy101
Sundram Phy101
Sundram Lang22
Sundram Hist103

relation CL
Phy101 Fermi
Lang22 Chomsky
";

    fn fake_fs(path: &str) -> Result<String, String> {
        if path == "db.mj" {
            Ok(SAMPLE.to_string())
        } else {
            Err(format!("no such file: {path}"))
        }
    }

    fn run_ok(args: &[&str]) -> String {
        run(
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            fake_fs,
        )
        .expect("command succeeds")
    }

    #[test]
    fn parse_input_shapes() {
        let input = parse_input(SAMPLE).unwrap();
        assert_eq!(input.database.len(), 3);
        assert_eq!(input.database.state(0).tau(), 3);
        assert_eq!(input.database.state(1).tau(), 12);
        assert!(input.fds.is_empty());
    }

    #[test]
    fn parse_input_with_fds_and_ints() {
        let text = "relation AB\n1 10\n2 20\nrelation BC\n10 5\nfd B -> C\n";
        let input = parse_input(text).unwrap();
        assert_eq!(input.fds.len(), 1);
        assert_eq!(input.database.state(0).tau(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_input("").is_err());
        assert!(parse_input("1 2 3\n").is_err()); // row before relation
        assert!(parse_input("relation AB\n1\n").is_err()); // arity mismatch
    }

    #[test]
    fn analyze_command() {
        let out = run_ok(&["analyze", "db.mj"]);
        assert!(out.contains("connected: true"));
        assert!(out.contains("C1=false"), "{out}");
        assert!(out.contains("C2=true"), "{out}");
        assert!(out.contains("recommended search space: All"));
    }

    #[test]
    fn optimize_command_spaces() {
        let all = run_ok(&["optimize", "db.mj"]);
        assert!(all.contains("τ = 6 + 5 = 11"), "{all}");
        let nocp = run_ok(&["optimize", "db.mj", "nocp"]);
        assert!(nocp.contains("= 12"), "{nocp}");
        assert!(run(
            &["optimize".into(), "db.mj".into(), "bogus".into()],
            fake_fs
        )
        .is_err());
    }

    #[test]
    fn cost_command_matches_paper() {
        let out = run_ok(&["cost", "db.mj", "(GS ⋈ SC) ⋈ CL"]);
        assert!(out.contains("τ = 9 + 5 = 14"), "{out}");
        assert!(out.contains("1.27× worse"), "{out}");
        let opt = run_ok(&["cost", "db.mj", "(GS ⋈ CL) ⋈ SC"]);
        assert!(opt.contains("τ-optimum"), "{opt}");
    }

    #[test]
    fn execute_command_traces_stages() {
        let out = run_ok(&["execute", "db.mj"]);
        assert!(out.contains("plan: "), "{out}");
        assert!(out.contains("stage 1:"), "{out}");
        assert!(out.contains("executed τ = "), "{out}");
        assert!(out.contains("result: 5 tuples"), "{out}");
        assert!(!out.contains("replan"), "static run must not re-plan: {out}");
    }

    #[test]
    fn execute_adaptive_without_drift_matches_static_byte_for_byte() {
        // Example 4's synthetic q-errors stay under the default threshold,
        // so the adaptive run never re-plans and its whole report — plan
        // line included — is byte-identical to the static one.
        let stat = run_ok(&["execute", "db.mj"]);
        let adap = run_ok(&["execute", "db.mj", "--adaptive"]);
        assert_eq!(stat, adap);
    }

    #[test]
    fn execute_with_noise_replans_and_names_the_rung() {
        let out = run_ok(&[
            "execute",
            "db.mj",
            "--adaptive",
            "--replan-threshold",
            "1",
            "--noise-q",
            "16",
            "--noise-seed",
            "0",
        ]);
        assert!(out.contains("replan after stage 1"), "{out}");
        assert!(out.contains("answered by"), "{out}");
        assert!(out.contains("result: 5 tuples"), "{out}");
    }

    #[test]
    fn execute_flag_errors_are_reported() {
        let run_err = |args: &[&str]| {
            run(
                &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                fake_fs,
            )
            .unwrap_err()
            .to_string()
        };
        let err = run_err(&["execute", "db.mj", "--bogus"]);
        assert!(err.contains("unknown flag"), "{err}");
        let err = run_err(&["execute", "db.mj", "--noise-q", "0.5"]);
        assert!(err.contains("≥ 1"), "{err}");
        let err = run_err(&["execute", "db.mj", "--replan-threshold", "0.5"]);
        assert!(err.contains("≥ 1"), "{err}");
    }

    #[test]
    fn threads_one_output_is_identical_to_default() {
        // `--threads 1` output must match the legacy expectations exactly.
        let all = run_ok(&["optimize", "db.mj", "--threads", "1"]);
        assert!(all.contains("τ = 6 + 5 = 11"), "{all}");
        let nocp = run_ok(&["optimize", "db.mj", "nocp", "--threads", "1"]);
        assert!(nocp.contains("= 12"), "{nocp}");
        // And when the environment doesn't override the default, flagless
        // output is byte-identical to `--threads 1`. (Skipped under
        // MJOIN_THREADS, where the default is intentionally parallel —
        // CI's 2-thread suite run.)
        if std::env::var("MJOIN_THREADS").is_err() {
            for space in [None, Some("nocp"), Some("linear"), Some("avoid")] {
                let mut base = vec!["optimize", "db.mj"];
                if let Some(s) = space {
                    base.push(s);
                }
                let mut flagged = base.clone();
                flagged.extend(["--threads", "1"]);
                assert_eq!(run_ok(&base), run_ok(&flagged), "{space:?}");
            }
        }
    }

    #[test]
    fn threads_two_finds_the_same_cost() {
        let seq = run_ok(&["optimize", "db.mj"]);
        let par = run_ok(&["optimize", "db.mj", "--threads", "2"]);
        assert!(par.contains("τ = 6 + 5 = 11"), "{par}");
        assert!(seq.contains("τ = 6 + 5 = 11"), "{seq}");
        let nocp = run_ok(&["optimize", "db.mj", "nocp", "--threads", "4"]);
        assert!(nocp.contains("= 12"), "{nocp}");
    }

    #[test]
    fn threads_flag_reaches_the_budgeted_ladder() {
        let out = run_ok(&[
            "optimize",
            "db.mj",
            "--timeout-ms",
            "60000",
            "--threads",
            "2",
        ]);
        assert!(out.contains("degradation: answered by"), "{out}");
        assert!(out.contains("τ = 11"), "{out}");
    }

    #[test]
    fn threads_flag_rejects_zero_and_garbage() {
        for bad in [&["optimize", "db.mj", "--threads", "0"][..],
                    &["optimize", "db.mj", "--threads", "lots"][..]] {
            assert!(run(
                &bad.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                fake_fs
            )
            .is_err());
        }
    }

    #[test]
    fn conditions_command() {
        let out = run_ok(&["conditions", "db.mj"]);
        assert!(out.contains("C1: VIOLATED"), "{out}");
        assert!(out.contains("C2: holds"), "{out}");
    }

    #[test]
    fn show_command_prints_tables() {
        let out = run_ok(&["show", "db.mj"]);
        assert!(out.contains("-- GS (3 tuples)"), "{out}");
        assert!(out.contains("Hockey"), "{out}");
        assert!(out.contains("R_D = join of all relations"), "{out}");
    }

    #[test]
    fn compare_command_lists_all_planners() {
        let out = run_ok(&["compare", "db.mj"]);
        for name in [
            "exhaustive (all)",
            "linear no-cartesian",
            "avoid-cartesian",
            "linearized dp",
            "partitioned dpccp",
            "greedy bushy",
            "min-bottleneck",
        ] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
        // Example 4: the exhaustive optimum is 11, product-free spaces 12.
        assert!(out.contains("11"), "{out}");
        assert!(out.contains("1.09x"), "{out}");
    }

    const SCHEMA_ONLY: &str = "\
relation AB 1000
relation BC 1000
relation CD 1000
domain B 100000
domain C 10
";

    fn fake_fs2(path: &str) -> Result<String, String> {
        if path == "db.mj" {
            Ok(SAMPLE.to_string())
        } else if path == "schema.mj" {
            Ok(SCHEMA_ONLY.to_string())
        } else {
            Err(format!("no such file: {path}"))
        }
    }

    #[test]
    fn estimate_command_plans_from_statistics() {
        let out = run(
            &["estimate".to_string(), "schema.mj".to_string()],
            fake_fs2,
        )
        .unwrap();
        assert!(out.contains("synthetic cardinality model"), "{out}");
        // The selective B attribute forces AB ⋈ BC first (10 tuples).
        assert!(out.contains("AB ⋈ BC"), "{out}");
        let out2 = run(
            &[
                "estimate".to_string(),
                "schema.mj".to_string(),
                "linear".to_string(),
            ],
            fake_fs2,
        )
        .unwrap();
        assert!(out2.contains("Linear"), "{out2}");
    }

    #[test]
    fn estimate_parses_statistics() {
        let input = parse_input(SCHEMA_ONLY).unwrap();
        assert_eq!(input.cards, vec![Some(1000), Some(1000), Some(1000)]);
        assert_eq!(input.domains.len(), 2);
        assert!(input.database.state(0).is_empty());
        let mut oracle = synthetic_oracle(&input).unwrap();
        use mjoin::{CardinalityOracle, RelSet};
        assert_eq!(oracle.tau(RelSet::singleton(0)), 1000);
        // AB ⋈ BC over B (domain 100000): 1000·1000/100000 = 10.
        assert_eq!(oracle.tau(RelSet::from_indices([0, 1])), 10);
        // Bad statistics are rejected.
        assert!(parse_input("relation AB xyz\n").is_err());
        assert!(parse_input("relation AB 10\ndomain\n").is_err());
        assert!(synthetic_oracle(&parse_input("relation AB 10\ndomain Z 5\n").unwrap()).is_err());
    }

    #[test]
    fn dot_command_emits_graphviz() {
        let out = run_ok(&["dot", "db.mj"]);
        assert!(out.starts_with("digraph strategy {"), "{out}");
        assert!(out.contains("GS"), "{out}");
        assert!(out.contains("style=dashed"), "Example 4's optimum uses a product");
    }

    #[test]
    fn metrics_flag_appends_table_without_touching_the_report() {
        // Pinned to one thread so the table header (and the memo-hit
        // split between the plain and shared oracles) is stable under an
        // ambient MJOIN_THREADS.
        let plain = run_ok(&["optimize", "db.mj", "--threads", "1"]);
        let with = run_ok(&["optimize", "db.mj", "--threads", "1", "--metrics"]);
        // The metrics table is strictly appended: everything before it is
        // byte-identical to the metrics-free run.
        assert!(with.starts_with(&plain), "{with}");
        let table = &with[plain.len()..];
        assert!(table.contains("metrics (optimize @ 1 thread)"), "{table}");
        assert!(table.contains("dp.subsets_expanded"), "{table}");
        assert!(table.contains("oracle.subsets_materialized"), "{table}");
    }

    #[test]
    fn metrics_json_writes_a_schema_valid_report() {
        let path = std::env::temp_dir().join("mjoin-cli-metrics-test.json");
        let path_str = path.to_str().unwrap().to_string();
        let out = run(
            &[
                "execute".to_string(),
                "db.mj".to_string(),
                "--metrics-json".to_string(),
                path_str.clone(),
            ],
            fake_fs,
        )
        .unwrap();
        // The JSON goes to the file, not the report text.
        assert!(!out.contains("schema_version"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = mjoin_obs::json::parse(&text).unwrap();
        mjoin_obs::validate_schema(&doc).unwrap();
        assert_eq!(doc.get("command").and_then(Json::as_str), Some("execute"));
        let adaptive = doc.get("adaptive").expect("adaptive section present");
        assert!(adaptive.get("q_error_histogram").is_some());
        assert!(
            doc.get("counters")
                .and_then(|c| c.get("adaptive.stages_executed"))
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budgeted_metrics_json_carries_the_degradation_section() {
        let path = std::env::temp_dir().join("mjoin-cli-metrics-degr-test.json");
        let path_str = path.to_str().unwrap().to_string();
        run(
            &[
                "optimize".to_string(),
                "db.mj".to_string(),
                "--timeout-ms".to_string(),
                "60000".to_string(),
                "--metrics-json".to_string(),
                path_str,
            ],
            fake_fs,
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = mjoin_obs::json::parse(&text).unwrap();
        mjoin_obs::validate_schema(&doc).unwrap();
        let degr = doc.get("degradation").expect("degradation section present");
        assert!(degr.get("answered_by").and_then(Json::as_str).is_some());
        assert!(degr.get("attempts").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn usage_and_errors() {
        assert!(run(&[], fake_fs).is_err());
        assert!(run(&["help".to_string()], fake_fs).unwrap().contains("usage"));
        assert!(run(&["analyze".to_string()], fake_fs).is_err());
        assert!(run(
            &["analyze".to_string(), "missing.mj".to_string()],
            fake_fs
        )
        .is_err());
        assert!(run(
            &["frobnicate".to_string(), "db.mj".to_string()],
            fake_fs
        )
        .is_err());
        // cost with a partial strategy is rejected.
        assert!(run(
            &["cost".to_string(), "db.mj".to_string(), "GS ⋈ SC".to_string()],
            fake_fs
        )
        .is_err());
    }
}
