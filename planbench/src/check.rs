//! Answer checks: every output the program returns is re-derived here,
//! independently of the path that produced it.
//!
//! A checked answer's plan is parsed back from its `plan:` line against
//! the (filtered) database, must cover every relation, must be
//! product-free in a product-free space unless the ladder reported the
//! space restriction relaxed, and its reported τ must equal the τ a fresh
//! [`ExactOracle`] derives for that strategy.

use mjoin::{CardinalityOracle, ExactOracle, Guard, SearchSpace, Strategy};
use mjoin_cli::parse_input;

use crate::corpus::{Corpus, Op, Request};

/// What a checked answer says about plan quality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// τ as reported, `None` when the answer came back uncosted.
    pub tau: Option<u64>,
    /// τ re-derived through a fresh exact oracle; `None` for
    /// statistics-only queries, whose τ is an estimate.
    pub derived: Option<u64>,
    /// The ladder rung that answered, for budgeted requests.
    pub rung: Option<String>,
    /// Certified optimal in the requested space: a ladder answer flagged
    /// optimal, or an unbudgeted dynamic program.
    pub optimal: bool,
    /// Left the requested space or came back uncosted.
    pub degraded: bool,
}

fn line_after<'a>(output: &'a str, prefix: &str) -> Option<&'a str> {
    output.lines().find_map(|l| l.strip_prefix(prefix))
}

/// The number after the last `= ` of a `τ = a + b = N` line.
fn last_number(s: &str) -> Result<u64, String> {
    let tail = s.rsplit("= ").next().unwrap_or(s).trim();
    tail.parse::<u64>()
        .map_err(|_| format!("unreadable τ {s:?}"))
}

/// Checks one output of `req`; an `Err` is a failed answer check.
pub fn check(corpus: &Corpus, req: &Request, output: &str) -> Result<Answer, String> {
    let input = parse_input(&corpus.read(&req.db)?).map_err(|e| e.to_string())?;
    let lowered;
    let db = match (&req.op, &req.sql) {
        (Op::Query, Some(sql)) => {
            let query = mjoin::parse_query(&corpus.read(sql)?).map_err(|e| e.to_string())?;
            lowered = mjoin::lower(&query, &input.database).map_err(|e| e.to_string())?;
            &lowered.database
        }
        _ => &input.database,
    };
    let plan = line_after(output, "plan: ")
        .ok_or_else(|| format!("{}: no plan line in {output:?}", req.label))?
        .to_string();
    let strategy = Strategy::parse(&plan, db.catalog(), db.scheme())
        .map_err(|e| format!("{}: plan {plan:?} does not parse: {e}", req.label))?;
    if strategy.set() != db.scheme().full_set() {
        return Err(format!(
            "{}: plan {plan:?} does not cover every relation",
            req.label
        ));
    }
    let degradation = line_after(output, "degradation: ");
    let relaxed = degradation.is_some_and(|d| d.contains("space restriction relaxed"));
    let rung = degradation.and_then(|d| {
        d.strip_prefix("answered by ")
            .and_then(|r| r.split_whitespace().next())
            .map(str::to_string)
    });
    let optimal = degradation.is_none_or(|d| d.contains("(optimal in space)"));
    let space = crate::cli::space_arg(req.space.as_deref());
    let product_free = matches!(
        space,
        SearchSpace::NoCartesian | SearchSpace::LinearNoCartesian
    );
    if product_free && !relaxed && strategy.uses_cartesian(db.scheme()) {
        return Err(format!(
            "{}: plan {plan:?} uses a Cartesian product in {space:?}",
            req.label
        ));
    }
    if space == SearchSpace::LinearNoCartesian && !relaxed && !strategy.is_linear() {
        return Err(format!("{}: plan {plan:?} is not linear", req.label));
    }
    let has_rows = (0..db.len()).any(|i| db.state(i).tau() > 0);
    let mut oracle = ExactOracle::with_guard(db, Guard::unlimited());
    let derived = if has_rows {
        Some(strategy.try_cost(&mut oracle).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let tau = if req.op == Op::Execute {
        let executed = line_after(output, "executed τ = ")
            .ok_or_else(|| format!("{}: no executed τ line", req.label))?;
        let result = line_after(output, "result: ")
            .and_then(|r| r.strip_suffix(" tuples"))
            .ok_or_else(|| format!("{}: no result line", req.label))?;
        let full = oracle
            .try_tau(db.scheme().full_set())
            .map_err(|e| e.to_string())?;
        if result.parse::<u64>().ok() != Some(full) {
            return Err(format!(
                "{}: result has {result} tuples, the join has {full}",
                req.label
            ));
        }
        Some(last_number(executed)?)
    } else {
        let line = line_after(output, "τ = ").ok_or_else(|| format!("{}: no τ line", req.label))?;
        if line.contains("not costed") {
            None
        } else {
            Some(last_number(&format!("= {line}"))?)
        }
    };
    if let (Some(t), Some(d)) = (tau, derived) {
        if t != d {
            return Err(format!(
                "{}: reported τ {t} but the plan's τ is {d}",
                req.label
            ));
        }
    }
    Ok(Answer {
        tau,
        derived,
        rung,
        optimal: optimal && req.op != Op::Execute,
        degraded: tau.is_none() || relaxed,
    })
}
