//! Budgeted optimization with graceful degradation.
//!
//! The exact optimizers are exponential: `O(3ⁿ)` for the bushy DP,
//! `(2n−3)!!` for exhaustive enumeration. Under a wall-clock deadline or a
//! memory cap they cannot always finish — but an optimizer that answers
//! "budget exceeded" with *nothing* is useless to a caller who still has a
//! query to run. This module provides the degradation ladder:
//!
//! 1. **Exhaustive** — enumerate every strategy in the space (small
//!    subsets only; the gold standard);
//! 2. **Dp** — the space's dynamic program;
//! 3. **LinDp** — IKKBZ-linearized interval DP: polynomial, bushy plans
//!    whose subtrees are contiguous in a precedence order, never worse
//!    than greedy-linear;
//! 4. **PartitionedDp** — exact DPccp inside ≤ k-relation blocks of the
//!    join graph, greedy recombination across the cuts;
//! 5. **Greedy** — the polynomial heuristic matching the space's shape;
//! 6. **Fallback** — an index-order left-deep strategy, valid by
//!    construction and computable without touching the data.
//!
//! Each rung gets a *slice* of the remaining budget; when a rung trips its
//! slice, the ladder records why and climbs down. The result is always
//! some valid strategy covering every relation, plus a
//! [`DegradationReport`] saying which rung answered and what happened to
//! the rungs above it.
//!
//! The ladder is one loop over a rung table, and the thread count is a
//! parameter of the rungs, not a second code path: exhaustive enumeration
//! and the product-free DP fan out over a worker pool (inline at one
//! thread), all rungs share one memo, and every rung answers
//! bit-identically at any thread count.
//!
//! Only **budget** trips degrade. Cancellation ([`MjoinError::Cancelled`])
//! and internal faults ([`MjoinError::Internal`], which includes injected
//! faults) propagate immediately — degradation is for resource exhaustion,
//! not for masking bugs or overriding the user.

use std::fmt;
use std::time::{Duration, Instant};

use mjoin_cost::{Database, SharedOracle};
use mjoin_guard::{failpoints, Budget, CancelToken, Guard, MjoinError};
use mjoin_hypergraph::RelSet;
use mjoin_obs::{incr, span, Counter, Span};
use mjoin_optimizer::{
    try_greedy_bushy, try_greedy_linear, try_lindp, try_optimize_parallel, try_partitioned_dp,
    Plan, SearchSpace,
};
use mjoin_strategy::{try_best_strategy_parallel, Strategy};

/// Largest subset the exhaustive rung will attempt: `(2·7 − 3)!! = 10 395`
/// strategies is instant, one more relation is 13× that.
pub const EXHAUSTIVE_MAX_RELS: usize = 7;

/// One level of the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Exhaustive enumeration of the search space.
    Exhaustive,
    /// The space's dynamic program.
    Dp,
    /// IKKBZ-linearized interval DP: polynomial in `n`, bushy within a
    /// precedence order, never worse than greedy-linear.
    LinDp,
    /// Partitioned DPccp: exact within ≤ k-relation blocks, greedy
    /// recombination across the cuts.
    PartitionedDp,
    /// The greedy heuristic.
    Greedy,
    /// Index-order left-deep strategy, built without touching the data.
    Fallback,
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rung::Exhaustive => "exhaustive",
            Rung::Dp => "dp",
            Rung::LinDp => "lindp",
            Rung::PartitionedDp => "partdp",
            Rung::Greedy => "greedy",
            Rung::Fallback => "fallback",
        })
    }
}

/// Resources one rung consumed before answering, failing, or being
/// skipped: wall-clock elapsed plus the budget drawn from its guard.
/// All zero for rungs skipped without running.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RungStats {
    /// Wall time the rung ran for (a timing — not deterministic).
    pub elapsed: Duration,
    /// Memo entries charged to the rung's budget slice.
    pub memo_used: u64,
    /// Intermediate tuples charged to the rung's budget slice.
    pub tuples_used: u64,
}

/// What happened to one rung that did *not* answer.
#[derive(Clone, Debug)]
pub struct RungAttempt {
    /// The rung that was tried (or skipped).
    pub rung: Rung,
    /// Why it didn't answer — a budget error, an empty search space, or a
    /// skip note.
    pub outcome: String,
    /// What the attempt cost before it gave up (zero when skipped).
    pub stats: RungStats,
}

impl RungAttempt {
    fn skipped(rung: Rung, outcome: String) -> Self {
        RungAttempt {
            rung,
            outcome,
            stats: RungStats::default(),
        }
    }
}

/// Which rung answered, and why the ones above it didn't.
#[derive(Clone, Debug)]
pub struct DegradationReport {
    /// The rung that produced the returned plan.
    pub answered_by: Rung,
    /// The rungs that failed or were skipped, in descending order.
    pub attempts: Vec<RungAttempt>,
    /// True when the plan is guaranteed τ-optimal within the requested
    /// space (the exhaustive or DP rung answered).
    pub optimal: bool,
    /// True when the plan is only guaranteed *valid* (covers every
    /// relation) but may leave the requested search space — the fallback
    /// rung ignores space restrictions, which can be unsatisfiable
    /// (product-free spaces over unconnected schemes).
    pub space_relaxed: bool,
    /// Resources the *answering* rung consumed.
    pub answered_stats: RungStats,
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "answered by {} rung", self.answered_by)?;
        if self.optimal {
            write!(f, " (optimal in space)")?;
        } else if self.space_relaxed {
            write!(f, " (valid, space restriction relaxed)")?;
        } else {
            write!(f, " (heuristic)")?;
        }
        for a in &self.attempts {
            write!(f, "; {} rung: {}", a.rung, a.outcome)?;
        }
        Ok(())
    }
}

/// A plan that survived the ladder, with the story of how it was obtained.
#[derive(Clone, Debug)]
pub struct RobustPlan {
    /// The chosen strategy and its cost. The cost is `u64::MAX` when even
    /// *costing* the fallback strategy exceeded the remaining budget — the
    /// strategy itself is still valid.
    pub plan: Plan,
    /// Which rung answered and why the ones above it didn't.
    pub report: DegradationReport,
}

/// The budget slice for a rung that may use `numer/denom` of what is left
/// of the deadline; `None` when nothing is left.
fn rung_budget(total: &Budget, started: Instant, numer: u32, denom: u32) -> Option<Budget> {
    match total.deadline {
        None => Some(*total),
        Some(d) => {
            let rem = d.checked_sub(started.elapsed())?;
            if rem.is_zero() {
                return None;
            }
            Some(total.with_deadline(rem * numer / denom))
        }
    }
}

fn rung_guard(budget: Budget, cancel: Option<&CancelToken>) -> Guard {
    match cancel {
        Some(c) => Guard::with_cancel(budget, c.clone()),
        None => Guard::new(budget),
    }
}

/// Reads what a finished rung consumed: wall time since `started`, plus
/// the memo/tuple charges accumulated on its guard.
fn rung_stats(started: Instant, guard: &Guard) -> RungStats {
    RungStats {
        elapsed: started.elapsed(),
        memo_used: guard.memo_used(),
        tuples_used: guard.tuples_used(),
    }
}

/// Does `strategy` belong to `space`?
fn in_space(s: &Strategy, space: SearchSpace, scheme: &mjoin_hypergraph::DbScheme) -> bool {
    match space {
        SearchSpace::All => true,
        SearchSpace::Linear => s.is_linear(),
        SearchSpace::NoCartesian => !s.uses_cartesian(scheme),
        SearchSpace::LinearNoCartesian => s.is_linear() && !s.uses_cartesian(scheme),
        SearchSpace::AvoidCartesian => s.avoids_cartesian(scheme),
    }
}

/// Budget trips degrade; everything else propagates.
fn degradable(e: &MjoinError) -> bool {
    matches!(e, MjoinError::BudgetExceeded { .. })
}

/// A serve-mode brownout level: how aggressively an overloaded daemon
/// trades plan quality for optimization effort — Tay's central trade-off,
/// applied as admission policy. Each level maps to a ladder *entry rung*
/// (rungs above it are recorded as skipped, never attempted) plus a budget
/// transform that tightens the deadline and memo cap, so a browned-out
/// request is cheap by construction rather than by racing a timer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// No brownout: the full ladder with the caller's own budget.
    #[default]
    Normal,
    /// Skip exhaustive enumeration; enter at the DP rung with the deadline
    /// halved and the memo capped at 4096 entries.
    ReducedDp,
    /// Skip exhaustive and every DP rung (full, linearized, partitioned);
    /// enter at the greedy rung with the deadline quartered and the memo
    /// capped at 1024 entries.
    GreedyOnly,
}

impl BrownoutLevel {
    /// Stable wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BrownoutLevel::Normal => "normal",
            BrownoutLevel::ReducedDp => "reduced-dp",
            BrownoutLevel::GreedyOnly => "greedy-only",
        }
    }

    /// Parses a wire/CLI name back into a level.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "normal" => Some(BrownoutLevel::Normal),
            "reduced-dp" => Some(BrownoutLevel::ReducedDp),
            "greedy-only" => Some(BrownoutLevel::GreedyOnly),
            _ => None,
        }
    }

    /// The highest ladder rung this level permits.
    pub fn entry_rung(self) -> Rung {
        match self {
            BrownoutLevel::Normal => Rung::Exhaustive,
            BrownoutLevel::ReducedDp => Rung::Dp,
            BrownoutLevel::GreedyOnly => Rung::Greedy,
        }
    }

    /// Tightens `budget` for this level. Caps only ever shrink: an
    /// existing deadline or memo cap below the level's own stays in force.
    pub fn apply(self, budget: Budget) -> Budget {
        let (denom, memo_cap) = match self {
            BrownoutLevel::Normal => return budget,
            BrownoutLevel::ReducedDp => (2, 4096u64),
            BrownoutLevel::GreedyOnly => (4, 1024u64),
        };
        let mut b = budget;
        if let Some(d) = b.deadline {
            b = b.with_deadline(d / denom);
        }
        let cap = b.max_memo_entries.map_or(memo_cap, |m| m.min(memo_cap));
        b.with_max_memo_entries(cap)
    }
}

impl fmt::Display for BrownoutLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn brownout_skip(rung: Rung, entry: Rung) -> RungAttempt {
    RungAttempt::skipped(
        rung,
        format!("skipped: brownout pinned the ladder entry at the {entry} rung"),
    )
}

/// The ladder's rungs above the fallback, each with the share of the
/// remaining deadline it may use: the exhaustive rung ¼, the DP and the
/// large-query rungs ½ of what is left when they start, greedy all of it.
/// Caps (memo entries, tuples) are per-rung.
const LADDER: [(Rung, u32, u32); 5] = [
    (Rung::Exhaustive, 1, 4),
    (Rung::Dp, 1, 2),
    (Rung::LinDp, 1, 2),
    (Rung::PartitionedDp, 1, 2),
    (Rung::Greedy, 1, 1),
];

/// The degradation ladder, on a worker pool of `threads` (1 runs every
/// rung inline on the caller's thread).
///
/// Always returns a valid strategy covering `subset` (wrapped in a
/// [`RobustPlan`] naming the rung that produced it) unless the input
/// itself is invalid, the caller cancelled, or a fault was injected.
///
/// Every rung above `entry` is recorded as skipped (with a brownout note)
/// and never attempted; `Rung::Exhaustive` is the full ladder. This is the
/// serve-mode brownout hook — see [`BrownoutLevel::entry_rung`].
///
/// All rungs share one [`SharedOracle`] memo, re-armed with each rung's
/// budget slice, so intermediates survive degradation; at `threads > 1`
/// materialization inside it uses the partitioned parallel hash join.
/// Every rung is deterministic in the thread count: the same input gives
/// bit-identical plans and costs at any `threads ≥ 1`.
pub fn optimize_robust(
    db: &Database,
    subset: RelSet,
    space: SearchSpace,
    budget: Budget,
    cancel: Option<&CancelToken>,
    threads: usize,
    entry: Rung,
) -> Result<RobustPlan, MjoinError> {
    failpoints::hit("core::ladder")?;
    if subset.is_empty() {
        return Err(MjoinError::InvalidScheme(
            "cannot optimize the empty database".into(),
        ));
    }
    let _opt_span = span(Span::Optimize);
    let started = Instant::now();
    let mut attempts: Vec<RungAttempt> = Vec::new();
    let mut oracle = SharedOracle::new(db).with_join_threads(threads);

    for (rung, numer, denom) in LADDER {
        if entry > rung {
            attempts.push(brownout_skip(rung, entry));
            continue;
        }
        if rung == Rung::Exhaustive && subset.len() > EXHAUSTIVE_MAX_RELS {
            attempts.push(RungAttempt::skipped(
                rung,
                format!(
                    "skipped: {} relations exceed the {}-relation enumeration cutoff",
                    subset.len(),
                    EXHAUSTIVE_MAX_RELS
                ),
            ));
            continue;
        }
        let Some(b) = rung_budget(&budget, started, numer, denom) else {
            attempts.push(RungAttempt::skipped(
                rung,
                "skipped: deadline already exhausted".into(),
            ));
            continue;
        };
        let guard = rung_guard(b, cancel);
        oracle.rearm(guard.clone());
        incr(Counter::LadderRungsAttempted, 1);
        let _rung_span = span(Span::LadderRung);
        let rung_started = Instant::now();
        let outcome = match run_rung(rung, &oracle, subset, space, &guard, threads) {
            Ok(Some(plan)) => {
                let report = DegradationReport {
                    answered_by: rung,
                    attempts,
                    optimal: matches!(rung, Rung::Exhaustive | Rung::Dp),
                    space_relaxed: !in_space(&plan.strategy, space, db.scheme()),
                    answered_stats: rung_stats(rung_started, &guard),
                };
                return Ok(RobustPlan { plan, report });
            }
            Ok(None) if rung <= Rung::Dp => {
                format!("search space {space:?} is empty for this scheme")
            }
            Ok(None) => "not applicable: the join graph of the subset is unconnected".into(),
            Err(e) if degradable(&e) => e.to_string(),
            Err(e) => return Err(e),
        };
        attempts.push(RungAttempt {
            rung,
            outcome,
            stats: rung_stats(rung_started, &guard),
        });
    }

    // The fallback: index-order left-deep, valid by construction and built
    // without data access. Costing it is best-effort under whatever budget
    // remains.
    let order: Vec<usize> = subset.iter().collect();
    let strategy = Strategy::left_deep(&order);
    incr(Counter::LadderRungsAttempted, 1);
    let _rung_span = span(Span::LadderRung);
    let rung_started = Instant::now();
    let (cost, answered_stats) = match rung_budget(&budget, started, 1, 1) {
        None => (u64::MAX, RungStats::default()),
        Some(b) => {
            let guard = rung_guard(b, cancel);
            oracle.rearm(guard.clone());
            let cost = strategy.try_cost(&mut oracle.handle()).unwrap_or(u64::MAX);
            (cost, rung_stats(rung_started, &guard))
        }
    };
    Ok(RobustPlan {
        plan: Plan { strategy, cost },
        report: DegradationReport {
            answered_by: Rung::Fallback,
            attempts,
            optimal: false,
            space_relaxed: true,
            answered_stats,
        },
    })
}

/// Runs one rung of [`LADDER`]; `Ok(None)` means the rung has nothing to
/// offer for this input (an empty space, an unconnected join graph).
///
/// Exhaustive enumeration and the product-free DP fan out over `threads`
/// workers; the large-query rungs and greedy are sequential algorithms
/// (their work is polynomial oracle arithmetic, not enumeration) that read
/// and extend the shared memo through a handle. Greedy is shaped to the
/// space (linear spaces get the linear heuristic). The rungs below the DP
/// may leave a restricted space: degradation relaxes optimality first,
/// space membership second.
fn run_rung(
    rung: Rung,
    oracle: &SharedOracle<'_>,
    subset: RelSet,
    space: SearchSpace,
    guard: &Guard,
    threads: usize,
) -> Result<Option<Plan>, MjoinError> {
    let scheme = oracle.database().scheme();
    match rung {
        Rung::Exhaustive => {
            failpoints::hit("optimizer::exhaustive")?;
            let best = try_best_strategy_parallel(oracle, subset, guard, threads, &|s| {
                in_space(s, space, scheme)
            })?;
            Ok(best.map(|(strategy, cost)| Plan { strategy, cost }))
        }
        Rung::Dp => try_optimize_parallel(oracle, subset, space, guard, threads),
        Rung::LinDp => try_lindp(&mut oracle.handle(), subset, guard),
        Rung::PartitionedDp => try_partitioned_dp(&mut oracle.handle(), subset, guard),
        Rung::Greedy => {
            let mut handle = oracle.handle();
            let plan = if matches!(space, SearchSpace::Linear | SearchSpace::LinearNoCartesian) {
                try_greedy_linear(&mut handle, subset, guard)?
            } else {
                try_greedy_bushy(&mut handle, subset, guard)?
            };
            Ok(Some(plan))
        }
        Rung::Fallback => Err(MjoinError::Internal(
            "the fallback rung runs after the ladder table".into(),
        )),
    }
}

/// [`optimize_robust`] over a whole database, entering at the top rung.
pub fn optimize_database_robust(
    db: &Database,
    space: SearchSpace,
    budget: Budget,
    cancel: Option<&CancelToken>,
    threads: usize,
) -> Result<RobustPlan, MjoinError> {
    optimize_robust(
        db,
        db.scheme().full_set(),
        space,
        budget,
        cancel,
        threads,
        Rung::Exhaustive,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_gen::data;

    #[test]
    fn unlimited_ladder_answers_at_the_top() {
        let db = data::paper_example4();
        let r =
            optimize_database_robust(&db, SearchSpace::All, Budget::unlimited(), None, 1).unwrap();
        assert_eq!(r.report.answered_by, Rung::Exhaustive);
        assert!(r.report.optimal);
        assert_eq!(r.plan.cost, 11);
    }

    #[test]
    fn ladder_matches_plain_dp() {
        let db = data::paper_example5();
        let robust =
            optimize_database_robust(&db, SearchSpace::NoCartesian, Budget::unlimited(), None, 1)
                .unwrap();
        let plain = crate::optimize_database(&db, SearchSpace::NoCartesian).unwrap();
        assert_eq!(robust.plan.cost, plain.cost);
    }

    #[test]
    fn cancelled_ladder_propagates() {
        let db = data::paper_example5();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let err = optimize_database_robust(
                &db,
                SearchSpace::All,
                Budget::unlimited(),
                Some(&token),
                threads,
            )
            .unwrap_err();
            assert_eq!(err, MjoinError::Cancelled, "{threads} threads");
        }
    }

    #[test]
    fn memo_cap_degrades_not_fails() {
        let db = data::paper_example5();
        let budget = Budget::unlimited().with_max_memo_entries(1);
        for threads in [1, 4] {
            let r = optimize_database_robust(&db, SearchSpace::All, budget, None, threads).unwrap();
            // The exhaustive and DP rungs can't run on one memo entry; some
            // lower rung must still answer with a valid covering strategy.
            assert!(
                r.report.answered_by > Rung::Dp,
                "{threads} threads: {}",
                r.report
            );
            assert_eq!(r.plan.strategy.set(), db.scheme().full_set());
            assert!(r.plan.strategy.validate(db.scheme()));
            assert!(!r.report.attempts.is_empty());
        }
    }

    #[test]
    fn ladder_failpoint_propagates() {
        let db = data::paper_example4();
        let _fp = failpoints::ScopedFailpoint::arm("core::ladder");
        let err = optimize_database_robust(&db, SearchSpace::All, Budget::unlimited(), None, 1)
            .unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
    }

    #[test]
    fn brownout_entry_pins_the_ladder() {
        let db = data::paper_example4();
        let full = db.scheme().full_set();
        for threads in [1, 4] {
            for level in [
                BrownoutLevel::Normal,
                BrownoutLevel::ReducedDp,
                BrownoutLevel::GreedyOnly,
            ] {
                let r = optimize_robust(
                    &db,
                    full,
                    SearchSpace::All,
                    level.apply(Budget::unlimited()),
                    None,
                    threads,
                    level.entry_rung(),
                )
                .unwrap();
                let ctx = format!("{level} x{threads}: {}", r.report);
                assert_eq!(r.report.answered_by, level.entry_rung(), "{ctx}");
                assert_eq!(r.plan.strategy.set(), full);
                assert!(r.plan.strategy.validate(db.scheme()));
                // Every rung above the entry is on record as a brownout skip.
                let skips = r
                    .report
                    .attempts
                    .iter()
                    .filter(|a| a.outcome.contains("brownout"))
                    .count();
                let expected = match level {
                    BrownoutLevel::Normal => 0,
                    BrownoutLevel::ReducedDp => 1,
                    // GreedyOnly skips exhaustive, dp, lindp and partdp.
                    BrownoutLevel::GreedyOnly => 4,
                };
                assert_eq!(skips, expected, "{ctx}");
            }
        }
    }

    #[test]
    fn brownout_budget_caps_only_shrink() {
        let tight = Budget::unlimited()
            .with_deadline(Duration::from_millis(100))
            .with_max_memo_entries(16);
        let b = BrownoutLevel::ReducedDp.apply(tight);
        assert_eq!(b.deadline, Some(Duration::from_millis(50)));
        assert_eq!(b.max_memo_entries, Some(16)); // tighter caller cap wins
        let loose = BrownoutLevel::GreedyOnly.apply(Budget::unlimited());
        assert_eq!(loose.deadline, None);
        assert_eq!(loose.max_memo_entries, Some(1024));
    }

    #[test]
    fn brownout_names_round_trip() {
        for level in [
            BrownoutLevel::Normal,
            BrownoutLevel::ReducedDp,
            BrownoutLevel::GreedyOnly,
        ] {
            assert_eq!(BrownoutLevel::parse(level.name()), Some(level));
        }
        assert_eq!(BrownoutLevel::parse("bogus"), None);
    }

    #[test]
    fn report_display_names_the_rung() {
        let db = data::paper_example4();
        let r =
            optimize_database_robust(&db, SearchSpace::All, Budget::unlimited(), None, 1).unwrap();
        assert!(r.report.to_string().contains("exhaustive"));
    }
}
