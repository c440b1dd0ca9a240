//! Optimizers searching the strategy subspaces of the paper.
//!
//! The paper's motivating question is about query optimizers that restrict
//! their search "to strategies that are linear (e.g., of the form
//! `((R₁ ⋈ R₂) ⋈ R₃) ⋈ R₄`), or that avoid Cartesian products, or both",
//! naming the policies of System R, INGRES, GAMMA, Starburst and
//! Office-by-Example. This crate implements those search policies as
//! [`SearchSpace`] variants and finds the `τ`-cheapest strategy in each:
//!
//! * [`SearchSpace::All`] — every strategy (bushy, products allowed), by
//!   dynamic programming over subsets (`O(3ⁿ)`);
//! * [`SearchSpace::Linear`] — linear strategies (GAMMA), by prefix-set DP
//!   (`O(2ⁿ·n)`);
//! * [`SearchSpace::NoCartesian`] — product-free strategies (INGRES,
//!   Starburst), by DP over connected subsets with linked splits
//!   ([`DpAlgorithm::DpSub`]) or by size-stratified pair merging
//!   ([`DpAlgorithm::DpSize`]) — the two enumeration styles are an ablation
//!   pair;
//! * [`SearchSpace::LinearNoCartesian`] — both restrictions (System R,
//!   Office-by-Example);
//! * [`SearchSpace::AvoidCartesian`] — the paper's extension of
//!   product-avoidance to unconnected schemes: each component evaluated
//!   individually and product-free, components then multiplied in the
//!   cheapest order.
//!
//! Between the exact DPs and the greedy heuristics ([`greedy_bushy`],
//! [`greedy_linear`]) sit two polynomial rungs for the paper's ~100-join
//! regime: [`try_lindp`] (IKKBZ-linearized interval DP — bushy plans whose
//! subtrees are contiguous in a precedence order) and
//! [`try_partitioned_dp`] (exact DPccp inside ≤ k-relation blocks, greedy
//! recombination across the cuts).
//!
//! Costs are always the paper's `τ` (total tuples generated), supplied by a
//! [`CardinalityOracle`](mjoin_cost::CardinalityOracle).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bottleneck;
mod complexity;
mod dp;
mod explain;
mod greedy;
mod ikkbz;
mod lindp;
mod monotone;
mod partdp;
mod plan;

pub use bottleneck::{best_bottleneck, bottleneck_of};
pub use complexity::{enumeration_stats, EnumerationStats};
pub use dp::{plan_from_memo, DpAlgorithm, DpMemoExport};
pub use explain::{Explanation, ExplainStep};
pub use monotone::{best_monotone, exists_monotone, Monotonicity};
pub use dp::{
    best_avoid_cartesian, best_bushy, best_linear, best_no_cartesian,
    try_best_avoid_cartesian, try_best_avoid_cartesian_parallel, try_best_bushy,
    try_best_linear, try_best_no_cartesian, try_best_no_cartesian_ccp_rescan,
    try_best_no_cartesian_ccp_with_memo, try_best_no_cartesian_parallel,
};
pub use greedy::{greedy_bushy, greedy_linear, try_greedy_bushy, try_greedy_linear};
pub use ikkbz::{ikkbz, try_ikkbz};
pub use lindp::{lindp, try_lindp};
pub use partdp::{
    partitioned_dp, try_partitioned_dp, try_partitioned_dp_with, DEFAULT_BLOCK_MAX,
};
pub use plan::{
    optimize, optimize_with, try_optimize, try_optimize_parallel, try_optimize_with, Plan,
    SearchSpace,
};
