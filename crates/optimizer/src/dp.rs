//! Dynamic programs over scheme subsets.
//!
//! The paper's cost measure decomposes over subtrees — `τ(S)` is the sum of
//! `τ(R_{D′})` over the internal nodes, and `R_{D′}` depends only on the
//! subset `D′` — so Bellman's principle applies directly: the cheapest
//! strategy for `D` is `τ(R_D)` plus the cheapest pair of sub-strategies
//! over some partition `D = D₁ ⊎ D₂`. Each search space below is one DP.
//!
//! Every DP exists in two surfaces: a guarded `try_*` entry point that
//! threads a [`Guard`] through its hot loops (checkpointing each recursion,
//! charging every memo insert, and propagating oracle budget errors), and
//! the legacy infallible wrapper running under [`Guard::unlimited`].

use mjoin_cost::{CardinalityOracle, SharedHandle, SyncCardinalityOracle};
use mjoin_guard::{failpoints, Guard, MjoinError};
use mjoin_hypergraph::{DbScheme, FastMap, RelSet, SchemeIndex};
use mjoin_obs::{incr, Counter};
use mjoin_strategy::Strategy;

use crate::plan::Plan;

/// DP memo entry: best cost plus the winning split (None for leaves).
/// Keys are single-word bitsets, so the memo hashes with the splitmix64
/// fast path rather than SipHash.
pub(crate) type SplitMemo = FastMap<RelSet, (u64, Option<(RelSet, RelSet)>)>;

/// The split memo exactly as the pre-streaming DPccp shipped it: a std
/// `HashMap` under the default SipHash hasher. Only the rescan ablation
/// arm uses it, so the `dp_enumeration` bench measures the full old-vs-new
/// gap — scan strategy *and* memo representation — not just the scan.
type LegacySplitMemo = std::collections::HashMap<RelSet, (u64, Option<(RelSet, RelSet)>)>;

/// A candidate-scan result: the winning split with its children's summed
/// cost, `None` when the target subset has no valid split.
type BestSplit = Result<Option<((RelSet, RelSet), u64)>, MjoinError>;

/// [`BestSplit`], but over dense ranks (the flat-table DP's currency).
type FlatBestSplit = Result<Option<((u32, u32), u64)>, MjoinError>;

/// A split memo over any hasher — [`try_rebuild`] is generic so the
/// splitmix64 ([`SplitMemo`]) and SipHash ([`LegacySplitMemo`]) tables
/// share it.
type SplitMap<H> = std::collections::HashMap<RelSet, (u64, Option<(RelSet, RelSet)>), H>;

/// The flat rank-indexed DPccp table, split into parallel arrays so the
/// candidate scan touches only a bare `Vec<u64>` of costs (half the bytes
/// of an interleaved `(cost, split)` layout — the scan is memory-bound).
///
/// `costs[r] = u64::MAX` marks an unsolved slot; the strict-`<` scan can
/// never select one, so unsolved subsets are inert without a branch. A
/// *solved* subset whose cost legitimately saturated to `u64::MAX` is
/// disambiguated by `splits`: every solved non-singleton records its
/// winning split there (singletons are solved at cost 0).
struct FlatTable {
    costs: Vec<u64>,
    /// Winning `(csg_rank, cmp_rank)` per solved non-singleton.
    splits: Vec<Option<(u32, u32)>>,
}

impl FlatTable {
    fn unsolved(len: usize) -> FlatTable {
        FlatTable {
            costs: vec![u64::MAX; len],
            splits: vec![None; len],
        }
    }

    /// Whether `rank` was solved: a finite cost, or a recorded split, or a
    /// singleton's zero — only the saturated-cost corner needs the split
    /// probe.
    fn solved(&self, rank: u32) -> bool {
        self.costs[rank as usize] != u64::MAX || self.splits[rank as usize].is_some()
    }
}

/// Reusable enumeration scratch for the streaming DPccp: the per-level
/// csg–cmp pair lists (the CSR staging area) and the per-rank running-
/// minimum accumulators. A safe arena — the crate forbids `unsafe`, so
/// instead of a bump allocator the pool keeps every `Vec`'s capacity alive
/// across uses: levels within one DP run reset the accumulators in place,
/// and the partitioned DPccp reuses the whole pool across its blocks, so
/// block `i + 1` enumerates into block `i`'s allocations instead of the
/// allocator's.
pub(crate) struct DpScratch {
    /// `by_level[k]` = `(target_rank, csg_rank, cmp_rank)` triples whose
    /// union has size `k` — cleared per run, capacity retained.
    by_level: Vec<Vec<(u32, u32, u32)>>,
    /// Running `(cost, csg_rank)`-minimum per target rank; reset lazily
    /// per level (only the finalized slots are touched).
    acc_cost: Vec<u64>,
    acc_split: Vec<(u32, u32)>,
}

impl DpScratch {
    pub(crate) fn new() -> DpScratch {
        DpScratch {
            by_level: Vec::new(),
            acc_cost: Vec::new(),
            acc_split: Vec::new(),
        }
    }

    /// Readies the pool for a run over `levels + 1` sizes and `ranks`
    /// subsets: clears contents, keeps capacities, grows only when this
    /// run is larger than any before it.
    fn reset(&mut self, levels: usize, ranks: usize) {
        if self.by_level.len() < levels + 1 {
            self.by_level.resize_with(levels + 1, Vec::new);
        }
        for level in &mut self.by_level {
            level.clear();
        }
        self.acc_cost.clear();
        self.acc_cost.resize(ranks, u64::MAX);
        self.acc_split.clear();
        self.acc_split.resize(ranks, (0u32, 0u32));
    }
}

/// Enumeration style for the product-free DP — an ablation trio; all
/// produce plans of identical cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DpAlgorithm {
    /// Top-down recursion over sub-masks with memoization (`DPsub`).
    /// Work `O(3ⁿ)` regardless of join-graph sparsity.
    #[default]
    DpSub,
    /// Bottom-up by subset size, merging pairs of smaller plans
    /// (`DPsize`). Scans all pairs of connected subsets — quadratic in
    /// their count.
    DpSize,
    /// Connected-subgraph / connected-complement pairs in the style of
    /// Moerkotte & Neumann's `DPccp`: for each connected subset, only its
    /// linked connected complements are enumerated, so work tracks the
    /// number of *valid* joins rather than all subset pairs.
    DpCcp,
}

/// Cheapest strategy over the full space (bushy, products allowed).
pub fn best_bushy<O: CardinalityOracle>(oracle: &mut O, subset: RelSet) -> Plan {
    try_best_bushy(oracle, subset, &Guard::unlimited())
        .expect("unlimited-guard DP cannot fail")
}

/// [`best_bushy`] under a budget: `O(3ⁿ)` recursion with a checkpoint per
/// subproblem and every memo entry charged to `guard`.
pub fn try_best_bushy<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Plan, MjoinError> {
    failpoints::hit("optimizer::dp")?;
    let mut memo = SplitMemo::default();
    let mut scanned = 0u64;
    let cost = bushy_rec(oracle, subset, &mut memo, guard, &mut scanned)?;
    // Counters are published once per search, not once per subproblem —
    // the totals are identical, and the hot recursion stays free of
    // atomics (the recorder-armed overhead budget is 2%).
    incr(Counter::DpCandidatesScanned, scanned);
    incr(Counter::DpSubsetsExpanded, memo.len() as u64);
    Ok(Plan {
        strategy: try_rebuild(subset, &memo)?,
        cost,
    })
}

fn bushy_rec<O: CardinalityOracle>(
    oracle: &mut O,
    s: RelSet,
    memo: &mut SplitMemo,
    guard: &Guard,
    total_scanned: &mut u64,
) -> Result<u64, MjoinError> {
    if s.is_singleton() {
        return Ok(0);
    }
    if let Some(&(c, _)) = memo.get(&s) {
        return Ok(c);
    }
    // No entry checkpoint: `charge_memo` below polls cancellation and the
    // deadline once per expanded subproblem, which is the same granularity
    // with half the atomic traffic.
    let own = oracle.try_tau(s)?;
    let mut best = u64::MAX;
    let mut best_split = None;
    let mut scanned = 0u64;
    for (s1, s2) in s.proper_splits() {
        scanned += 1;
        // Once the memo is warm, long runs of this scan do no oracle work
        // at all — and on a large subset the scan is `2^{n−1}` iterations,
        // far past any deadline. Poll the guard on a stride so a budgeted
        // rung trips within its slice instead of overshooting it (the
        // stride keeps the hot path's atomic traffic negligible).
        if scanned & 0xFF == 0 {
            guard.checkpoint()?;
        }
        let c = bushy_rec(oracle, s1, memo, guard, total_scanned)?
            .saturating_add(bushy_rec(oracle, s2, memo, guard, total_scanned)?);
        if c < best {
            best = c;
            best_split = Some((s1, s2));
        }
    }
    *total_scanned += scanned;
    let total = own.saturating_add(best);
    guard.charge_memo(1)?;
    memo.insert(s, (total, best_split));
    Ok(total)
}

/// Cheapest *linear* strategy; with `no_cartesian`, every step must join
/// linked subsets (callers guarantee `subset` is connected in that case).
pub fn best_linear<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    no_cartesian: bool,
) -> Plan {
    try_best_linear(oracle, subset, no_cartesian, &Guard::unlimited())
        .expect("unlimited-guard DP cannot fail")
}

/// [`best_linear`] under a budget (prefix-set DP, `O(2ⁿ·n)`).
pub fn try_best_linear<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    no_cartesian: bool,
    guard: &Guard,
) -> Result<Plan, MjoinError> {
    failpoints::hit("optimizer::dp")?;
    // memo: prefix set → (cost, last relation added), cost = u64::MAX if
    // the prefix is unreachable under the no-product constraint.
    let mut memo: FastMap<RelSet, (u64, Option<usize>)> = FastMap::default();
    let cost = linear_rec(oracle, subset, no_cartesian, &mut memo, guard)?;
    if cost == u64::MAX {
        return Err(MjoinError::Internal(
            "a connected subset always admits a product-free linear order".into(),
        ));
    }
    // Reconstruct the order back-to-front.
    let mut order = Vec::with_capacity(subset.len());
    let mut s = subset;
    while !s.is_singleton() {
        let Some(&(_, last)) = memo.get(&s) else {
            return Err(MjoinError::Internal(format!(
                "linear DP memo lost prefix {s:?} during rebuild"
            )));
        };
        let Some(last) = last else {
            return Err(MjoinError::Internal(
                "non-singleton prefixes must record their last step".into(),
            ));
        };
        order.push(last);
        s.remove(last);
    }
    let Some(first) = s.first() else {
        return Err(MjoinError::Internal("empty prefix during rebuild".into()));
    };
    order.push(first);
    order.reverse();
    Ok(Plan {
        strategy: Strategy::left_deep(&order),
        cost,
    })
}

fn linear_rec<O: CardinalityOracle>(
    oracle: &mut O,
    s: RelSet,
    no_cartesian: bool,
    memo: &mut FastMap<RelSet, (u64, Option<usize>)>,
    guard: &Guard,
) -> Result<u64, MjoinError> {
    if s.is_singleton() {
        return Ok(0);
    }
    if let Some(&(c, _)) = memo.get(&s) {
        return Ok(c);
    }
    guard.checkpoint()?;
    let mut best = u64::MAX;
    let mut best_last = None;
    let mut scanned = 0u64;
    let mut pruned = 0u64;
    for last in s.iter() {
        scanned += 1;
        let rest = s.difference(RelSet::singleton(last));
        // Product-free linear strategies have *connected* prefixes (each
        // step joins linked sets, and unions of linked connected sets are
        // connected), so prune disconnected prefixes — this turns chain
        // queries from exponential into O(n²) subproblems.
        if no_cartesian
            && (!oracle.scheme().linked_disjoint(rest, RelSet::singleton(last))
                || !oracle.scheme().connected(rest))
        {
            pruned += 1;
            continue;
        }
        let c = linear_rec(oracle, rest, no_cartesian, memo, guard)?;
        if c < best {
            best = c;
            best_last = Some(last);
        }
    }
    incr(Counter::DpCandidatesScanned, scanned);
    incr(Counter::DpCandidatesPruned, pruned);
    // τ(s) is computed *lazily*: only prefixes with a surviving
    // product-free candidate pay for materialization. Unreachable
    // prefixes (every candidate pruned — e.g. any prefix of an
    // unconnected subset) memoize `u64::MAX` without ever touching the
    // oracle, where the eager form materialized an intermediate it then
    // threw away.
    let total = if best == u64::MAX {
        u64::MAX
    } else {
        oracle.try_tau(s)?.saturating_add(best)
    };
    guard.charge_memo(1)?;
    incr(Counter::DpSubsetsExpanded, 1);
    memo.insert(s, (total, best_last));
    Ok(total)
}

/// Cheapest product-free strategy; `None` iff `subset` is unconnected.
pub fn best_no_cartesian<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    algorithm: DpAlgorithm,
) -> Option<Plan> {
    try_best_no_cartesian(oracle, subset, algorithm, &Guard::unlimited())
        .expect("unlimited-guard DP cannot fail")
}

/// [`best_no_cartesian`] under a budget.
pub fn try_best_no_cartesian<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    algorithm: DpAlgorithm,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    failpoints::hit("optimizer::dp")?;
    if !oracle.scheme().connected(subset) {
        return Ok(None);
    }
    match algorithm {
        DpAlgorithm::DpSub => {
            let mut memo = SplitMemo::default();
            let Some(cost) = nocp_rec(oracle, subset, &mut memo, guard)? else {
                return Ok(None);
            };
            Ok(Some(Plan {
                strategy: try_rebuild(subset, &memo)?,
                cost,
            }))
        }
        DpAlgorithm::DpSize => nocp_dpsize(oracle, subset, guard),
        DpAlgorithm::DpCcp => nocp_dpccp(oracle, subset, guard),
    }
}

/// The DPccp candidate pairs, one streaming enumeration for the whole DP:
/// every (connected-subgraph, connected-complement) pair of the query
/// graph, as dense ranks, grouped by the *size* of the target
/// (`csg ∪ cmp`). Grouping by size is free — appends to a handful of
/// per-level vectors, no scatter by rank — and it is exactly the
/// granularity the bottom-up DP consumes: when level `k` is reached, every
/// pair in `by_level[k]` has both children solved.
struct LevelPairs {
    /// `by_level[k]` = the `(target_rank, csg_rank, cmp_rank)` triples of
    /// every csg–cmp pair whose union has size `k`, in enumeration order
    /// (the tie-break in the scans does not depend on it).
    by_level: Vec<Vec<(u32, u32, u32)>>,
}

/// Runs the streaming csg–cmp enumeration once and groups the emitted
/// pairs by target size. Work and allocation are output-sensitive in the
/// number of valid joins; the guard is checkpointed per emitted pair so a
/// deadline can cancel mid-enumeration on hostile (clique-dense) schemes.
fn build_level_pairs(
    scheme: &DbScheme,
    index: &SchemeIndex,
    guard: &Guard,
) -> Result<LevelPairs, MjoinError> {
    let mut scratch = DpScratch::new();
    build_level_pairs_into(scheme, index, guard, &mut scratch)?;
    Ok(LevelPairs {
        by_level: std::mem::take(&mut scratch.by_level),
    })
}

/// [`build_level_pairs`], enumerating into a caller-owned [`DpScratch`] so
/// repeated runs (levels of one query, blocks of a partitioned query)
/// reuse the pair lists' capacity instead of reallocating them.
fn build_level_pairs_into(
    scheme: &DbScheme,
    index: &SchemeIndex,
    guard: &Guard,
    scratch: &mut DpScratch,
) -> Result<(), MjoinError> {
    scratch.reset(index.max_size(), index.len());
    let by_level = &mut scratch.by_level;
    let mut emitted = 0u64;
    scheme.try_for_each_ccp(index.within(), &mut |csg, cmp| {
        guard.checkpoint()?;
        let union = csg.union(cmp);
        let (Some(t), Some(r1), Some(r2)) =
            (index.rank(union), index.rank(csg), index.rank(cmp))
        else {
            return Err(MjoinError::Internal(
                "csg–cmp enumeration emitted a subset missing from the rank index".into(),
            ));
        };
        emitted += 1;
        by_level[union.len()].push((t, r1, r2));
        Ok(())
    })?;
    incr(Counter::DpCcpPairsEmitted, emitted);
    Ok(())
}

/// The per-target CSR view of [`LevelPairs`], built only for the parallel
/// DP, whose unit of scheduling is one target subset. The legacy scan
/// visited each target's splits in ascending csg bit pattern and kept the
/// first minimum; the flat scan recovers exactly that winner
/// order-independently, by minimizing `(cost, csg_rank)` — so the chosen
/// plans stay bit-identical without sorting any bucket.
struct CcpCandidates {
    /// `offsets[t]..offsets[t + 1]` delimits target rank `t`'s pairs.
    offsets: Vec<usize>,
    /// `(csg_rank, cmp_rank)` per pair, in enumeration order within each
    /// target bucket (the scan's tie-break does not depend on it).
    pairs: Vec<(u32, u32)>,
}

/// Buckets the emitted pairs by target rank with a counting-sort scatter —
/// no comparison sort anywhere, no second graph enumeration.
fn build_ccp_candidates(levels: &LevelPairs, len: usize) -> CcpCandidates {
    let mut offsets = vec![0usize; len + 1];
    for level in &levels.by_level {
        for &(t, _, _) in level {
            offsets[t as usize + 1] += 1;
        }
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut pairs = vec![(0u32, 0u32); offsets[len]];
    for level in &levels.by_level {
        for &(t, r1, r2) in level {
            let slot = &mut cursor[t as usize];
            pairs[*slot] = (r1, r2);
            *slot += 1;
        }
    }
    CcpCandidates { offsets, pairs }
}

/// The flat-table DPccp candidate scan for one target rank: walk the
/// precomputed csg–cmp pairs, two `Vec` probes per pair. The winner is the
/// `(cost, csg_rank)`-lexicographic minimum — the same split the legacy
/// ascending-csg scan's first-minimum rule chose, but independent of
/// bucket order. Reads only strictly smaller subsets from `costs`, so a
/// whole size level can run this concurrently against a frozen table — the
/// sequential and parallel DPs share this function, which is what makes
/// them bit-identical at any thread count.
fn ccp_scan_flat(
    cands: &CcpCandidates,
    target: u32,
    costs: &[u64],
    guard: &Guard,
) -> FlatBestSplit {
    let mut best = u64::MAX;
    let mut best_split: Option<(u32, u32)> = None;
    let bucket = &cands.pairs[cands.offsets[target as usize]..cands.offsets[target as usize + 1]];
    for &(r1, r2) in bucket {
        guard.checkpoint()?;
        // Unsolved children carry the MAX sentinel: the sum saturates and
        // loses every comparison, so no presence branch is needed. (In
        // DPccp every child is in fact solved — each connected subset has
        // at least one valid split.)
        let cost = costs[r1 as usize].saturating_add(costs[r2 as usize]);
        if cost < best || (cost == best && best_split.is_some_and(|(b1, _)| r1 < b1)) {
            best = cost;
            best_split = Some((r1, r2));
        }
    }
    incr(Counter::DpCandidatesScanned, bucket.len() as u64);
    Ok(best_split.map(|split| (split, best)))
}

/// Rebuilds a strategy from the flat rank-indexed table (the `Vec` twin of
/// [`try_rebuild`]).
fn try_rebuild_flat(
    rank: u32,
    index: &SchemeIndex,
    table: &FlatTable,
) -> Result<Strategy, MjoinError> {
    let s = index.subset(rank);
    if s.is_singleton() {
        let Some(i) = s.first() else {
            return Err(MjoinError::Internal("singleton with no member".into()));
        };
        return Ok(Strategy::leaf(i));
    }
    let Some((r1, r2)) = table.splits[rank as usize] else {
        return Err(MjoinError::Internal(format!(
            "DP table records no split for solved subset {s:?}"
        )));
    };
    Strategy::join(
        try_rebuild_flat(r1, index, table)?,
        try_rebuild_flat(r2, index, table)?,
    )
    .map_err(|e| MjoinError::Internal(format!("memoized splits must be disjoint: {e}")))
}

fn nocp_dpccp<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    let (index, table) = nocp_dpccp_core(oracle, subset, guard)?;
    let Some(root) = index.rank(subset) else {
        return Ok(None);
    };
    if !table.solved(root) {
        return Ok(None);
    }
    Ok(Some(Plan {
        strategy: try_rebuild_flat(root, &index, &table)?,
        cost: table.costs[root as usize],
    }))
}

/// Product-free DPccp over `subset` with caller-owned enumeration scratch.
/// Identical plans to [`try_best_no_cartesian`] with [`DpAlgorithm::DpCcp`]
/// (same table, same tie-breaks); the only difference is where the pair
/// lists and accumulators live. The partitioned planner threads one pool
/// through every block.
pub(crate) fn nocp_dpccp_with_scratch<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    guard: &Guard,
    scratch: &mut DpScratch,
) -> Result<Option<Plan>, MjoinError> {
    failpoints::hit("optimizer::dp")?;
    if !oracle.scheme().connected(subset) {
        return Ok(None);
    }
    let (index, table) = nocp_dpccp_core_with(oracle, subset, guard, scratch)?;
    let Some(root) = index.rank(subset) else {
        return Ok(None);
    };
    if !table.solved(root) {
        return Ok(None);
    }
    Ok(Some(Plan {
        strategy: try_rebuild_flat(root, &index, &table)?,
        cost: table.costs[root as usize],
    }))
}

/// The DPccp body: builds the rank index and solves the flat table.
/// Shared by the plain entry point and the memo-exporting one.
fn nocp_dpccp_core<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    guard: &Guard,
) -> Result<(SchemeIndex, FlatTable), MjoinError> {
    let mut scratch = DpScratch::new();
    nocp_dpccp_core_with(oracle, subset, guard, &mut scratch)
}

/// [`nocp_dpccp_core`] over a caller-owned [`DpScratch`], so a sequence of
/// runs (the partitioned planner's blocks) shares one set of enumeration
/// buffers.
fn nocp_dpccp_core_with<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    guard: &Guard,
    scratch: &mut DpScratch,
) -> Result<(SchemeIndex, FlatTable), MjoinError> {
    // One connected-subset enumeration builds the rank index, one csg–cmp
    // enumeration builds every candidate list; the DP itself then touches
    // no hash table and no graph predicate — just flat `Vec` slots.
    let index =
        SchemeIndex::try_new_checked(oracle.scheme(), subset, &mut |_| guard.checkpoint())?;
    build_level_pairs_into(oracle.scheme(), &index, guard, scratch)?;
    let mut table = FlatTable::unsolved(index.len());
    for &r in index.level(1) {
        guard.charge_memo(1)?;
        incr(Counter::DpSubsetsExpanded, 1);
        table.costs[r as usize] = 0;
    }
    // Per-rank accumulator of the running `(cost, csg_rank)`-lexicographic
    // minimum, reused across levels: each level sweeps its pair list once,
    // folding every pair into its target's slot, then finalizes (and
    // resets) exactly the slots of that level's targets. This visits the
    // same pairs the per-target scan would, but in one sequential pass per
    // level whose random writes stay inside one level-sized window.
    let acc_cost = &mut scratch.acc_cost;
    let acc_split = &mut scratch.acc_split;
    for size in 2..=index.max_size() {
        let level_pairs = &scratch.by_level[size];
        for &(t, r1, r2) in level_pairs {
            guard.checkpoint()?;
            // Unsolved children carry the MAX sentinel: the sum saturates
            // and loses every comparison (the `cost != MAX` arm keeps a
            // saturated sum from tying an empty slot). In DPccp every
            // child is in fact solved — each connected subset has at
            // least one valid split.
            let cost = table.costs[r1 as usize].saturating_add(table.costs[r2 as usize]);
            let cur = acc_cost[t as usize];
            if cost < cur || (cost == cur && cost != u64::MAX && r1 < acc_split[t as usize].0) {
                acc_cost[t as usize] = cost;
                acc_split[t as usize] = (r1, r2);
            }
        }
        incr(Counter::DpCandidatesScanned, level_pairs.len() as u64);
        for &r in index.level(size) {
            guard.checkpoint()?;
            let children = acc_cost[r as usize];
            if children != u64::MAX {
                acc_cost[r as usize] = u64::MAX;
                let total = oracle.try_tau(index.subset(r))?.saturating_add(children);
                guard.charge_memo(1)?;
                incr(Counter::DpSubsetsExpanded, 1);
                table.costs[r as usize] = total;
                table.splits[r as usize] = Some(acc_split[r as usize]);
            }
        }
    }
    Ok((index, table))
}

/// A DPccp memo exported for persistence: the connected subsets in rank
/// order with their solved costs and winning `(csg_rank, cmp_rank)`
/// splits. Everything else the DP knows (levels, adjacency) is derivable
/// from the subsets, so this is the minimal durable form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DpMemoExport {
    /// Connected-subset bits in rank order.
    pub subsets: Vec<u64>,
    /// `costs[r]` = solved cost of rank `r`, `u64::MAX` unsolved.
    pub costs: Vec<u64>,
    /// `splits[r]` = winning split of rank `r`, `None` for leaves.
    pub splits: Vec<Option<(u32, u32)>>,
}

/// [`try_best_no_cartesian`] with [`DpAlgorithm::DpCcp`], additionally
/// returning the solved memo for persistence. Plans are identical to the
/// plain entry point's; only the save path pays for the export.
pub fn try_best_no_cartesian_ccp_with_memo<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Option<(Plan, DpMemoExport)>, MjoinError> {
    failpoints::hit("optimizer::dp")?;
    if !oracle.scheme().connected(subset) {
        return Ok(None);
    }
    let (index, table) = nocp_dpccp_core(oracle, subset, guard)?;
    let Some(root) = index.rank(subset) else {
        return Ok(None);
    };
    if !table.solved(root) {
        return Ok(None);
    }
    let plan = Plan {
        strategy: try_rebuild_flat(root, &index, &table)?,
        cost: table.costs[root as usize],
    };
    // The export's flat subset representation is 64-bit (the persistent
    // store's format); a subset over relations ≥ 64 cannot be persisted.
    // Such schemes are far beyond full-DP reach anyway, so this is a typed
    // error rather than a silent truncation.
    if subset.to_u64().is_none() {
        return Err(MjoinError::Internal(
            "memo export requires all relations below index 64".into(),
        ));
    }
    let export = DpMemoExport {
        subsets: (0..index.len() as u32)
            .map(|r| index.subset(r).to_u64().expect("subset of a u64-fitting set fits"))
            .collect(),
        costs: table.costs,
        splits: table.splits,
    };
    Ok(Some((plan, export)))
}

/// Rebuilds the winning plan for `within` from an exported memo, without
/// an oracle — the warm-start path. Returns `Ok(None)` when the memo does
/// not cover (or did not solve) `within`; a structurally inconsistent memo
/// (out-of-range or cyclic splits, non-singleton leaf) is a typed error.
pub fn plan_from_memo(memo: &DpMemoExport, within: RelSet) -> Result<Option<Plan>, MjoinError> {
    let n = memo.subsets.len();
    if memo.costs.len() != n || memo.splits.len() != n {
        return Err(MjoinError::Internal(
            "memo export tables are not parallel".into(),
        ));
    }
    // Exported subsets are 64-bit; a target with members ≥ 64 can never be
    // covered by a memo, so it simply misses.
    let Some(within64) = within.to_u64() else {
        return Ok(None);
    };
    let Some(root) = memo.subsets.iter().position(|&s| s == within64) else {
        return Ok(None);
    };
    if memo.costs[root] == u64::MAX && memo.splits[root].is_none() {
        return Ok(None);
    }
    Ok(Some(Plan {
        strategy: rebuild_from_export(root, memo, 0)?,
        cost: memo.costs[root],
    }))
}

fn rebuild_from_export(r: usize, memo: &DpMemoExport, depth: usize) -> Result<Strategy, MjoinError> {
    // A well-formed memo's splits point strictly downward in subset size,
    // bounding the tree depth by MAX_RELATIONS; the cap turns a cyclic
    // (corrupt) memo into a typed error instead of a stack overflow.
    if depth > mjoin_hypergraph::MAX_RELATIONS {
        return Err(MjoinError::Internal("memo export splits are cyclic".into()));
    }
    let set = RelSet(u128::from(memo.subsets[r]));
    match memo.splits[r] {
        None => {
            if !set.is_singleton() {
                return Err(MjoinError::Internal(format!(
                    "memo export leaf {set:?} is not a singleton"
                )));
            }
            Ok(Strategy::leaf(set.first().expect("singleton is nonempty")))
        }
        Some((a, b)) => {
            let (a, b) = (a as usize, b as usize);
            if a >= memo.subsets.len() || b >= memo.subsets.len() {
                return Err(MjoinError::Internal(
                    "memo export split rank out of range".into(),
                ));
            }
            Strategy::join(
                rebuild_from_export(a, memo, depth + 1)?,
                rebuild_from_export(b, memo, depth + 1)?,
            )
            .map_err(|e| MjoinError::Internal(format!("memo export splits overlap: {e}")))
        }
    }
}

/// The pre-index DPccp candidate scan, kept verbatim as an ablation
/// baseline: re-enumerates `connected_subsets(s)` for *every* target and
/// re-derives connectivity/linkage per candidate. See
/// [`try_best_no_cartesian_ccp_rescan`].
fn ccp_best_split_rescan(
    scheme: &DbScheme,
    s: RelSet,
    table: &LegacySplitMemo,
    guard: &Guard,
) -> BestSplit {
    let Some(first) = s.first() else {
        return Err(MjoinError::Internal("connected subset is empty".into()));
    };
    let lowest = RelSet::singleton(first);
    let mut best = u64::MAX;
    let mut best_split = None;
    let mut scanned = 0u64;
    let mut pruned = 0u64;
    for s1 in scheme.connected_subsets(s) {
        guard.checkpoint()?;
        scanned += 1;
        if s1 == s || !lowest.is_subset_of(s1) {
            pruned += 1;
            continue;
        }
        let s2 = s.difference(s1);
        if !scheme.connected(s2) || !scheme.linked(s1, s2) {
            pruned += 1;
            continue;
        }
        let (Some(&(c1, _)), Some(&(c2, _))) = (table.get(&s1), table.get(&s2)) else {
            pruned += 1;
            continue;
        };
        let cost = c1.saturating_add(c2);
        if cost < best {
            best = cost;
            best_split = Some((s1, s2));
        }
    }
    incr(Counter::DpCandidatesScanned, scanned);
    incr(Counter::DpCandidatesPruned, pruned);
    Ok(best_split.map(|split| (split, best)))
}

/// The DPccp implementation this PR replaced: per-target re-enumeration of
/// `connected_subsets`, std hash-map (SipHash) memo, attribute-fold
/// predicates. Retained
/// (not CLI-reachable) as the old arm of the `dp_enumeration` bench so the
/// streaming enumerator's speedup stays measurable; returns plans and
/// costs bit-identical to [`DpAlgorithm::DpCcp`].
pub fn try_best_no_cartesian_ccp_rescan<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    failpoints::hit("optimizer::dp")?;
    if !oracle.scheme().connected(subset) {
        return Ok(None);
    }
    // Connected subsets in ascending bit-pattern order; processing by
    // increasing size guarantees sub-plans exist before they're combined.
    let mut connected = oracle.scheme().connected_subsets(subset);
    connected.sort_by_key(|s| s.len());
    let mut table = LegacySplitMemo::default();
    for &s in &connected {
        guard.checkpoint()?;
        if s.is_singleton() {
            guard.charge_memo(1)?;
            incr(Counter::DpSubsetsExpanded, 1);
            table.insert(s, (0, None));
            continue;
        }
        let found = ccp_best_split_rescan(oracle.scheme(), s, &table, guard)?;
        if let Some((split, children)) = found {
            let total = oracle.try_tau(s)?.saturating_add(children);
            guard.charge_memo(1)?;
            incr(Counter::DpSubsetsExpanded, 1);
            table.insert(s, (total, Some(split)));
        }
    }
    let Some(&(cost, _)) = table.get(&subset) else {
        return Ok(None);
    };
    Ok(Some(Plan {
        strategy: try_rebuild(subset, &table)?,
        cost,
    }))
}

fn nocp_rec<O: CardinalityOracle>(
    oracle: &mut O,
    s: RelSet,
    memo: &mut SplitMemo,
    guard: &Guard,
) -> Result<Option<u64>, MjoinError> {
    if s.is_singleton() {
        return Ok(Some(0));
    }
    if let Some(&(c, _)) = memo.get(&s) {
        return Ok(if c == u64::MAX { None } else { Some(c) });
    }
    guard.checkpoint()?;
    let mut best = u64::MAX;
    let mut best_split = None;
    let mut scanned = 0u64;
    let mut pruned = 0u64;
    // Product-free strategies only ever produce connected node sets, so
    // both halves must be connected and linked to each other.
    for (s1, s2) in s.proper_splits() {
        scanned += 1;
        // Most splits of a large subset are pruned without oracle work,
        // so the scan can run `2^{n−1}` iterations between memo charges;
        // poll on the same stride as `bushy_rec`.
        if scanned & 0xFF == 0 {
            guard.checkpoint()?;
        }
        if !oracle.scheme().linked_disjoint(s1, s2)
            || !oracle.scheme().connected(s1)
            || !oracle.scheme().connected(s2)
        {
            pruned += 1;
            continue;
        }
        let (Some(c1), Some(c2)) = (
            nocp_rec(oracle, s1, memo, guard)?,
            nocp_rec(oracle, s2, memo, guard)?,
        ) else {
            pruned += 1;
            continue;
        };
        let c = c1.saturating_add(c2);
        if c < best {
            best = c;
            best_split = Some((s1, s2));
        }
    }
    incr(Counter::DpCandidatesScanned, scanned);
    incr(Counter::DpCandidatesPruned, pruned);
    guard.charge_memo(1)?;
    incr(Counter::DpSubsetsExpanded, 1);
    if best == u64::MAX {
        memo.insert(s, (u64::MAX, None));
        Ok(None)
    } else {
        let total = oracle.try_tau(s)?.saturating_add(best);
        memo.insert(s, (total, best_split));
        Ok(Some(total))
    }
}

/// The `DPsize` candidate scan for one target subset `u`: every split of
/// `u` into connected halves `(s1, s2)` with `|s1| ≤ |s2|`, ordered by
/// `|s1|` then by `s1`'s position in its size bucket. Like
/// [`ccp_best_split`] this reads only strictly smaller subsets of `table`,
/// so size levels parallelize; the sequential and parallel DPsize share it.
///
/// Unlike DPccp, the first candidate wins even at a saturated `u64::MAX`
/// cost — every reachable subset must record some split or plan
/// reconstruction has nothing to follow.
fn dpsize_best_split(
    scheme: &DbScheme,
    u: RelSet,
    by_size: &[Vec<RelSet>],
    table: &SplitMemo,
    guard: &Guard,
) -> BestSplit {
    let size = u.len();
    let mut best: Option<(u64, (RelSet, RelSet))> = None;
    let mut scanned = 0u64;
    let mut pruned = 0u64;
    for (a, bucket) in by_size.iter().enumerate().take(size / 2 + 1).skip(1) {
        let b = size - a;
        for &s1 in bucket {
            guard.checkpoint()?;
            scanned += 1;
            if !s1.is_subset_of(u) {
                pruned += 1;
                continue;
            }
            let s2 = u.difference(s1);
            if a == b && s2.0 <= s1.0 {
                pruned += 1;
                continue; // each unordered pair once
            }
            if !scheme.linked_disjoint(s1, s2) {
                pruned += 1;
                continue;
            }
            // `s2` may fail to be connected or reachable; either way it has
            // no table entry and the pair is skipped.
            let (Some(&(c1, _)), Some(&(c2, _))) = (table.get(&s1), table.get(&s2)) else {
                pruned += 1;
                continue;
            };
            let cost = c1.saturating_add(c2);
            if best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, (s1, s2)));
            }
        }
    }
    incr(Counter::DpCandidatesScanned, scanned);
    incr(Counter::DpCandidatesPruned, pruned);
    Ok(best.map(|(cost, split)| (split, cost)))
}

fn nocp_dpsize<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    // Group the connected subsets of `subset` by size.
    let connected = oracle.scheme().connected_subsets(subset);
    let n = subset.len();
    let mut by_size: Vec<Vec<RelSet>> = vec![Vec::new(); n + 1];
    for s in connected {
        by_size[s.len()].push(s);
    }
    let mut table = SplitMemo::default();
    for &s in &by_size[1] {
        guard.charge_memo(1)?;
        incr(Counter::DpSubsetsExpanded, 1);
        table.insert(s, (0, None));
    }
    for size in 2..=n {
        for i in 0..by_size[size].len() {
            let u = by_size[size][i];
            let found = dpsize_best_split(oracle.scheme(), u, &by_size, &table, guard)?;
            if let Some((split, children)) = found {
                let total = oracle.try_tau(u)?.saturating_add(children);
                guard.charge_memo(1)?;
                incr(Counter::DpSubsetsExpanded, 1);
                table.insert(u, (total, Some(split)));
            }
        }
    }
    let Some(&(cost, _)) = table.get(&subset) else {
        return Ok(None);
    };
    Ok(Some(Plan {
        strategy: try_rebuild(subset, &table)?,
        cost,
    }))
}

/// Cheapest strategy *avoiding* Cartesian products: each component solved
/// product-free, then the components multiplied in the cheapest order.
/// `None` iff some component admits no product-free strategy (cannot
/// happen — components are connected — but kept as a safe signature).
pub fn best_avoid_cartesian<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    algorithm: DpAlgorithm,
) -> Option<Plan> {
    try_best_avoid_cartesian(oracle, subset, algorithm, &Guard::unlimited())
        .expect("unlimited-guard DP cannot fail")
}

/// [`best_avoid_cartesian`] under a budget.
pub fn try_best_avoid_cartesian<O: CardinalityOracle>(
    oracle: &mut O,
    subset: RelSet,
    algorithm: DpAlgorithm,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    let comps = oracle.scheme().components(subset);
    if comps.len() == 1 {
        return try_best_no_cartesian(oracle, subset, algorithm, guard);
    }
    let mut plans: Vec<Plan> = Vec::with_capacity(comps.len());
    for &c in &comps {
        match try_best_no_cartesian(oracle, c, algorithm, guard)? {
            Some(p) => plans.push(p),
            None => return Ok(None),
        }
    }
    let mut sizes: Vec<u64> = Vec::with_capacity(comps.len());
    for &c in &comps {
        sizes.push(oracle.try_tau(c)?);
    }
    combine_component_plans(plans, sizes, guard).map(Some)
}

/// DP over subsets of components; a step multiplying component-set C
/// produces Π sizes (the components share no attributes). Shared by the
/// sequential and parallel avoid-Cartesian entry points.
fn combine_component_plans(
    plans: Vec<Plan>,
    sizes: Vec<u64>,
    guard: &Guard,
) -> Result<Plan, MjoinError> {
    fn combo(
        cs: RelSet,
        sizes: &[u64],
        base: &[u64],
        memo: &mut SplitMemo,
        guard: &Guard,
    ) -> Result<u64, MjoinError> {
        if cs.is_singleton() {
            let Some(i) = cs.first() else {
                return Err(MjoinError::Internal("singleton with no member".into()));
            };
            return Ok(base[i]);
        }
        if let Some(&(c, _)) = memo.get(&cs) {
            return Ok(c);
        }
        guard.checkpoint()?;
        let own: u64 = cs
            .iter()
            .fold(1u64, |acc, i| acc.saturating_mul(sizes[i]));
        let mut best = u64::MAX;
        let mut best_split = None;
        for (a, b) in cs.proper_splits() {
            let c = combo(a, sizes, base, memo, guard)?
                .saturating_add(combo(b, sizes, base, memo, guard)?);
            if c < best {
                best = c;
                best_split = Some((a, b));
            }
        }
        let total = own.saturating_add(best);
        guard.charge_memo(1)?;
        incr(Counter::DpSubsetsExpanded, 1);
        memo.insert(cs, (total, best_split));
        Ok(total)
    }

    // Assemble the relation-level strategy from the component-level tree.
    fn assemble(cs: RelSet, plans: &[Plan], memo: &SplitMemo) -> Result<Strategy, MjoinError> {
        if cs.is_singleton() {
            let Some(i) = cs.first() else {
                return Err(MjoinError::Internal("singleton with no member".into()));
            };
            return Ok(plans[i].strategy.clone());
        }
        let Some(&(_, split)) = memo.get(&cs) else {
            return Err(MjoinError::Internal(format!(
                "component DP memo lost subset {cs:?} during assembly"
            )));
        };
        let Some((a, b)) = split else {
            return Err(MjoinError::Internal(
                "non-singleton component entries must record splits".into(),
            ));
        };
        Strategy::join(assemble(a, plans, memo)?, assemble(b, plans, memo)?)
            .map_err(|e| MjoinError::Internal(format!("components must be disjoint: {e}")))
    }

    let k = plans.len();
    let mut memo = SplitMemo::default();
    let base: Vec<u64> = plans.iter().map(|p| p.cost).collect();
    let full = RelSet::full(k);
    let cost = combo(full, &sizes, &base, &mut memo, guard)?;
    Ok(Plan {
        strategy: assemble(full, &plans, &memo)?,
        cost,
    })
}

/// Rebuilds a strategy from a split table. Memo corruption (a solved
/// subset with no recorded split, or overlapping splits) surfaces as
/// [`MjoinError::Internal`] rather than a panic. Generic over the hasher
/// so the legacy (SipHash) rescan arm can share it.
pub(crate) fn try_rebuild<H: std::hash::BuildHasher>(
    s: RelSet,
    memo: &SplitMap<H>,
) -> Result<Strategy, MjoinError> {
    if s.is_singleton() {
        let Some(i) = s.first() else {
            return Err(MjoinError::Internal("singleton with no member".into()));
        };
        return Ok(Strategy::leaf(i));
    }
    let Some(&(_, split)) = memo.get(&s) else {
        return Err(MjoinError::Internal(format!(
            "DP memo has no entry for solved subset {s:?}"
        )));
    };
    let Some((s1, s2)) = split else {
        return Err(MjoinError::Internal(
            "solved non-singletons must record their split".into(),
        ));
    };
    Strategy::join(try_rebuild(s1, memo)?, try_rebuild(s2, memo)?)
        .map_err(|e| MjoinError::Internal(format!("memoized splits must be disjoint: {e}")))
}

/// Runs `work` over every item of one DP level, splitting the level into
/// contiguous chunks across `threads` scoped workers. Results come back in
/// item order, errors in chunk order — combined with the fact that `work`
/// reads only *previous* levels, this makes the parallel DP's merge
/// deterministic: the table after each level is independent of the thread
/// count, so plans and costs are bit-identical to the 1-thread run.
fn run_level<I, T, F>(items: &[I], threads: usize, work: F) -> Result<Vec<T>, MjoinError>
where
    I: Copy + Sync,
    T: Send,
    F: Fn(I) -> Result<T, MjoinError> + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(|&s| work(s)).collect();
    }
    let workers = threads.min(items.len());
    let chunk = items.len().div_ceil(workers);
    let results: Vec<Result<Vec<T>, MjoinError>> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                scope.spawn(move || {
                    c.iter()
                        .map(|&s| work(s))
                        .collect::<Result<Vec<T>, MjoinError>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("DP worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Multi-core [`try_best_no_cartesian`]: the bottom-up DPs (`DPsize`,
/// `DPccp`) run each subset-size level across `threads` scoped workers
/// against a frozen table of the smaller levels, then merge in item order.
/// Plans and costs are bit-identical to the sequential DP at any thread
/// count — the per-subset candidate scan is the very same function.
///
/// `DpSub` is a top-down recursion with nothing to parallelize; it runs
/// sequentially over a [`SharedHandle`].
pub fn try_best_no_cartesian_parallel<O: SyncCardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    algorithm: DpAlgorithm,
    guard: &Guard,
    threads: usize,
) -> Result<Option<Plan>, MjoinError> {
    failpoints::hit("optimizer::dp")?;
    let scheme = oracle.scheme();
    if !scheme.connected(subset) {
        return Ok(None);
    }
    if algorithm == DpAlgorithm::DpSub {
        let mut handle = SharedHandle::new(oracle);
        let mut memo = SplitMemo::default();
        let Some(cost) = nocp_rec(&mut handle, subset, &mut memo, guard)? else {
            return Ok(None);
        };
        return Ok(Some(Plan {
            strategy: try_rebuild(subset, &memo)?,
            cost,
        }));
    }
    if algorithm == DpAlgorithm::DpCcp {
        // Same index + candidate enumeration + tie-break as the sequential
        // DPccp; the unit of scheduling here is one target subset, so the
        // level pair lists are scattered into a per-target CSR view, and
        // the merge back into the frozen table happens in rank order.
        let index = SchemeIndex::try_new_checked(scheme, subset, &mut |_| guard.checkpoint())?;
        let cands = build_ccp_candidates(&build_level_pairs(scheme, &index, guard)?, index.len());
        let mut table = FlatTable::unsolved(index.len());
        for &r in index.level(1) {
            guard.charge_memo(1)?;
            incr(Counter::DpSubsetsExpanded, 1);
            table.costs[r as usize] = 0;
        }
        for size in 2..=index.max_size() {
            let level = index.level(size);
            if level.is_empty() {
                continue;
            }
            let results = run_level(level, threads, |r: u32| {
                guard.checkpoint()?;
                match ccp_scan_flat(&cands, r, &table.costs, guard)? {
                    None => Ok(None),
                    Some((split, children)) => {
                        let total = oracle.try_tau(index.subset(r))?.saturating_add(children);
                        Ok(Some((total, split)))
                    }
                }
            })?;
            for (i, r) in results.into_iter().enumerate() {
                if let Some((total, split)) = r {
                    guard.charge_memo(1)?;
                    incr(Counter::DpSubsetsExpanded, 1);
                    table.costs[level[i] as usize] = total;
                    table.splits[level[i] as usize] = Some(split);
                }
            }
        }
        let Some(root) = index.rank(subset) else {
            return Ok(None);
        };
        if !table.solved(root) {
            return Ok(None);
        }
        return Ok(Some(Plan {
            strategy: try_rebuild_flat(root, &index, &table)?,
            cost: table.costs[root as usize],
        }));
    }
    let connected = scheme.connected_subsets(subset);
    let n = subset.len();
    let mut by_size: Vec<Vec<RelSet>> = vec![Vec::new(); n + 1];
    for s in connected {
        by_size[s.len()].push(s);
    }
    let mut table = SplitMemo::default();
    for &s in &by_size[1] {
        guard.charge_memo(1)?;
        incr(Counter::DpSubsetsExpanded, 1);
        table.insert(s, (0, None));
    }
    for size in 2..=n {
        let level = &by_size[size];
        if level.is_empty() {
            continue;
        }
        let results = run_level(level, threads, |u| {
            guard.checkpoint()?;
            match dpsize_best_split(scheme, u, &by_size, &table, guard)? {
                None => Ok(None),
                Some((split, children)) => {
                    let total = oracle.try_tau(u)?.saturating_add(children);
                    Ok(Some((total, split)))
                }
            }
        })?;
        for (i, r) in results.into_iter().enumerate() {
            if let Some((total, split)) = r {
                guard.charge_memo(1)?;
                incr(Counter::DpSubsetsExpanded, 1);
                table.insert(by_size[size][i], (total, Some(split)));
            }
        }
    }
    let Some(&(cost, _)) = table.get(&subset) else {
        return Ok(None);
    };
    Ok(Some(Plan {
        strategy: try_rebuild(subset, &table)?,
        cost,
    }))
}

/// Multi-core [`try_best_avoid_cartesian`]: each connected component is
/// solved with [`try_best_no_cartesian_parallel`], then the components are
/// combined by the same (cheap, sequential) component-ordering DP.
pub fn try_best_avoid_cartesian_parallel<O: SyncCardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    algorithm: DpAlgorithm,
    guard: &Guard,
    threads: usize,
) -> Result<Option<Plan>, MjoinError> {
    let comps = oracle.scheme().components(subset);
    if comps.len() == 1 {
        return try_best_no_cartesian_parallel(oracle, subset, algorithm, guard, threads);
    }
    let mut plans: Vec<Plan> = Vec::with_capacity(comps.len());
    for &c in &comps {
        match try_best_no_cartesian_parallel(oracle, c, algorithm, guard, threads)? {
            Some(p) => plans.push(p),
            None => return Ok(None),
        }
    }
    let mut sizes: Vec<u64> = Vec::with_capacity(comps.len());
    for &c in &comps {
        sizes.push(oracle.try_tau(c)?);
    }
    combine_component_plans(plans, sizes, guard).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{Database, ExactOracle};
    use mjoin_guard::Budget;

    fn chain4() -> Database {
        Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1]]),
            ("DE", vec![vec![0, 7], vec![1, 8], vec![2, 9]]),
        ])
        .unwrap()
    }

    #[test]
    fn dp_variants_agree() {
        let db = chain4();
        let mut o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let a = best_no_cartesian(&mut o, full, DpAlgorithm::DpSub).unwrap();
        let b = best_no_cartesian(&mut o, full, DpAlgorithm::DpSize).unwrap();
        let c = best_no_cartesian(&mut o, full, DpAlgorithm::DpCcp).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.cost, c.cost);
        assert_eq!(a.cost, a.strategy.cost(&mut o));
        assert_eq!(b.cost, b.strategy.cost(&mut o));
        assert_eq!(c.cost, c.strategy.cost(&mut o));
        assert!(!c.strategy.uses_cartesian(db.scheme()));
    }

    #[test]
    fn dp_variants_agree_on_random_schemes() {
        use mjoin_gen::{data, data::DataConfig, schemes};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for n in 2..=6 {
            let (cat, scheme) = schemes::random_connected(n, 1, &mut rng);
            let cfg = DataConfig { tuples_per_relation: 3, domain: 4, ensure_nonempty: true };
            let db = data::uniform(cat, scheme, &cfg, &mut rng);
            let mut o = ExactOracle::new(&db);
            let full = db.scheme().full_set();
            let costs: Vec<Option<u64>> = [DpAlgorithm::DpSub, DpAlgorithm::DpSize, DpAlgorithm::DpCcp]
                .into_iter()
                .map(|alg| best_no_cartesian(&mut o, full, alg).map(|p| p.cost))
                .collect();
            assert_eq!(costs[0], costs[1], "n={n}");
            assert_eq!(costs[0], costs[2], "n={n}");
        }
    }

    #[test]
    fn no_cartesian_matches_filtered_enumeration() {
        let db = chain4();
        let mut o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let dp = best_no_cartesian(&mut o, full, DpAlgorithm::DpSub)
            .unwrap()
            .cost;
        let brute = mjoin_strategy::enumerate_no_cartesian(db.scheme(), full)
            .into_iter()
            .map(|s| s.cost(&mut o))
            .min()
            .unwrap();
        assert_eq!(dp, brute);
    }

    #[test]
    fn linear_no_cartesian_matches_filtered_enumeration() {
        let db = chain4();
        let mut o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let dp = best_linear(&mut o, full, true).cost;
        let brute = mjoin_strategy::enumerate_linear(full)
            .into_iter()
            .filter(|s| !s.uses_cartesian(db.scheme()))
            .map(|s| s.cost(&mut o))
            .min()
            .unwrap();
        assert_eq!(dp, brute);
        let free = best_linear(&mut o, full, false).cost;
        assert!(free <= dp);
    }

    #[test]
    fn avoid_cartesian_on_components() {
        // Two components: {AB, BC} and {XY}.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6], vec![30, 7]]),
            ("XY", vec![vec![0, 0], vec![1, 1]]),
        ])
        .unwrap();
        let mut o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let plan = best_avoid_cartesian(&mut o, full, DpAlgorithm::DpSub).unwrap();
        assert!(plan.strategy.avoids_cartesian(db.scheme()));
        let brute = mjoin_strategy::enumerate_avoiding_cartesian(db.scheme(), full)
            .into_iter()
            .map(|s| s.cost(&mut o))
            .min()
            .unwrap();
        assert_eq!(plan.cost, brute);
    }

    #[test]
    fn avoid_cartesian_three_components_ordering_matters() {
        // Components of very different sizes: the DP should multiply the
        // small ones first.
        let rows = |n: i64, base: i64| -> Vec<Vec<i64>> {
            (0..n).map(|i| vec![base + i, base + i]).collect()
        };
        let db = Database::from_specs(&[
            ("AB", rows(2, 0)),
            ("CD", rows(3, 100)),
            ("EF", rows(50, 200)),
        ])
        .unwrap();
        let mut o = ExactOracle::new(&db);
        let plan = best_avoid_cartesian(&mut o, db.scheme().full_set(), DpAlgorithm::DpSub)
            .unwrap();
        // (AB × CD) first: 6, then × EF: 300 ⇒ 306. Any order touching EF
        // early costs ≥ 100 + 300.
        assert_eq!(plan.cost, 306);
    }

    #[test]
    fn bushy_beats_or_ties_linear_always() {
        let db = chain4();
        let mut o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        assert!(best_bushy(&mut o, full).cost <= best_linear(&mut o, full, false).cost);
    }

    #[test]
    fn memo_cap_trips_the_bushy_dp() {
        let db = chain4();
        let mut o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let guard = Guard::new(Budget::unlimited().with_max_memo_entries(2));
        let err = try_best_bushy(&mut o, full, &guard).unwrap_err();
        assert!(matches!(err, MjoinError::BudgetExceeded { .. }), "{err}");
        // The same DP under no budget still succeeds.
        let mut o2 = ExactOracle::new(&db);
        assert!(try_best_bushy(&mut o2, full, &Guard::unlimited()).is_ok());
    }

    #[test]
    fn guarded_and_unguarded_dps_agree() {
        let db = chain4();
        let full = db.scheme().full_set();
        let mut o1 = ExactOracle::new(&db);
        let mut o2 = ExactOracle::new(&db);
        let legacy = best_bushy(&mut o1, full);
        let guarded = try_best_bushy(&mut o2, full, &Guard::new(Budget::unlimited())).unwrap();
        assert_eq!(legacy.cost, guarded.cost);
        assert_eq!(legacy.strategy, guarded.strategy);
    }

    /// Wraps an oracle and counts `tau`/`try_tau` calls, for asserting on
    /// *when* the DP pays for materialization.
    struct CountingOracle<'a, O> {
        inner: &'a mut O,
        tau_calls: u64,
    }

    impl<O: CardinalityOracle> CardinalityOracle for CountingOracle<'_, O> {
        fn scheme(&self) -> &DbScheme {
            self.inner.scheme()
        }
        fn tau(&mut self, subset: RelSet) -> u64 {
            self.tau_calls += 1;
            self.inner.tau(subset)
        }
        fn try_tau(&mut self, subset: RelSet) -> Result<u64, MjoinError> {
            self.tau_calls += 1;
            self.inner.try_tau(subset)
        }
    }

    #[test]
    fn linear_dp_computes_tau_lazily_on_unreachable_prefixes() {
        // Two components: every prefix of the full set is unreachable
        // under no_cartesian, so the DP must fail *without a single τ
        // call* — the eager form materialized the full Cartesian product
        // first and then threw it away.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("XY", vec![vec![0, 0], vec![1, 1]]),
        ])
        .unwrap();
        let mut inner = ExactOracle::new(&db);
        let mut o = CountingOracle { inner: &mut inner, tau_calls: 0 };
        let full = db.scheme().full_set();
        let err = try_best_linear(&mut o, full, true, &Guard::unlimited()).unwrap_err();
        assert!(matches!(err, MjoinError::Internal(_)), "{err}");
        assert_eq!(o.tau_calls, 0, "unreachable prefixes must not touch the oracle");

        // On a connected input the lazy form still materializes exactly
        // one τ per expanded prefix, and the plan is unchanged.
        let db = chain4();
        let mut inner = ExactOracle::new(&db);
        let mut o = CountingOracle { inner: &mut inner, tau_calls: 0 };
        let full = db.scheme().full_set();
        let plan = try_best_linear(&mut o, full, true, &Guard::unlimited()).unwrap();
        // 4-chain: connected prefixes of size ≥ 2 are the 3 + 2 + 1
        // contiguous runs = 6 expanded non-singleton prefixes.
        assert_eq!(o.tau_calls, 6);
        let mut o2 = ExactOracle::new(&db);
        assert_eq!(plan.cost, best_linear(&mut o2, full, true).cost);
    }

    #[test]
    fn streaming_dpccp_matches_the_rescan_baseline() {
        use mjoin_gen::{data, data::DataConfig, schemes};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        for n in 2..=7 {
            let (cat, scheme) = schemes::random_connected(n, 2, &mut rng);
            let cfg = DataConfig { tuples_per_relation: 3, domain: 4, ensure_nonempty: true };
            let db = data::uniform(cat, scheme, &cfg, &mut rng);
            let full = db.scheme().full_set();
            let mut o1 = ExactOracle::new(&db);
            let new = best_no_cartesian(&mut o1, full, DpAlgorithm::DpCcp).unwrap();
            let mut o2 = ExactOracle::new(&db);
            let old = try_best_no_cartesian_ccp_rescan(&mut o2, full, &Guard::unlimited())
                .unwrap()
                .unwrap();
            assert_eq!(new.cost, old.cost, "n={n}");
            assert_eq!(new.strategy, old.strategy, "n={n}");
        }
    }

    #[test]
    fn dp_failpoint_propagates_typed_error() {
        let db = chain4();
        let mut o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let _fp = mjoin_guard::failpoints::ScopedFailpoint::arm("optimizer::dp");
        let err = try_best_bushy(&mut o, full, &Guard::unlimited()).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
    }
}
