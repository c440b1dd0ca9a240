//! Differential guarantees for the two polynomial ladder rungs.
//!
//! On seeded chain/star corpora small enough for the exact DPs (n ≤ 12):
//!
//! * `LinDp` finds the full-DP optimum on every chain — an endpoint-rooted
//!   IKKBZ order of a chain *is* the chain, and the interval DP over that
//!   order covers the whole product-free bushy space;
//! * `LinDp` never loses to `greedy_linear` anywhere (it takes the min
//!   with that heuristic by construction);
//! * `PartitionedDp` with `k ≥ n` *is* DPccp — same call, bit-identical
//!   cost and strategy;
//! * both rungs are thread-invariant: `optimize_robust` pinned at
//!   either rung returns byte-identical plans at 1, 2, and 4 threads.

use mjoin::{
    optimize_robust, Budget, Database, ExactOracle, Guard, RelSet, Rung,
    SearchSpace,
};
use mjoin_cost::SyntheticOracle;
use mjoin_gen::{data, data::DataConfig, schemes};
use mjoin_hypergraph::DbScheme;
use mjoin_optimizer::{
    try_best_no_cartesian, try_greedy_linear, try_lindp, try_partitioned_dp_with, DpAlgorithm,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded base cardinalities in `[10, 200)` — varied enough that greedy
/// and the optimum genuinely disagree on some instances, small enough
/// (with the domain below) that no τ saturates `u64` even on a 12-spoke
/// star hub (a saturated cost makes the exact DP report "unaffordably
/// large" as `None`, which is not what this suite is probing).
fn seeded_bases(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(10..200)).collect()
}

fn oracle_for(scheme: &DbScheme, bases: &[u64]) -> SyntheticOracle {
    SyntheticOracle::new(scheme.clone(), bases.to_vec(), 20)
}

/// LinDp τ = full product-free DP τ on every seeded chain with n ≤ 12.
#[test]
fn lindp_matches_full_dp_on_seeded_chains() {
    for n in 2..=12usize {
        for seed in 0..6u64 {
            let (_, scheme) = schemes::chain(n);
            let bases = seeded_bases(seed * 31 + n as u64, n);
            let full = scheme.full_set();
            let guard = Guard::unlimited();
            let lin = try_lindp(&mut oracle_for(&scheme, &bases), full, &guard)
                .unwrap()
                .expect("chains are connected");
            let opt = try_best_no_cartesian(
                &mut oracle_for(&scheme, &bases),
                full,
                DpAlgorithm::DpCcp,
                &guard,
            )
            .unwrap()
            .expect("chains are connected");
            assert_eq!(
                lin.cost, opt.cost,
                "n={n} seed={seed}: LinDp must be optimal on chains"
            );
        }
    }
}

/// LinDp never returns a plan costlier than `greedy_linear`, on chains and
/// stars alike.
#[test]
fn lindp_never_loses_to_greedy_linear_on_seeded_corpora() {
    for n in 2..=12usize {
        for seed in 0..6u64 {
            for (which, (_, scheme)) in
                [("chain", schemes::chain(n)), ("star", schemes::star(n))]
            {
                let bases = seeded_bases(seed * 131 + n as u64, scheme.len());
                let full = scheme.full_set();
                let guard = Guard::unlimited();
                let lin = try_lindp(&mut oracle_for(&scheme, &bases), full, &guard)
                    .unwrap()
                    .expect("connected");
                let greedy = try_greedy_linear(&mut oracle_for(&scheme, &bases), full, &guard)
                    .unwrap();
                assert!(
                    lin.cost <= greedy.cost,
                    "{which} n={n} seed={seed}: LinDp {} vs greedy_linear {}",
                    lin.cost,
                    greedy.cost
                );
            }
        }
    }
}

/// `PartitionedDp` with `k ≥ n` reproduces DPccp bit-identically — cost
/// *and* strategy, chains and stars.
#[test]
fn partdp_with_large_blocks_is_dpccp_bit_for_bit() {
    for n in 2..=12usize {
        for seed in 0..4u64 {
            for (which, (_, scheme)) in
                [("chain", schemes::chain(n)), ("star", schemes::star(n))]
            {
                let bases = seeded_bases(seed * 977 + n as u64, scheme.len());
                let full = scheme.full_set();
                let guard = Guard::unlimited();
                for k in [n, n + 1, 128] {
                    let part = try_partitioned_dp_with(
                        &mut oracle_for(&scheme, &bases),
                        full,
                        k,
                        &guard,
                    )
                    .unwrap()
                    .expect("connected");
                    let exact = try_best_no_cartesian(
                        &mut oracle_for(&scheme, &bases),
                        full,
                        DpAlgorithm::DpCcp,
                        &guard,
                    )
                    .unwrap()
                    .expect("connected");
                    assert_eq!(part.cost, exact.cost, "{which} n={n} seed={seed} k={k}");
                    assert_eq!(
                        part.strategy, exact.strategy,
                        "{which} n={n} seed={seed} k={k}: strategies must be bit-identical"
                    );
                }
            }
        }
    }
}

fn seeded_db(seed: u64, scheme_kind: &str, n: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let (cat, scheme) = match scheme_kind {
        "chain" => schemes::chain(n),
        _ => schemes::star(n),
    };
    let cfg = DataConfig {
        tuples_per_relation: 3,
        domain: 3,
        ensure_nonempty: true,
    };
    data::uniform(cat, scheme, &cfg, &mut rng)
}

/// Pinning the ladder entry at each new rung, the ladder returns
/// the same plan at 1, 2, and 4 threads — the rungs run sequentially on
/// the shared-oracle handle, so thread count cannot perturb them.
#[test]
fn new_rungs_are_thread_invariant() {
    for kind in ["chain", "star"] {
        for (seed, n) in [(7u64, 10usize), (11, 12)] {
            let db = seeded_db(seed, kind, n);
            let full: RelSet = db.scheme().full_set();
            for entry in [Rung::LinDp, Rung::PartitionedDp] {
                let plans: Vec<_> = [1usize, 2, 4]
                    .into_iter()
                    .map(|threads| {
                        optimize_robust(
                            &db,
                            full,
                            SearchSpace::All,
                            Budget::unlimited(),
                            None,
                            threads,
                            entry,
                        )
                        .unwrap()
                    })
                    .collect();
                for p in &plans {
                    assert_eq!(p.report.answered_by, entry, "{kind} n={n}: {}", p.report);
                }
                for pair in plans.windows(2) {
                    assert_eq!(pair[0].plan.cost, pair[1].plan.cost, "{kind} n={n} {entry}");
                    assert_eq!(
                        pair[0].plan.strategy, pair[1].plan.strategy,
                        "{kind} n={n} {entry}: plans must be thread-invariant"
                    );
                }
            }
        }
    }
}

/// The pinned-entry plans really are the rungs' own: LinDp's pinned plan
/// costs what a direct `try_lindp` over the exact oracle costs.
#[test]
fn pinned_entry_matches_direct_rung_call() {
    let db = seeded_db(3, "chain", 9);
    let full = db.scheme().full_set();
    let r = optimize_robust(
        &db,
        full,
        SearchSpace::All,
        Budget::unlimited(),
        None,
        2,
        Rung::LinDp,
    )
    .unwrap();
    let mut oracle = ExactOracle::new(&db);
    let direct = try_lindp(&mut oracle, full, &Guard::unlimited())
        .unwrap()
        .expect("connected");
    assert_eq!(r.plan.cost, direct.cost);
    assert_eq!(r.plan.strategy, direct.strategy);
}
