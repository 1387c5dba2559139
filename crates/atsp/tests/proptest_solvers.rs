//! Property tests for the ATSP solvers: exactness, agreement and
//! invariances across random instances (deterministic `marchgen-testkit`
//! harness).

use marchgen_atsp::{
    branch_bound, brute, held_karp, heuristics, hungarian, local_search, AtspInstance, Tour, INF,
};
use marchgen_testkit::{run_cases, Rng};

fn random_instance(rng: &mut Rng, max_n: usize) -> AtspInstance {
    let n = rng.range(2, max_n + 1);
    let costs: Vec<u64> = (0..n * n).map(|_| rng.next_u64() % 100).collect();
    AtspInstance::from_fn(n, |i, j| costs[i * n + j])
}

/// An instance shaped like the pipeline's: `n - 1` pattern nodes with
/// arc weights 0–2 and a dummy start node whose out-arcs are an
/// initialisation cost or forbidden and whose in-arcs are free. Many
/// tours tie for the optimum.
fn tpg_shaped_instance(rng: &mut Rng, max_n: usize) -> AtspInstance {
    let n = rng.range(2, max_n + 1);
    let dummy = n - 1;
    let open = rng.range(0, dummy);
    let costs: Vec<u64> = (0..n * n)
        .map(|k| match (k / n == dummy, k % n == dummy) {
            (true, _) if k % n != open && rng.flip() => INF,
            (false, true) => 0,
            _ => rng.range(0, 3) as u64,
        })
        .collect();
    AtspInstance::from_fn(n, |i, j| costs[i * n + j])
}

fn sorted_orders(tours: &[Tour]) -> Vec<Vec<usize>> {
    let mut orders: Vec<Vec<usize>> = tours.iter().map(|t| t.order.clone()).collect();
    orders.sort();
    orders
}

/// The all-optimal enumeration returns exactly the brute-force
/// oracle's set of optimal tours, on TPG-shaped instances (forbidden
/// dummy arcs, many co-optima) and on random ones.
#[test]
fn held_karp_enumerates_exactly_the_optimal_tours() {
    run_cases(
        "held_karp_enumerates_exactly_the_optimal_tours",
        64,
        |rng| {
            let inst = if rng.flip() {
                tpg_shaped_instance(rng, 8)
            } else {
                random_instance(rng, 8)
            };
            let all = held_karp::solve_all(&inst, usize::MAX);
            assert_eq!(
                sorted_orders(&all),
                sorted_orders(&brute::solve_all(&inst)),
                "{inst}"
            );
        },
    );
}

/// A capped enumeration is a prefix of the uncapped one.
#[test]
fn capped_enumeration_is_a_prefix() {
    run_cases("capped_enumeration_is_a_prefix", 64, |rng| {
        let inst = tpg_shaped_instance(rng, 8);
        let all = held_karp::solve_all(&inst, usize::MAX);
        let cap = rng.range(1, all.len() + 2);
        let capped = held_karp::solve_all(&inst, cap);
        assert_eq!(capped[..], all[..cap.min(all.len())], "cap {cap}\n{inst}");
    });
}

/// Held–Karp equals brute force on small instances.
#[test]
fn held_karp_is_exact() {
    run_cases("held_karp_is_exact", 64, |rng| {
        let inst = random_instance(rng, 7);
        let hk = held_karp::solve(&inst);
        let bf = brute::solve(&inst);
        assert_eq!(hk.cost, bf.cost);
        assert!(inst.is_valid_tour(&hk.order));
        assert_eq!(inst.cycle_cost(&hk.order), hk.cost);
    });
}

/// Branch-and-bound equals Held–Karp on mid-size instances.
#[test]
fn branch_bound_is_exact() {
    run_cases("branch_bound_is_exact", 64, |rng| {
        let inst = random_instance(rng, 9);
        let bb = branch_bound::solve(&inst);
        let hk = held_karp::solve(&inst);
        assert_eq!(bb.cost, hk.cost);
        assert!(inst.is_valid_tour(&bb.order));
    });
}

/// The assignment relaxation never exceeds the optimal tour cost.
#[test]
fn hungarian_is_a_lower_bound() {
    run_cases("hungarian_is_a_lower_bound", 64, |rng| {
        let inst = random_instance(rng, 8);
        let lb = hungarian::lower_bound(&inst);
        let opt = held_karp::solve(&inst).cost;
        assert!(lb <= opt, "AP bound {lb} > optimum {opt}");
    });
}

/// Heuristics return valid tours and never beat the optimum.
#[test]
fn heuristics_are_feasible() {
    run_cases("heuristics_are_feasible", 64, |rng| {
        let inst = random_instance(rng, 9);
        let h = heuristics::construct(&inst);
        assert!(inst.is_valid_tour(&h.order));
        let opt = held_karp::solve(&inst).cost;
        assert!(h.cost >= opt);
    });
}

/// The local search returns valid tours whose cost is **never below the
/// exact optimum** — the cross-check oracle for the inexact backend.
#[test]
fn local_search_never_beats_the_exact_optimum() {
    run_cases("local_search_never_beats_the_exact_optimum", 48, |rng| {
        let inst = random_instance(rng, 10);
        let ls = local_search::solve(&inst);
        assert!(inst.is_valid_tour(&ls.order));
        assert_eq!(inst.cycle_cost(&ls.order), ls.cost);
        let opt = held_karp::solve(&inst).cost;
        assert!(
            ls.cost >= opt,
            "local search {0} below optimum {opt}",
            ls.cost
        );
    });
}

/// The local search never loses to the one-shot construction heuristics
/// it seeds from, and is deterministic per instance.
#[test]
fn local_search_dominates_construction_and_is_deterministic() {
    run_cases("local_search_dominates_construction", 32, |rng| {
        let inst = random_instance(rng, 14);
        let (a, stats_a) = local_search::solve_with_stats(&inst, &local_search::Config::default());
        let (b, stats_b) = local_search::solve_with_stats(&inst, &local_search::Config::default());
        assert_eq!(a, b, "same instance, same tour");
        assert_eq!(stats_a, stats_b);
        let h = heuristics::construct(&inst);
        assert!(a.cost <= h.cost);
    });
}

/// Every enumerated optimal tour really is optimal, and the plain solve
/// is among them cost-wise.
#[test]
fn all_optimal_enumeration_is_sound() {
    run_cases("all_optimal_enumeration_is_sound", 64, |rng| {
        let inst = random_instance(rng, 7);
        let opt = held_karp::solve(&inst).cost;
        let all = held_karp::solve_all(&inst, 256);
        assert!(!all.is_empty());
        for t in &all {
            assert_eq!(t.cost, opt);
            assert!(inst.is_valid_tour(&t.order));
        }
        // Enumerated tours are pairwise distinct.
        let mut orders: Vec<&Vec<usize>> = all.iter().map(|t| &t.order).collect();
        orders.sort();
        orders.dedup();
        assert_eq!(orders.len(), all.len());
    });
}

/// Adding a constant to every arc shifts the optimum by n·constant and
/// preserves an optimal order.
#[test]
fn optimal_order_invariant_under_cost_shift() {
    run_cases("optimal_order_invariant_under_cost_shift", 64, |rng| {
        let inst = random_instance(rng, 7);
        let shift = 1 + rng.next_u64() % 49;
        let base = held_karp::solve(&inst);
        let n = inst.len();
        let shifted_inst = AtspInstance::from_fn(n, |i, j| inst.cost(i, j) + shift);
        let shifted = held_karp::solve(&shifted_inst);
        assert_eq!(shifted.cost, base.cost + shift * n as u64);
    });
}
