//! Brute-force ATSP by permutation enumeration — the test oracle for the
//! real solvers (and the embodiment of the paper's f.4.2 observation that
//! the GTS space has `V!` members).

use crate::instance::{AtspInstance, Tour};
use std::cmp::Ordering;

/// Exhaustively finds one optimal tour.
///
/// # Panics
///
/// Panics if the instance has more than 10 nodes (the oracle is for
/// tests; `10! = 3.6M` permutations is the sensible ceiling).
#[must_use]
pub fn solve(instance: &AtspInstance) -> Tour {
    let mut best: Option<Tour> = None;
    for_each_tour(instance, |t| {
        if best.as_ref().is_none_or(|b| t.cost < b.cost) {
            best = Some(t);
        }
    });
    best.expect("instances are non-empty")
}

/// Exhaustively finds **every** optimal tour, in permutation-visit
/// order: the oracle for [`held_karp::solve_all`](crate::held_karp::solve_all).
///
/// # Panics
///
/// Panics if the instance has more than 10 nodes.
#[must_use]
pub fn solve_all(instance: &AtspInstance) -> Vec<Tour> {
    let mut best: Vec<Tour> = Vec::new();
    for_each_tour(instance, |t| {
        match best.first().map(|b| t.cost.cmp(&b.cost)) {
            Some(Ordering::Greater) => {}
            Some(Ordering::Equal) => best.push(t),
            _ => best = vec![t],
        }
    });
    best
}

/// Number of distinct Hamiltonian cycles through `n` labelled nodes when
/// the start is fixed: `(n-1)!` — the paper's `#GTS = V!` counts directed
/// *sequences*, i.e. `V!` open orderings.
#[must_use]
pub fn tour_count(n: usize) -> u64 {
    if n <= 1 {
        return 1;
    }
    (1..n as u64).product()
}

/// Number of Global Test Sequences over `v` test patterns (paper f.4.2):
/// every permutation of the TPG nodes is a candidate GTS, so `v!`.
#[must_use]
pub fn gts_count(v: usize) -> u64 {
    (1..=v as u64).product()
}

/// Visits every tour that starts at node 0, in permutation order.
fn for_each_tour(instance: &AtspInstance, mut visit: impl FnMut(Tour)) {
    assert!(instance.len() <= 10, "brute force is capped at 10 nodes");
    let n = instance.len();
    let mut rest: Vec<usize> = (1..n).collect();
    permute(&mut rest, 0, &mut |perm| {
        let mut order = Vec::with_capacity(n);
        order.push(0);
        order.extend_from_slice(perm);
        visit(Tour::new(instance, order));
    });
}

fn permute(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_node_cycle() {
        let inst = AtspInstance::from_rows(vec![vec![0, 1, 9], vec![9, 0, 1], vec![1, 9, 0]]);
        let t = solve(&inst);
        assert_eq!(t.cost, 3);
        assert_eq!(t.order, vec![0, 1, 2]);
    }

    #[test]
    fn solve_all_keeps_every_co_optimum() {
        // All arcs equal: every one of the (n-1)! tours is optimal.
        let inst = AtspInstance::from_fn(5, |_, _| 2);
        let all = solve_all(&inst);
        assert_eq!(all.len() as u64, tour_count(5));
        assert!(all.iter().all(|t| t.cost == 10));
        // A unique optimum stays unique, and agrees with `solve`.
        let inst = AtspInstance::from_rows(vec![vec![0, 1, 9], vec![9, 0, 1], vec![1, 9, 0]]);
        assert_eq!(solve_all(&inst), vec![solve(&inst)]);
    }

    #[test]
    fn f42_gts_counts() {
        // Paper f.4.2: #GTS = V!.
        assert_eq!(gts_count(4), 24);
        assert_eq!(gts_count(6), 720);
        assert_eq!(gts_count(0), 1);
    }

    #[test]
    fn fixed_start_tour_counts() {
        assert_eq!(tour_count(4), 6);
        assert_eq!(tour_count(1), 1);
    }

    #[test]
    fn asymmetric_costs_matter() {
        // Cheap one way, expensive the other: brute force must pick the
        // cheap orientation.
        let inst = AtspInstance::from_rows(vec![
            vec![0, 1, 100, 1],
            vec![100, 0, 1, 100],
            vec![1, 100, 0, 1],
            vec![1, 1, 100, 0],
        ]);
        let t = solve(&inst);
        assert_eq!(t.cost, 4); // 0→1→2→3→0, each arc cost 1
        assert_eq!(t.order, vec![0, 1, 2, 3]);
    }
}
