//! The Held–Karp dynamic program: exact ATSP in `O(2ⁿ n²)` time and
//! `O(2ⁿ n)` space, plus enumeration of **all** optimal tours.
//!
//! The generator uses the enumeration to de-risk the paper's
//! "GTS length ≈ March complexity" proxy: every minimum-weight tour is
//! converted to a March test and the shortest result wins.
//!
//! # Enumeration order
//!
//! [`solve_all`] returns the optimal tours in one fixed order, and the
//! generator's candidate order (and so its outcome under a tour cap)
//! depends on it. The order is a depth-first walk of the DP table from
//! the end of the tour back to node 0: the node before the closing arc
//! is tried from the highest index down, and at each step back every
//! optimal predecessor is again tried from the highest index down. A
//! tour is emitted when the walk reaches node 0. `cap` keeps the first
//! `cap` tours of this order, so a capped result is always a prefix of
//! the uncapped one.

use crate::instance::{add_cost, AtspInstance, Tour, INF};

/// Practical node ceiling for the DP (`2²⁰ × 20 × 8` bytes ≈ 168 MiB is
/// past reasonable; 18 keeps the table under 20 MiB).
pub const MAX_NODES: usize = 18;

/// Exact solution by dynamic programming.
///
/// # Panics
///
/// Panics if the instance exceeds [`MAX_NODES`].
#[must_use]
pub fn solve(instance: &AtspInstance) -> Tour {
    let table = DpTable::build(instance);
    Tour::new(instance, table.one_optimal_order())
}

/// All optimal tours, capped at `cap` results (the cap guards pathological
/// all-equal-cost instances; `cap = 0` means "just one"), in the order
/// the [module docs](self#enumeration-order) define.
///
/// # Panics
///
/// Panics if the instance exceeds [`MAX_NODES`].
#[must_use]
pub fn solve_all(instance: &AtspInstance, cap: usize) -> Vec<Tour> {
    let table = DpTable::build(instance);
    table
        .all_optimal_orders(cap.max(1))
        .into_iter()
        .map(|order| Tour::new(instance, order))
        .collect()
}

struct DpTable<'a> {
    n: usize,
    /// The instance's row-major cost matrix: `cost[from * n + to]`.
    cost: &'a [u64],
    /// `dp[(mask >> 1) * n + last]`: cheapest path starting at node 0,
    /// visiting exactly the nodes of `mask`, ending at `last`. Every
    /// path contains node 0, so only odd masks have rows. Entries are
    /// either finite or exactly [`INF`] (unreachable).
    dp: Vec<u64>,
    best_cost: u64,
}

impl<'a> DpTable<'a> {
    fn build(instance: &'a AtspInstance) -> DpTable<'a> {
        let n = instance.len();
        assert!(
            n <= MAX_NODES,
            "Held-Karp capped at {MAX_NODES} nodes, got {n}"
        );
        let cost = instance.matrix();
        if n == 1 {
            return DpTable {
                n,
                cost,
                dp: vec![0],
                best_cost: 0,
            };
        }
        // Pull form: each entry extends the cheapest path over `mask`
        // without `last` by one arc; the ascending walk over the odd
        // masks has filled that smaller row already. Unreachable
        // predecessors sum to at least INF, so an entry no finite path
        // reaches stays exactly INF.
        let full = (1usize << n) - 1;
        let mut dp = vec![INF; (1 << (n - 1)) * n];
        dp[0] = 0; // at node 0, only 0 visited
        for mask in (3..=full).step_by(2) {
            let row = (mask >> 1) * n;
            for last in bits(mask & !1) {
                let without = mask & !(1 << last);
                let from = &dp[(without >> 1) * n..][..n];
                dp[row + last] = bits(without)
                    .map(|prev| add_cost(from[prev], cost[prev * n + last]))
                    .fold(INF, u64::min);
            }
        }
        let mut table = DpTable {
            n,
            cost,
            dp,
            best_cost: INF,
        };
        table.best_cost = (1..n)
            .map(|last| table.closing_cost(last))
            .min()
            .expect("n > 1");
        table
    }

    /// `dp` entry for the path over `mask` ending at `last`.
    fn at(&self, mask: usize, last: usize) -> u64 {
        self.dp[(mask >> 1) * self.n + last]
    }

    /// Cost of the cheapest tour whose last node before returning to 0
    /// is `last`.
    fn closing_cost(&self, last: usize) -> u64 {
        let full = (1usize << self.n) - 1;
        add_cost(self.at(full, last), self.cost[last * self.n])
    }

    /// Whether `prev` ends an optimal path over `without` that extends
    /// by the arc `prev → last` to a path of cost `target`.
    fn is_optimal_prev(&self, without: usize, prev: usize, last: usize, target: u64) -> bool {
        add_cost(self.at(without, prev), self.cost[prev * self.n + last]) == target
    }

    fn one_optimal_order(&self) -> Vec<usize> {
        if self.n == 1 {
            return vec![0];
        }
        let mut last = (1..self.n)
            .min_by_key(|&l| self.closing_cost(l))
            .expect("n > 1");
        let mut order = vec![last];
        let mut mask = (1usize << self.n) - 1;
        while last != 0 {
            let without = mask & !(1 << last);
            let target = self.at(mask, last);
            let prev = bits(without)
                .find(|&p| self.is_optimal_prev(without, p, last, target))
                .expect("dp table is consistent");
            order.push(prev);
            mask = without;
            last = prev;
        }
        order.reverse();
        order
    }

    /// Every optimal tour up to `cap`, in the documented order: a
    /// depth-first walk over one path buffer, filled from the back.
    fn all_optimal_orders(&self, cap: usize) -> Vec<Vec<usize>> {
        if self.n == 1 {
            return vec![vec![0]];
        }
        let mut results = Vec::new();
        if self.best_cost >= INF {
            return results; // every tour uses a forbidden arc
        }
        let full = (1usize << self.n) - 1;
        let mut path = vec![0; self.n];
        for last in (1..self.n).rev() {
            if results.len() >= cap {
                break;
            }
            if self.closing_cost(last) == self.best_cost {
                self.walk(full, last, &mut path, cap, &mut results);
            }
        }
        results
    }

    /// Places `last` at the back of the unfilled part of `path` (the
    /// path over `mask` has `popcount(mask)` nodes) and recurses into
    /// every optimal predecessor, highest index first.
    fn walk(
        &self,
        mask: usize,
        last: usize,
        path: &mut [usize],
        cap: usize,
        results: &mut Vec<Vec<usize>>,
    ) {
        path[mask.count_ones() as usize - 1] = last;
        if last == 0 {
            results.push(path.to_vec());
            return;
        }
        let without = mask & !(1 << last);
        let target = self.at(mask, last);
        for prev in bits_descending(without) {
            if results.len() >= cap {
                return;
            }
            if self.is_optimal_prev(without, prev, last, target) {
                self.walk(without, prev, path, cap, results);
            }
        }
    }
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// The set bits of `mask`, highest first.
fn bits_descending(mut mask: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = usize::BITS as usize - 1 - mask.leading_zeros() as usize;
            mask &= !(1 << bit);
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;

    /// xorshift-based deterministic matrix with weights below `modulus`.
    fn pseudo_random_instance(n: usize, seed: u64, modulus: u64) -> AtspInstance {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        AtspInstance::from_fn(n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % modulus
        })
    }

    fn sorted_orders(tours: &[Tour]) -> Vec<Vec<usize>> {
        let mut orders: Vec<Vec<usize>> = tours.iter().map(|t| t.order.clone()).collect();
        orders.sort();
        orders
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        for n in 2..=7 {
            for seed in 0..8 {
                let inst = pseudo_random_instance(n, seed * 31 + n as u64, 100);
                let hk = solve(&inst);
                let bf = brute::solve(&inst);
                assert_eq!(hk.cost, bf.cost, "n={n} seed={seed}\n{inst}");
                assert_eq!(inst.cycle_cost(&hk.order), hk.cost);
            }
        }
    }

    #[test]
    fn single_node() {
        let inst = AtspInstance::from_fn(1, |_, _| 0);
        let t = solve(&inst);
        assert_eq!(t.order, vec![0]);
        assert_eq!(t.cost, 0);
    }

    #[test]
    fn two_nodes() {
        let inst = AtspInstance::from_rows(vec![vec![0, 3], vec![4, 0]]);
        let t = solve(&inst);
        assert_eq!(t.cost, 7);
    }

    #[test]
    fn all_optimal_enumerates_every_minimum() {
        // A symmetric 4-cycle of equal costs has several optimal tours.
        let inst = AtspInstance::from_fn(4, |_, _| 5);
        let all = solve_all(&inst, 64);
        assert_eq!(all.len(), 6, "3! tours, all optimal");
        assert!(all.iter().all(|t| t.cost == 20));
        // Tours are distinct.
        let mut orders: Vec<Vec<usize>> = all.iter().map(|t| t.order.clone()).collect();
        orders.sort();
        orders.dedup();
        assert_eq!(orders.len(), 6);
    }

    #[test]
    fn all_optimal_respects_cap() {
        let inst = AtspInstance::from_fn(6, |_, _| 1);
        let all = solve_all(&inst, 10);
        assert_eq!(all.len(), 10);
    }

    /// The enumeration returns every optimal tour and nothing else.
    /// Weights below 3 give many co-optima, weights below 100 few.
    #[test]
    fn all_optimal_agrees_with_brute_on_random() {
        for n in 2..=8 {
            for (seed, modulus) in (0..6).flat_map(|seed| [(seed, 3), (seed, 100)]) {
                let inst = pseudo_random_instance(n, seed + 100, modulus);
                let all = solve_all(&inst, usize::MAX);
                let oracle = brute::solve_all(&inst);
                assert_eq!(
                    sorted_orders(&all),
                    sorted_orders(&oracle),
                    "n={n} seed={seed} modulus={modulus}\n{inst}"
                );
                assert!(all.iter().all(|t| t.cost == oracle[0].cost));
            }
        }
    }

    /// Regression: with near-`u64::MAX` weights the old saturating DP
    /// pinned every completion at the max, so tours through a different
    /// number of extreme arcs compared *equal* and the "optimal" pick
    /// was arbitrary. Clamped arcs + checked accumulation keep the
    /// order exact: the unique cheap cycle must win.
    #[test]
    fn near_max_weights_resolve_to_the_true_optimum() {
        let huge = u64::MAX - 17;
        // Cheap Hamiltonian cycle 0→1→2→3→0 of cost 4; every other arc
        // is an extreme weight (clamping makes them forbidden).
        let inst = AtspInstance::from_fn(4, |i, j| if (i + 1) % 4 == j { 1 } else { huge });
        let t = solve(&inst);
        assert_eq!(t.order, vec![0, 1, 2, 3]);
        assert_eq!(t.cost, 4);
        assert!(t.is_finite());
        // A mixed instance — extreme arcs present, cheap tour hidden —
        // must agree with the brute-force oracle exactly.
        let inst = AtspInstance::from_rows(vec![
            vec![0, huge, 3, 9],
            vec![2, 0, huge, 4],
            vec![7, 1, 0, huge],
            vec![huge, 8, 5, 0],
        ]);
        let t = solve(&inst);
        let bf = brute::solve(&inst);
        assert_eq!(t.cost, bf.cost);
        assert!(t.is_finite(), "the clamped arcs are routed around");
        assert_eq!(inst.cycle_cost(&t.order), t.cost);
    }

    #[test]
    fn forbidden_arcs_are_avoided_when_possible() {
        // 0→1 forbidden; optimal must route 0→2→1→0.
        let inst = AtspInstance::from_rows(vec![vec![0, INF, 1], vec![1, 0, INF], vec![INF, 1, 0]]);
        let t = solve(&inst);
        assert_eq!(t.order, vec![0, 2, 1]);
        assert_eq!(t.cost, 3);
    }
}
