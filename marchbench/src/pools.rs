//! The benchmark's inputs: fixed universes of generation problems
//! (`pools/*.tsv`, built by the `mkpools` binary) and the seeded draws
//! that turn them into one run's request sequence.
//!
//! Every universe line carries the complexity the generator produced
//! when the universe was built. The runner holds every returned test to
//! that number, so a change that loses optimality shows up as a failed
//! check instead of a quietly different `mean_complexity`.

use marchgen::faults::{parse_fault_list, FaultModel};
use marchgen::json::Json;

/// The paper's Table 3 rows with their published complexities (`k` of
/// a `k·n` test). They are always part of the `warm_hits` hot set.
pub const TABLE3: [(&str, usize); 6] = [
    ("SAF", 4),
    ("SAF, TF", 5),
    ("SAF, TF, ADF", 6),
    ("SAF, TF, ADF, CFin", 6),
    ("SAF, TF, ADF, CFin, CFid", 10),
    ("CFid<u,1>, CFid<d,1>", 5),
];

/// Request `max_combinations` the daemon defaults to. Every universe
/// entry enumerates fewer combinations than this, so any cap at or
/// above it leaves the computation unchanged.
pub const DEFAULT_MAX_COMBINATIONS: usize = 4096;

/// One generation problem and the complexity its optimal test has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The fault models, in the order the request lists them.
    pub faults: Vec<FaultModel>,
    /// The request's `verify_cells`.
    pub cells: usize,
    /// Expected March complexity of the returned test.
    pub complexity: usize,
}

impl Entry {
    /// The request document the benchmark sends for this entry. `pass`
    /// is how many times the run has already gone through its universe:
    /// pass 0 leaves `max_combinations` at its default, later passes
    /// raise it by `pass`. That keeps every request of a run a distinct
    /// cache key while the work stays the same (the cap exceeds every
    /// entry's combination count).
    #[must_use]
    pub fn request_json(&self, pass: usize) -> Json {
        let mut pairs = vec![
            (
                "faults",
                Json::array(self.faults.iter().map(|m| Json::Str(m.name()))),
            ),
            ("verify_cells", Json::from(self.cells)),
        ];
        if pass > 0 {
            pairs.push((
                "max_combinations",
                Json::from(DEFAULT_MAX_COMBINATIONS + pass),
            ));
        }
        Json::object(pairs)
    }

    /// One universe line: `cells<TAB>complexity<TAB>faults`.
    #[must_use]
    pub fn to_line(&self) -> String {
        let names: Vec<String> = self.faults.iter().map(FaultModel::name).collect();
        format!("{}\t{}\t{}", self.cells, self.complexity, names.join(", "))
    }
}

/// Parses a universe file; `#` lines are comments.
///
/// # Errors
///
/// A description of the first malformed line.
pub fn parse_universe(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.splitn(3, '\t').collect();
        let bad = |what: &str| format!("line {}: {what}: {line:?}", number + 1);
        let [cells, complexity, faults] = fields[..] else {
            return Err(bad("want three tab-separated fields"));
        };
        entries.push(Entry {
            cells: cells.parse().map_err(|_| bad("bad cell count"))?,
            complexity: complexity.parse().map_err(|_| bad("bad complexity"))?,
            faults: parse_fault_list(faults).map_err(|e| bad(&e.to_string()))?,
        });
    }
    Ok(entries)
}

/// The three universes, compiled into the runner.
pub mod universe {
    /// Search-heavy fault lists at the default 4 cells.
    pub const COLD_SEARCH: &str = include_str!("../pools/cold_search.tsv");
    /// Pair and linked-fault lists at 8–16 cells.
    pub const COLD_VERIFY: &str = include_str!("../pools/cold_verify.tsv");
    /// Cheap lists that fill the warm hot set next to Table 3.
    pub const WARM: &str = include_str!("../pools/warm.tsv");
}

/// SplitMix64: a small, well-mixed generator, so that a seed fixes
/// every input of a run.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose sequence depends only on `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        // The modulo bias is below 2^-50 for the small bounds used here.
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An endless sequence of distinct requests over a universe: each pass
/// visits every entry once in a fresh seeded order, and the pass number
/// goes into the request (see [`Entry::request_json`]).
#[derive(Debug, Clone)]
pub struct ColdPool {
    universe: Vec<Entry>,
    order: Vec<usize>,
    next: usize,
    pass: usize,
    rng: SplitMix64,
}

impl ColdPool {
    /// A pool over `universe` whose order is fixed by `seed`.
    ///
    /// # Panics
    ///
    /// On an empty universe.
    #[must_use]
    pub fn new(universe: Vec<Entry>, seed: u64) -> ColdPool {
        assert!(!universe.is_empty(), "a pool needs at least one entry");
        let mut rng = SplitMix64::new(seed);
        let mut order: Vec<usize> = (0..universe.len()).collect();
        rng.shuffle(&mut order);
        ColdPool {
            universe,
            order,
            next: 0,
            pass: 0,
            rng,
        }
    }

    /// The next request: its universe entry and its pass number.
    pub fn draw(&mut self) -> (&Entry, usize) {
        if self.next == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.next = 0;
            self.pass += 1;
        }
        let index = self.order[self.next];
        self.next += 1;
        (&self.universe[index], self.pass)
    }
}

/// The `warm_hits` hot set: every Table 3 row, then the whole warm
/// universe. The set is the same for every seed, so the mix of
/// response sizes and complexities does not move between runs; the
/// seed orders the requests.
#[must_use]
pub fn hot_set(warm: &[Entry]) -> Vec<Entry> {
    let table3 = TABLE3.iter().map(|&(list, complexity)| Entry {
        faults: parse_fault_list(list).expect("Table 3 rows parse"),
        cells: 4,
        complexity,
    });
    table3.chain(warm.iter().cloned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen::cache::canonical_key_text;
    use marchgen::GenerateRequest;
    use std::collections::BTreeSet;

    fn toy_universe(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|k| Entry {
                faults: parse_fault_list("SAF").unwrap(),
                cells: 4 + k,
                complexity: 4,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed| {
            let mut pool = ColdPool::new(toy_universe(17), seed);
            (0..60)
                .map(|_| {
                    let (entry, pass) = pool.draw();
                    entry.request_json(pass).render()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn no_request_repeats_within_a_run() {
        let mut pool = ColdPool::new(toy_universe(13), 42);
        let mut seen = BTreeSet::new();
        for _ in 0..13 * 5 {
            let (entry, pass) = pool.draw();
            assert!(seen.insert(entry.request_json(pass).render()), "repeat");
        }
        // Each pass covers the whole universe before the next begins.
        let mut pool = ColdPool::new(toy_universe(13), 42);
        let first: BTreeSet<usize> = (0..13).map(|_| pool.draw().0.cells).collect();
        assert_eq!(first.len(), 13);
    }

    #[test]
    fn hot_set_holds_table3_then_the_warm_universe() {
        let warm = toy_universe(40);
        let hot = hot_set(&warm);
        assert_eq!(hot.len(), 46);
        assert_eq!(
            hot.iter().take(6).map(|e| e.complexity).collect::<Vec<_>>(),
            [4, 5, 6, 6, 10, 5]
        );
        assert_eq!(hot[6..], warm[..]);
    }

    #[test]
    fn universe_lines_round_trip() {
        let entry = Entry {
            faults: parse_fault_list("SAF, CFid<u,0>, CFst<1,0>").unwrap(),
            cells: 12,
            complexity: 9,
        };
        assert_eq!(parse_universe(&entry.to_line()).unwrap(), vec![entry]);
        assert!(parse_universe("4\tx\tSAF").is_err());
    }

    /// Distinct entries are distinct cache keys, so a cold pass is all
    /// misses and priming the hot set computes every entry once.
    #[test]
    fn shipped_universes_parse_without_duplicate_keys() {
        let warm = parse_universe(universe::WARM).unwrap();
        for entries in [
            parse_universe(universe::COLD_SEARCH).unwrap(),
            parse_universe(universe::COLD_VERIFY).unwrap(),
            hot_set(&warm),
        ] {
            let keys: BTreeSet<String> = entries
                .iter()
                .map(|e| {
                    let request = GenerateRequest::new(e.faults.clone()).with_verify_cells(e.cells);
                    canonical_key_text(&request)
                })
                .collect();
            assert_eq!(keys.len(), entries.len());
        }
    }
}
