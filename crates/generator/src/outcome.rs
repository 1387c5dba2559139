//! [`GenerateOutcome`] — the typed, serializable result of one
//! generation run, with structured per-phase [`Diagnostics`].

use marchgen_faults::TestPattern;
use marchgen_march::MarchTest;
use marchgen_sim::coverage::CoverageReport;

/// The result of running a [`GenerateRequest`](crate::GenerateRequest).
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateOutcome {
    /// The best March test found.
    pub test: MarchTest,
    /// The Test Pattern tour it was built from.
    pub tour: Vec<TestPattern>,
    /// `true` when the verifier confirmed full coverage of every
    /// requested model (always checked unless `verify_cells` is 0).
    pub verified: bool,
    /// Verifier coverage report (present when verification ran).
    pub report: Option<CoverageReport>,
    /// Operational non-redundancy (present when requested): no single
    /// operation can be deleted without losing coverage.
    pub non_redundant: Option<bool>,
    /// Structured per-phase statistics of the run.
    pub diagnostics: Diagnostics,
}

impl GenerateOutcome {
    /// The generated test's complexity (operations per cell).
    #[must_use]
    pub fn complexity(&self) -> usize {
        self.test.complexity()
    }
}

/// Per-phase statistics of a generation run: how much of the search
/// space was examined and where the time went.
///
/// Timings are integral microseconds so outcomes serialize losslessly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diagnostics {
    /// The ATSP solver backend the run resolved its
    /// [`SolverChoice`](marchgen_atsp::SolverChoice) to (the registry
    /// name: `"auto"`, `"held-karp"`, `"local-search"`, ...). Empty on
    /// documents predating the solver diagnostics.
    pub solver: String,
    /// Improving local-search moves applied across all TP-set solves
    /// (zero when only exact backends ran).
    pub solver_iterations: u64,
    /// Local-search perturbation restarts across all TP-set solves
    /// (zero when only exact backends ran).
    pub solver_restarts: u64,
    /// Equivalence-class combinations examined (the paper's `E`).
    pub combinations: usize,
    /// Distinct post-subsumption TP sets among them (the memoized
    /// ATSP instances actually solved).
    pub unique_tp_sets: usize,
    /// Optimal tours returned by the solver across all combinations.
    pub tours_tried: usize,
    /// March candidates successfully scheduled from tours, counted
    /// before deduplication (the same test built from two tours counts
    /// twice).
    pub candidates: usize,
    /// Complexities of the candidates in the order the verifier walks
    /// them: sorted ascending by complexity, then element count, with a
    /// candidate dropped when it equals its neighbour in that order
    /// (equal tests that do not end up adjacent are both kept). Stored
    /// run-length encoded; it serialises as a plain array.
    pub candidate_complexities: RunLengths,
    /// Time expanding the fault list into coverage requirements, µs.
    pub expand_micros: u64,
    /// Time enumerating combinations, solving tours and scheduling
    /// March candidates, µs.
    pub search_micros: u64,
    /// Time spent in the verifier (coverage, compaction, redundancy), µs.
    pub verify_micros: u64,
    /// Per-shard search times, µs: one entry per unique TP set, covering
    /// its solve plus the scheduling of its tours (the unit of parallel
    /// work the sharded search distributes across its workers), in
    /// deterministic first-seen order. The *length* is independent of
    /// the thread count; only the values vary run to run.
    pub shard_micros: Vec<u64>,
    /// The verification backend the run resolved its
    /// [`VerifierChoice`](crate::VerifierChoice) to (the trait name:
    /// `"simulator"` or `"widesim"`; documents written before the packed
    /// engines merged may also carry `"bitsim"`). Empty when
    /// verification was disabled (`verify_cells == 0`) or on documents
    /// predating the verifier diagnostics.
    pub verifier: String,
    /// Per-shard verify times, µs: one entry per verification shard of
    /// each coverage sweep the pipeline ran (candidate screening plus
    /// the final or fallback re-verify), in deterministic shard-plan
    /// order. The shard plan depends only on the fault list and memory
    /// size, so the *length* is independent of the thread count; only
    /// the values vary run to run. Shards run concurrently, so the sum
    /// can exceed the wall-clock `verify_micros`. Empty on documents
    /// predating the sharded verifier.
    pub verify_shard_micros: Vec<u64>,
    /// `true` when this outcome was replayed from a content-addressed
    /// cache (`marchgen-cache`) rather than computed by the pipeline.
    /// Freshly computed outcomes always carry `false`; the cache
    /// re-stamps the flag on every hit. Excluded (with the timings) from
    /// byte-comparability claims: two outcomes for the same request are
    /// equal modulo `Diagnostics`.
    pub cache_hit: bool,
}

/// A sequence of `usize` stored run-length encoded, for the long,
/// sorted, few-valued sequences the diagnostics carry: thousands of
/// candidate complexities take a handful of runs. Build one with
/// `.collect()`; equality is equality of the expanded sequences.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunLengths {
    /// `(value, count)` pairs; neighbours differ in value and every
    /// count is non-zero, so equal sequences have equal runs.
    runs: Vec<(usize, usize)>,
}

impl RunLengths {
    /// Number of values in the expanded sequence.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(_, count)| count).sum()
    }

    /// `true` when the sequence has no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The expanded sequence, in order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs
            .iter()
            .flat_map(|&(value, count)| std::iter::repeat_n(value, count))
    }
}

impl FromIterator<usize> for RunLengths {
    fn from_iter<I: IntoIterator<Item = usize>>(values: I) -> RunLengths {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for value in values {
            match runs.last_mut() {
                Some((last, count)) if *last == value => *count += 1,
                _ => runs.push((value, 1)),
            }
        }
        RunLengths { runs }
    }
}

impl Diagnostics {
    /// Total accounted time across all phases, µs.
    #[must_use]
    pub fn total_micros(&self) -> u64 {
        self.expand_micros + self.search_micros + self.verify_micros
    }
}

#[cfg(test)]
mod tests {
    use super::RunLengths;

    #[test]
    fn run_lengths_agree_with_the_expanded_vec() {
        let cases: [&[usize]; 5] = [&[], &[4], &[6, 6, 6, 7, 7, 9], &[9, 4, 9, 9, 4], &[0; 1000]];
        for values in cases {
            let runs: RunLengths = values.iter().copied().collect();
            assert_eq!(runs.len(), values.len());
            assert_eq!(runs.is_empty(), values.is_empty());
            assert_eq!(runs.iter().collect::<Vec<_>>(), values);
            for other in cases {
                let other_runs: RunLengths = other.iter().copied().collect();
                assert_eq!(
                    runs == other_runs,
                    values == other,
                    "{values:?} vs {other:?}"
                );
            }
        }
    }
}
