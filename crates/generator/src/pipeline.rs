//! The end-to-end generation pipeline (paper Sections 4–6): fault list →
//! requirements → class combinations → TPG/ATSP tours → March
//! construction → simulator verification → minimal verified test.
//!
//! The engine is the free function [`generate`] (and its
//! dependency-injected variants [`generate_with_registry`] /
//! [`generate_with`]), which maps a typed [`GenerateRequest`] to a typed
//! [`GenerateOutcome`]. The historical [`Generator`] builder survives as
//! a thin compatibility shim over the request layer.

use crate::gts::Gts;
use crate::outcome::{Diagnostics, GenerateOutcome};
use crate::request::{GenerateRequest, VerifierChoice};
use crate::schedule::schedule_tour;
use marchgen_atsp::{AtspSolver, SolveStats, SolverChoice, SolverRegistry};
use marchgen_faults::{
    dedupe_subsumed, parse_fault_list, requirements_for, CoverageRequirement, FaultModel,
    ParseFaultError, TestPattern,
};
use marchgen_march::MarchTest;
use marchgen_sim::coverage::CoverageReport;
use marchgen_sim::{run_indexed, SimVerifier, Verifier, WideSimVerifier};
use marchgen_tpg::{plan_tour_with_stats, StartPolicy, Tpg};
use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Why generation failed outright (verification shortfalls are reported
/// in [`GenerateOutcome::verified`] instead, with the best candidate
/// attached).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The fault list expanded to no coverage requirement.
    EmptyFaultList,
    /// No tour could be scheduled into a consistent March test.
    NoCandidate,
    /// The request named an ATSP solver the registry does not know.
    UnknownSolver(String),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::EmptyFaultList => f.write_str("the fault list is empty"),
            GenerateError::NoCandidate => {
                f.write_str("no tour could be scheduled into a march test")
            }
            GenerateError::UnknownSolver(name) => {
                write!(f, "no ATSP solver registered under {name:?}")
            }
        }
    }
}

impl std::error::Error for GenerateError {}

/// Runs a request with the default solver registry and the built-in
/// simulator verifier — the standard entry point.
///
/// # Errors
///
/// [`GenerateError::EmptyFaultList`] for an empty expansion,
/// [`GenerateError::NoCandidate`] when no tour schedules (does not
/// happen for the built-in catalog), [`GenerateError::UnknownSolver`]
/// when the request names an unregistered solver.
pub fn generate(request: &GenerateRequest) -> Result<GenerateOutcome, GenerateError> {
    generate_with_registry(request, &SolverRegistry::default())
}

/// Runs a request resolving its [`SolverChoice`] against a caller
/// registry (custom strategies included), verifying with the built-in
/// simulator.
///
/// # Errors
///
/// As [`generate`].
pub fn generate_with_registry(
    request: &GenerateRequest,
    registry: &SolverRegistry,
) -> Result<GenerateOutcome, GenerateError> {
    let solver = registry
        .resolve(&request.solver)
        .map_err(|e| GenerateError::UnknownSolver(e.name))?;
    let verifier = verifier_for(request);
    generate_with(request, solver.as_ref(), verifier.as_deref())
}

/// Resolves the request's [`VerifierChoice`] into a concrete backend
/// (`None` when `verify_cells == 0` disables verification): `Auto` is
/// the packed [`WideSimVerifier`], which supports every model of the
/// extended taxonomy, dynamic and linked classes included, and picks
/// its lane width and whether to fan out per fault list; `Scalar` is
/// the one-scenario-at-a-time [`SimVerifier`].
#[must_use]
pub fn verifier_for(request: &GenerateRequest) -> Option<Box<dyn Verifier>> {
    if request.verify_cells == 0 {
        return None;
    }
    Some(match request.verifier {
        VerifierChoice::Scalar => Box::new(SimVerifier::new(request.verify_cells)),
        VerifierChoice::Auto => Box::new(WideSimVerifier::new(request.verify_cells)),
    })
}

/// The fully dependency-injected engine: explicit solver strategy and
/// optional verification backend. `None` for `verifier` skips
/// verification, compaction and the redundancy check, exactly like
/// `verify_cells == 0`.
///
/// # Errors
///
/// [`GenerateError::EmptyFaultList`] / [`GenerateError::NoCandidate`];
/// this variant cannot fail on solver resolution.
pub fn generate_with(
    request: &GenerateRequest,
    solver: &dyn AtspSolver,
    verifier: Option<&dyn Verifier>,
) -> Result<GenerateOutcome, GenerateError> {
    let mut diagnostics = Diagnostics {
        solver: solver.name().to_owned(),
        ..Diagnostics::default()
    };

    let expand_started = Instant::now();
    let requirements = requirements_for(&request.faults);
    diagnostics.expand_micros = as_micros(expand_started);
    if requirements.is_empty() {
        return Err(GenerateError::EmptyFaultList);
    }

    // Enumerate class combinations (paper §5: E = Π |Ci|), memoizing on
    // the post-subsumption TP set: choices that collapse to the same set
    // solve the same ATSP. The search is sharded: the mixed-radix
    // combination space is range-partitioned across workers for
    // enumeration, and the unique TP sets are then solved from a shared
    // work queue. Both passes collect results by index, so the outcome is
    // identical for every thread count (including 1, which runs inline).
    let search_started = Instant::now();
    let workers = search_workers(request);
    let limit = ClassCombinations::total(&requirements).min(request.max_combinations);
    diagnostics.combinations = limit;

    // Pass 1: enumerate combinations and collapse them to their
    // post-subsumption TP sets, keeping first-seen order.
    let tp_sets: Vec<Vec<TestPattern>> = {
        let shards = combination_shards(limit, workers);
        let per_shard = run_indexed(shards.len(), workers, |s| {
            let (lo, hi) = shards[s];
            ClassCombinations::range(&requirements, lo, hi)
                .map(|combo| {
                    let mut tps = dedupe_subsumed(&combo);
                    tps.sort();
                    tps
                })
                .collect::<Vec<_>>()
        });
        let mut seen: BTreeMap<Vec<TestPattern>, ()> = BTreeMap::new();
        let mut unique = Vec::new();
        for tps in per_shard.into_iter().flatten() {
            if seen.insert(tps.clone(), ()).is_none() {
                unique.push(tps);
            }
        }
        unique
    };
    diagnostics.unique_tp_sets = tp_sets.len();

    // Pass 2: plan tours and schedule March candidates per unique TP
    // set, fanned out across the workers.
    let solved = run_indexed(tp_sets.len(), workers, |k| {
        let shard_started = Instant::now();
        let tps = &tp_sets[k];
        let tpg = Tpg::new(tps.clone());
        let mut tours_tried = 0usize;
        let mut candidates: Vec<(MarchTest, Vec<TestPattern>)> = Vec::new();
        let (plans, solve_stats) =
            plan_tour_with_stats(&tpg, request.start_policy, request.tour_cap, solver);
        for plan in plans {
            tours_tried += 1;
            let tour: Vec<TestPattern> = plan.order.iter().map(|&i| tps[i]).collect();
            if let Ok(test) = schedule_tour(&tour) {
                if test.check_consistency().is_ok() {
                    candidates.push((test, tour));
                }
            }
        }
        (
            candidates,
            tours_tried,
            solve_stats,
            as_micros(shard_started),
        )
    });
    let mut candidates: Vec<(MarchTest, Vec<TestPattern>)> = Vec::new();
    let mut solver_stats = SolveStats::default();
    for (shard_candidates, tours_tried, solve_stats, micros) in solved {
        diagnostics.tours_tried += tours_tried;
        diagnostics.candidates += shard_candidates.len();
        diagnostics.shard_micros.push(micros);
        solver_stats.absorb(solve_stats);
        candidates.extend(shard_candidates);
    }
    diagnostics.solver_iterations = solver_stats.iterations;
    diagnostics.solver_restarts = solver_stats.restarts;
    if candidates.is_empty() {
        diagnostics.search_micros = as_micros(search_started);
        return Err(GenerateError::NoCandidate);
    }

    // Shortest first; deduplicate identical tests.
    candidates.sort_by_cached_key(|(t, _)| (t.complexity(), t.element_count()));
    candidates.dedup_by(|a, b| a.0 == b.0);
    diagnostics.candidate_complexities = candidates.iter().map(|(t, _)| t.complexity()).collect();
    diagnostics.search_micros = as_micros(search_started);

    let Some(verifier) = verifier else {
        let (test, tour) = candidates.swap_remove(0);
        return Ok(GenerateOutcome {
            test,
            tour,
            verified: false,
            report: None,
            non_redundant: None,
            diagnostics,
        });
    };

    // Every coverage sweep fans out through `verify_sharded`, reusing
    // the search worker budget; per-shard timings accumulate in
    // `verify_shard_micros` (shard counts are data-defined, so the
    // vector's length is thread-count-invariant).
    diagnostics.verifier = verifier.name().to_owned();
    let verify_started = Instant::now();
    let mut fallback: Option<(MarchTest, Vec<TestPattern>)> = None;
    for (test, tour) in &candidates {
        let run = verifier.verify_sharded(test, &request.faults, workers);
        diagnostics.verify_shard_micros.extend(run.shard_micros);
        if run.report.complete() {
            let final_test = if request.compact {
                verifier.compact(test, &request.faults).into_owned()
            } else {
                test.clone()
            };
            let run = verifier.verify_sharded(&final_test, &request.faults, workers);
            diagnostics.verify_shard_micros.extend(run.shard_micros);
            let non_redundant = if request.compact || request.check_redundancy {
                Some(verifier.is_non_redundant(&final_test, &request.faults))
            } else {
                None
            };
            diagnostics.verify_micros = as_micros(verify_started);
            return Ok(GenerateOutcome {
                test: final_test,
                tour: tour.clone(),
                verified: true,
                report: Some(run.report),
                non_redundant,
                diagnostics,
            });
        }
        if fallback.is_none() {
            fallback = Some((test.clone(), tour.clone()));
        }
    }

    // No candidate verified — report the best one honestly.
    let (test, tour) = fallback.expect("candidates non-empty");
    let run = verifier.verify_sharded(&test, &request.faults, workers);
    diagnostics.verify_shard_micros.extend(run.shard_micros);
    diagnostics.verify_micros = as_micros(verify_started);
    Ok(GenerateOutcome {
        test,
        tour,
        verified: false,
        report: Some(run.report),
        non_redundant: None,
        diagnostics,
    })
}

fn as_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Effective worker count for the in-request sharded search.
fn search_workers(request: &GenerateRequest) -> usize {
    match request.search_threads {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        t => t,
    }
}

/// Contiguous `[lo, hi)` index ranges covering `0..limit`, one per
/// worker (empty trailing shards are dropped).
fn combination_shards(limit: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.clamp(1, limit.max(1));
    let chunk = limit.div_ceil(workers).max(1);
    (0..workers)
        .map(|w| ((w * chunk).min(limit), ((w + 1) * chunk).min(limit)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// The result of a [`Generator`] run (compatibility shape; new code
/// should prefer [`GenerateOutcome`]).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The best March test found.
    pub test: MarchTest,
    /// The tour it was built from.
    pub tour: Vec<TestPattern>,
    /// The tour's Global Test Sequence (paper §4 intermediate).
    pub gts: Gts,
    /// `true` when the fault simulator confirmed full coverage of every
    /// requested model (always checked unless `verify_cells` is 0).
    pub verified: bool,
    /// Simulator coverage report (present when verification ran).
    pub report: Option<CoverageReport>,
    /// Operational non-redundancy (present when requested): no single
    /// operation can be deleted without losing coverage.
    pub non_redundant: Option<bool>,
    /// March candidates constructed across tours/combinations, counted
    /// before deduplication.
    pub candidates: usize,
    /// Equivalence-class combinations examined (the paper's `E`).
    pub combinations: usize,
}

impl From<GenerateOutcome> for Outcome {
    fn from(outcome: GenerateOutcome) -> Outcome {
        Outcome {
            gts: Gts::from_tour(&outcome.tour),
            test: outcome.test,
            tour: outcome.tour,
            verified: outcome.verified,
            report: outcome.report,
            non_redundant: outcome.non_redundant,
            candidates: outcome.diagnostics.candidates,
            combinations: outcome.diagnostics.combinations,
        }
    }
}

/// The configurable generation pipeline — a builder-style compatibility
/// shim over [`GenerateRequest`] + [`generate`].
///
/// ```
/// use marchgen_generator::Generator;
///
/// let outcome = Generator::from_fault_list("SAF, TF").unwrap().run().unwrap();
/// assert_eq!(outcome.test.complexity(), 5); // Table 3 row 2: MATS+ class
/// ```
#[derive(Debug, Clone)]
pub struct Generator {
    request: GenerateRequest,
}

impl Generator {
    /// A generator for the given fault models with the paper's default
    /// configuration (uniform-start constraint f.4.4, all-optimal-tour
    /// enumeration, simulator verification on a 4-cell memory,
    /// minimization to non-redundancy).
    #[must_use]
    pub fn new(models: Vec<FaultModel>) -> Generator {
        Generator {
            request: GenerateRequest::new(models),
        }
    }

    /// Parses a textual fault list (see
    /// [`parse_fault_list`](marchgen_faults::parse_fault_list)).
    ///
    /// # Errors
    ///
    /// Returns the parse error of the first invalid token.
    pub fn from_fault_list(list: &str) -> Result<Generator, ParseFaultError> {
        Ok(Generator::new(parse_fault_list(list)?))
    }

    /// Wraps an existing request in the builder interface.
    #[must_use]
    pub fn from_request(request: GenerateRequest) -> Generator {
        Generator { request }
    }

    /// Overrides the f.4.4 start policy (ablation hook).
    #[must_use]
    pub fn start_policy(mut self, policy: StartPolicy) -> Generator {
        self.request.start_policy = policy;
        self
    }

    /// Selects the ATSP solver strategy.
    #[must_use]
    pub fn solver(mut self, solver: SolverChoice) -> Generator {
        self.request.solver = solver;
        self
    }

    /// Caps the number of optimal tours tried per combination.
    #[must_use]
    pub fn tour_cap(mut self, cap: usize) -> Generator {
        self.request = self.request.with_tour_cap(cap);
        self
    }

    /// Memory size for simulator verification; `0` disables verification
    /// (and compaction).
    #[must_use]
    pub fn verify_cells(mut self, n: usize) -> Generator {
        self.request.verify_cells = n;
        self
    }

    /// Enables/disables the simulator-guided minimization pass (Table 2's
    /// role; on by default).
    #[must_use]
    pub fn compact(mut self, on: bool) -> Generator {
        self.request.compact = on;
        self
    }

    /// Also run the operation-deletion non-redundancy check on the final
    /// test (off by default; it is implied `true` when compaction ran).
    #[must_use]
    pub fn check_redundancy(mut self, on: bool) -> Generator {
        self.request.check_redundancy = on;
        self
    }

    /// Selects the verification backend (auto / scalar).
    #[must_use]
    pub fn verifier(mut self, verifier: VerifierChoice) -> Generator {
        self.request.verifier = verifier;
        self
    }

    /// Worker threads for the sharded candidate search (`0` = one per
    /// available CPU). Never changes the outcome, only the wall-clock.
    #[must_use]
    pub fn search_threads(mut self, threads: usize) -> Generator {
        self.request.search_threads = threads;
        self
    }

    /// The fault models targeted.
    #[must_use]
    pub fn models(&self) -> &[FaultModel] {
        &self.request.faults
    }

    /// The underlying typed request.
    #[must_use]
    pub fn request(&self) -> &GenerateRequest {
        &self.request
    }

    /// Consumes the builder into its typed request.
    #[must_use]
    pub fn into_request(self) -> GenerateRequest {
        self.request
    }

    /// Runs the pipeline.
    ///
    /// # Errors
    ///
    /// [`GenerateError::EmptyFaultList`] for an empty expansion,
    /// [`GenerateError::NoCandidate`] when no tour schedules (does not
    /// happen for the built-in catalog).
    pub fn run(&self) -> Result<Outcome, GenerateError> {
        generate(&self.request).map(Outcome::from)
    }
}

/// Iterator over the cartesian product of requirement alternatives —
/// the paper's class combination space, `E = Π |Cᵢ|` entries.
///
/// The counter is a **mixed-radix integer** (last requirement advances
/// fastest), so any contiguous index range `[lo, hi)` of the enumeration
/// can be produced independently via [`ClassCombinations::range`] — the
/// primitive the sharded search uses to partition the space across
/// worker threads without coordination.
pub struct ClassCombinations<'a> {
    requirements: &'a [CoverageRequirement],
    indices: Vec<usize>,
    remaining: usize,
}

impl<'a> ClassCombinations<'a> {
    /// The full enumeration, in mixed-radix order.
    #[must_use]
    pub fn new(requirements: &'a [CoverageRequirement]) -> ClassCombinations<'a> {
        ClassCombinations::range(requirements, 0, ClassCombinations::total(requirements))
    }

    /// The number of combinations `E = Π |Cᵢ|` (saturating; `0` for an
    /// empty requirement list, matching the empty enumeration).
    #[must_use]
    pub fn total(requirements: &[CoverageRequirement]) -> usize {
        if requirements.is_empty() {
            return 0;
        }
        requirements
            .iter()
            .map(|r| r.alternatives.len())
            .fold(1usize, usize::saturating_mul)
    }

    /// The combinations with linear indices in `[lo, hi)` (clamped to
    /// the enumeration size). Concatenating adjacent ranges reproduces
    /// the full enumeration exactly.
    #[must_use]
    pub fn range(
        requirements: &'a [CoverageRequirement],
        lo: usize,
        hi: usize,
    ) -> ClassCombinations<'a> {
        let total = ClassCombinations::total(requirements);
        let lo = lo.min(total);
        let hi = hi.min(total);
        // Decode `lo` into mixed-radix digits, last digit fastest.
        let mut indices = vec![0usize; requirements.len()];
        let mut rest = lo;
        for (pos, requirement) in requirements.iter().enumerate().rev() {
            let radix = requirement.alternatives.len();
            indices[pos] = rest % radix;
            rest /= radix;
        }
        ClassCombinations {
            requirements,
            indices,
            remaining: hi.saturating_sub(lo),
        }
    }
}

impl Iterator for ClassCombinations<'_> {
    type Item = Vec<TestPattern>;

    fn next(&mut self) -> Option<Vec<TestPattern>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let combo: Vec<TestPattern> = self
            .requirements
            .iter()
            .zip(&self.indices)
            .map(|(r, &k)| r.alternatives[k])
            .collect();
        // Advance the mixed-radix counter.
        let mut pos = self.indices.len();
        loop {
            if pos == 0 {
                break;
            }
            pos -= 1;
            self.indices[pos] += 1;
            if self.indices[pos] < self.requirements[pos].alternatives.len() {
                break;
            }
            self.indices[pos] = 0;
        }
        Some(combo)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ClassCombinations<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_count_is_product_of_cardinalities() {
        let reqs = requirements_for(&parse_fault_list("CFin<u>").unwrap());
        // two classes of two alternatives → E = 4 (paper §5)
        let combos: Vec<_> = ClassCombinations::new(&reqs).collect();
        assert_eq!(combos.len(), 4);
        assert_eq!(ClassCombinations::total(&reqs), 4);
    }

    #[test]
    fn range_partitions_reproduce_full_enumeration() {
        let reqs = requirements_for(&parse_fault_list("SAF, TF, CFin, CFid").unwrap());
        let total = ClassCombinations::total(&reqs);
        assert!(total > 8, "want a non-trivial space, got {total}");
        let full: Vec<_> = ClassCombinations::new(&reqs).collect();
        assert_eq!(full.len(), total);
        for parts in [1usize, 2, 3, 7, total, total + 5] {
            let chunk = total.div_ceil(parts).max(1);
            let mut stitched = Vec::new();
            let mut lo = 0;
            while lo < total {
                let hi = (lo + chunk).min(total);
                stitched.extend(ClassCombinations::range(&reqs, lo, hi));
                lo = hi;
            }
            assert_eq!(stitched, full, "{parts} partitions");
        }
        // Out-of-range and empty windows are empty, not wrong.
        assert_eq!(ClassCombinations::range(&reqs, total, total + 9).count(), 0);
        assert_eq!(ClassCombinations::range(&reqs, 3, 3).count(), 0);
    }

    #[test]
    fn combination_shards_cover_the_space() {
        for (limit, workers) in [(1usize, 8usize), (10, 3), (4096, 8), (7, 1), (64, 64)] {
            let shards = combination_shards(limit, workers);
            assert_eq!(shards[0].0, 0);
            assert_eq!(shards.last().unwrap().1, limit);
            for pair in shards.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "contiguous shards");
            }
        }
    }

    /// The sharded search is deterministic: 1, 2 and 8 workers produce
    /// identical outcomes (modulo wall-clock timings).
    #[test]
    fn sharded_search_is_deterministic() {
        for faults in ["SAF, TF, ADF, CFin", "CFid<u,1>, CFid<d,1>"] {
            let base = GenerateRequest::from_fault_list(faults)
                .unwrap()
                .with_check_redundancy(true);
            let mut outcomes: Vec<GenerateOutcome> = [1usize, 2, 8]
                .iter()
                .map(|&t| generate(&base.clone().with_search_threads(t)).unwrap())
                .collect();
            for o in &mut outcomes {
                o.diagnostics.expand_micros = 0;
                o.diagnostics.search_micros = 0;
                o.diagnostics.verify_micros = 0;
                o.diagnostics.shard_micros = vec![0; o.diagnostics.shard_micros.len()];
                o.diagnostics.verify_shard_micros =
                    vec![0; o.diagnostics.verify_shard_micros.len()];
            }
            assert_eq!(outcomes[0], outcomes[1], "{faults}: 1 vs 2 threads");
            assert_eq!(outcomes[0], outcomes[2], "{faults}: 1 vs 8 threads");
        }
    }

    /// `Auto` resolves to the packed backend for every list, and an
    /// explicit `Scalar` is honored.
    #[test]
    fn verifier_resolution_rules() {
        for faults in [
            "SAF",
            "SAF, TF",
            "RDF, DRDF, IRF",
            "dRDF, dDRDF, dIRF",
            "dRDF<0>",
            "LCF",
            "LCF<1>",
            "SAF, dRDF, LCF",
            "SAF, CFin",
            "CFin, CFid, CFst",
        ] {
            for cells in [2usize, 4, 8] {
                let request = GenerateRequest::from_fault_list(faults)
                    .unwrap()
                    .with_verify_cells(cells);
                assert_eq!(verifier_for(&request).unwrap().name(), "widesim");
                assert_eq!(
                    verifier_for(&request.clone().with_verifier(VerifierChoice::Scalar))
                        .unwrap()
                        .name(),
                    "simulator"
                );
                assert!(verifier_for(&request.with_verify_cells(0)).is_none());
            }
        }
    }

    /// Both verification backends produce the same outcome on the paper
    /// workloads (end-to-end pipeline agreement).
    #[test]
    fn verifier_backends_agree_end_to_end() {
        for faults in ["SAF, TF", "CFid<u,0>, CFid<u,1>", "SAF, TF, ADF, CFin"] {
            let base = GenerateRequest::from_fault_list(faults)
                .unwrap()
                .with_check_redundancy(true);
            let scalar = generate(&base.clone().with_verifier(VerifierChoice::Scalar)).unwrap();
            let packed = generate(&base).unwrap();
            assert_eq!(scalar.test, packed.test, "{faults}");
            assert_eq!(scalar.report, packed.report, "{faults}");
            assert_eq!(scalar.non_redundant, packed.non_redundant, "{faults}");
            assert_eq!(scalar.verified, packed.verified, "{faults}");
        }
    }

    /// The resolved backend and per-shard verify timings land in the
    /// diagnostics; inline (single-threaded) shard times sum to at most
    /// the verify phase's wall clock.
    #[test]
    fn verify_shard_diagnostics_are_recorded() {
        let request = GenerateRequest::from_fault_list("SAF, CFin")
            .unwrap()
            .with_search_threads(1);
        let out = generate(&request).unwrap();
        let d = &out.diagnostics;
        assert_eq!(d.verifier, "widesim");
        assert!(!d.verify_shard_micros.is_empty());
        // One plan's worth of shards per coverage sweep the pipeline ran.
        let plan_len =
            marchgen_sim::widesim::shard_plan(&request.faults, request.verify_cells).len();
        assert_eq!(d.verify_shard_micros.len() % plan_len, 0);
        // Inline shards nest inside the verify phase: Σ shards ≤ wall
        // clock (strictly concurrent runs could exceed it).
        let total: u64 = d.verify_shard_micros.iter().sum();
        assert!(
            total <= d.verify_micros,
            "Σ verify_shard_micros {total} > verify_micros {}",
            d.verify_micros
        );
        // Verification disabled → no backend, no shards.
        let off = generate(&request.with_verify_cells(0)).unwrap();
        assert_eq!(off.diagnostics.verifier, "");
        assert!(off.diagnostics.verify_shard_micros.is_empty());
    }

    #[test]
    fn empty_fault_list_rejected() {
        let err = Generator::new(Vec::new()).run().unwrap_err();
        assert_eq!(err, GenerateError::EmptyFaultList);
    }

    #[test]
    fn unknown_solver_rejected() {
        let request = GenerateRequest::from_fault_list("SAF")
            .unwrap()
            .with_solver(SolverChoice::Custom("bogus".into()));
        let err = generate(&request).unwrap_err();
        assert_eq!(err, GenerateError::UnknownSolver("bogus".into()));
    }

    /// Table 3 row 1: SAF → 4n, verified and non-redundant.
    #[test]
    fn table3_row1_saf() {
        let out = Generator::from_fault_list("SAF").unwrap().run().unwrap();
        assert!(out.verified, "coverage report: {:?}", out.report);
        assert_eq!(out.test.complexity(), 4, "{}", out.test);
        assert_eq!(out.non_redundant, Some(true));
    }

    /// Table 3 row 2: SAF + TF → 5n (MATS+ class).
    #[test]
    fn table3_row2_saf_tf() {
        let out = Generator::from_fault_list("SAF, TF")
            .unwrap()
            .run()
            .unwrap();
        assert!(out.verified);
        assert_eq!(out.test.complexity(), 5, "{}", out.test);
    }

    /// The §4 example fault list: 8n.
    #[test]
    fn section4_example_8n() {
        let out = Generator::from_fault_list("CFid<u,0>, CFid<u,1>")
            .unwrap()
            .run()
            .unwrap();
        assert!(out.verified);
        assert_eq!(out.test.complexity(), 8, "{}", out.test);
    }

    /// Table 3 row 6: {CFid<↑,1>, CFid<↓,1>} → 5n.
    #[test]
    fn table3_row6_cfid_pair() {
        let out = Generator::from_fault_list("CFid<u,1>, CFid<d,1>")
            .unwrap()
            .run()
            .unwrap();
        assert!(out.verified);
        assert_eq!(out.test.complexity(), 5, "{}", out.test);
    }

    /// The dynamic workload space: every two-operation fault family
    /// generates a verified test (the back-to-back w,r sequence survives
    /// scheduling, March execution and both simulators).
    #[test]
    fn dynamic_fault_lists_generate_verified_tests() {
        for faults in ["dRDF", "dDRDF<1>", "dIRF", "dRDF, dDRDF, dIRF"] {
            let out = Generator::from_fault_list(faults).unwrap().run().unwrap();
            assert!(out.verified, "{faults}: {:?}", out.report);
        }
    }

    /// Linked idempotent coupling generates a verified test end-to-end.
    #[test]
    fn linked_fault_list_generates_verified_test() {
        let out = Generator::from_fault_list("LCF").unwrap().run().unwrap();
        assert!(out.verified, "{:?}", out.report);
    }

    /// Mixed classical + dynamic + linked workloads verify identically on
    /// the scalar and packed backends.
    #[test]
    fn extended_workload_backends_agree() {
        for faults in ["SAF, dRDF, dIRF", "TF, LCF<1>", "SAF, TF, dDRDF, LCF"] {
            let base = GenerateRequest::from_fault_list(faults).unwrap();
            let scalar = generate(&base.clone().with_verifier(VerifierChoice::Scalar)).unwrap();
            let packed = generate(&base).unwrap();
            assert_eq!(scalar.test, packed.test, "{faults}");
            assert_eq!(scalar.report, packed.report, "{faults}");
            assert!(scalar.verified, "{faults}: {:?}", scalar.report);
        }
    }

    #[test]
    fn unverified_mode_still_returns_a_candidate() {
        let out = Generator::from_fault_list("SAF")
            .unwrap()
            .verify_cells(0)
            .run()
            .unwrap();
        assert!(!out.verified);
        assert!(out.report.is_none());
        assert_eq!(out.test.complexity(), 4);
    }

    /// All exact solver choices agree on the Table 3 workloads.
    #[test]
    fn exact_solver_choices_agree() {
        for faults in ["SAF", "SAF, TF", "CFid<u,0>, CFid<u,1>"] {
            let baseline = generate(&GenerateRequest::from_fault_list(faults).unwrap())
                .unwrap()
                .complexity();
            for choice in [SolverChoice::HeldKarp, SolverChoice::BranchBound] {
                let request = GenerateRequest::from_fault_list(faults)
                    .unwrap()
                    .with_solver(choice.clone());
                let out = generate(&request).unwrap();
                assert!(out.verified, "{faults} with {choice}");
                assert_eq!(out.complexity(), baseline, "{faults} with {choice}");
            }
        }
    }

    /// The local-search backend generates verified tests end-to-end and
    /// surfaces its work in the diagnostics.
    #[test]
    fn local_search_choice_generates_and_reports() {
        let request = GenerateRequest::from_fault_list("CFid<u,0>, CFid<u,1>")
            .unwrap()
            .with_solver(SolverChoice::LocalSearch);
        let out = generate(&request).unwrap();
        assert!(out.verified, "local-search outcome verifies");
        assert_eq!(out.diagnostics.solver, "local-search");
        assert!(
            out.diagnostics.solver_restarts > 0,
            "the TPG here is large enough for the restart phase"
        );
        // The exact baseline: same complexity on this catalog workload.
        let exact =
            generate(&GenerateRequest::from_fault_list("CFid<u,0>, CFid<u,1>").unwrap()).unwrap();
        assert_eq!(out.complexity(), exact.complexity());
        assert_eq!(exact.diagnostics.solver, "auto");
        assert_eq!(
            exact.diagnostics.solver_iterations, 0,
            "exact path is search-free"
        );
    }

    /// Diagnostics account for the search the engine performed.
    #[test]
    fn diagnostics_are_populated() {
        let out = generate(&GenerateRequest::from_fault_list("SAF, TF").unwrap()).unwrap();
        let d = &out.diagnostics;
        assert_eq!(d.solver, "auto");
        assert!(d.combinations > 0);
        assert!(d.unique_tp_sets > 0);
        assert!(d.unique_tp_sets <= d.combinations);
        assert!(d.tours_tried > 0);
        assert!(d.candidates > 0);
        assert!(!d.candidate_complexities.is_empty());
        let complexities: Vec<usize> = d.candidate_complexities.iter().collect();
        assert!(complexities.is_sorted());
        assert_eq!(complexities[0], out.complexity());
    }

    /// The builder shim and the request layer produce identical results.
    #[test]
    fn shim_matches_engine() {
        let generator = Generator::from_fault_list("SAF, TF")
            .unwrap()
            .check_redundancy(true);
        let via_shim = generator.run().unwrap();
        let via_engine = generate(generator.request()).unwrap();
        assert_eq!(via_shim.test, via_engine.test);
        assert_eq!(via_shim.tour, via_engine.tour);
        assert_eq!(via_shim.verified, via_engine.verified);
        assert_eq!(via_shim.non_redundant, via_engine.non_redundant);
        assert_eq!(via_shim.candidates, via_engine.diagnostics.candidates);
        assert_eq!(via_shim.combinations, via_engine.diagnostics.combinations);
    }
}
