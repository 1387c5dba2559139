//! The [`Verifier`] extension trait: the pluggable oracle seam between
//! the generation pipeline and the fault simulator of paper Section 6.
//!
//! The pipeline only ever asks three questions — "does this test cover
//! the fault list?", "can it be compacted?", "is it non-redundant?" —
//! so alternative backends (a parallel simulator, a SAT-based checker,
//! a hardware-in-the-loop harness) can replace the built-in behavioural
//! simulator by implementing this trait. Two backends ship in-tree:
//!
//! * [`SimVerifier`] — the scalar behavioural simulator (one scenario at
//!   a time), the reference oracle, and
//! * [`WideSimVerifier`] — the packed sweep of [`crate::widesim`]
//!   (`[u64; W]` lane blocks, 64–512 scenario lanes per word),
//!   exact-agreement verified against the scalar backend, which also
//!   implements real sharded verification: [`Verifier::verify_sharded`]
//!   fans the deterministic [`crate::widesim::shard_plan`] across scoped
//!   worker threads and reports per-shard timings.

use crate::coverage::{coverage_report, CoverageReport};
use crate::engine::FaultSite;
use crate::pool::run_indexed;
use crate::{redundancy, widesim};
use marchgen_faults::FaultModel;
use marchgen_march::MarchTest;
use std::borrow::Cow;
use std::time::Instant;

/// The result of a (possibly sharded) verification sweep: the coverage
/// report plus per-shard wall-clock timings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyRun {
    /// Full per-model coverage, identical to what [`Verifier::verify`]
    /// returns for the same inputs — sharding never changes verdicts.
    pub report: CoverageReport,
    /// Wall-clock microseconds per verification shard, in shard-plan
    /// order. Backends without real sharding report a single entry
    /// covering the whole sweep. Shards run concurrently, so the sum can
    /// exceed the phase's wall-clock time.
    pub shard_micros: Vec<u64>,
}

/// A verification backend for generated March tests.
///
/// Implementations must be `Send + Sync`: the batch service layer shares
/// one verifier across worker threads.
pub trait Verifier: Send + Sync {
    /// A short stable identifier for reports and diagnostics.
    fn name(&self) -> &str;

    /// Full per-model coverage of `test` over the fault list.
    fn verify(&self, test: &MarchTest, models: &[FaultModel]) -> CoverageReport;

    /// A minimal sub-test that still covers the fault list (the paper's
    /// Table 2 minimization role). The default returns the test borrowed
    /// and unchanged (no compaction capability) — implementations should
    /// likewise return [`Cow::Borrowed`] when nothing was deleted, so
    /// the already-minimal common case never clones the test.
    fn compact<'a>(&self, test: &'a MarchTest, models: &[FaultModel]) -> Cow<'a, MarchTest> {
        let _ = models;
        Cow::Borrowed(test)
    }

    /// `true` when no single operation can be deleted from `test`
    /// without losing coverage. The default is a conservative `false`
    /// (capability not implemented).
    fn is_non_redundant(&self, test: &MarchTest, models: &[FaultModel]) -> bool {
        let _ = (test, models);
        false
    }

    /// [`Verifier::verify`] with the sweep partitioned across up to
    /// `workers` threads, reporting per-shard timings. The report must
    /// be identical to the unsharded [`Verifier::verify`] at any worker
    /// count, and the shard *count* must depend only on the inputs
    /// (never on `workers`) so diagnostics stay deterministic. The
    /// default runs the whole sweep as one timed shard — backends
    /// without internal parallelism need nothing more.
    fn verify_sharded(&self, test: &MarchTest, models: &[FaultModel], workers: usize) -> VerifyRun {
        let _ = workers;
        let start = Instant::now();
        let report = self.verify(test, models);
        VerifyRun {
            report,
            shard_micros: vec![elapsed_micros(start)],
        }
    }
}

/// Saturating whole-microsecond reading of a started clock.
fn elapsed_micros(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The built-in scalar behavioural fault simulator (paper §6) on an
/// `n`-cell memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimVerifier {
    /// Memory size the sweeps run on. Four cells suffice for the
    /// classical two-cell fault models; larger memories cost
    /// quadratically more on coupling faults.
    pub cells: usize,
}

impl SimVerifier {
    /// A simulator-backed verifier on `cells` memory cells.
    #[must_use]
    pub fn new(cells: usize) -> SimVerifier {
        SimVerifier { cells }
    }
}

impl Default for SimVerifier {
    /// The pipeline's default: a 4-cell memory.
    fn default() -> SimVerifier {
        SimVerifier { cells: 4 }
    }
}

impl Verifier for SimVerifier {
    fn name(&self) -> &str {
        "simulator"
    }

    fn verify(&self, test: &MarchTest, models: &[FaultModel]) -> CoverageReport {
        coverage_report(test, models, self.cells)
    }

    fn compact<'a>(&self, test: &'a MarchTest, models: &[FaultModel]) -> Cow<'a, MarchTest> {
        redundancy::compact(test, models, self.cells)
    }

    fn is_non_redundant(&self, test: &MarchTest, models: &[FaultModel]) -> bool {
        redundancy::is_non_redundant(test, models, self.cells)
    }
}

/// The packed fault simulator of [`crate::widesim`]: `[u64; W]` lane
/// blocks (W ∈ {1, 2, 4, 8} picked by scenario count) carrying 64–512
/// scenario lanes per memory word.
///
/// Produces bit-identical [`CoverageReport`]s, compactions and
/// non-redundancy verdicts to [`SimVerifier`] (enforced by the
/// differential suite at every width). Unlike the scalar backend it
/// implements *real* sharded verification: [`Verifier::verify_sharded`]
/// fans the deterministic [`widesim::shard_plan`] across scoped worker
/// threads, merging shard verdicts in plan order so the report is
/// byte-identical at any worker count. When no model sweeps more than
/// 64 lanes (one W = 1 word) the shards are too small to pay for a
/// thread fan-out, so they run inline on the calling thread — same
/// shard count, each shard still timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideSimVerifier {
    /// Memory size the sweeps run on.
    pub cells: usize,
}

impl WideSimVerifier {
    /// A packed verifier on `cells` memory cells.
    #[must_use]
    pub fn new(cells: usize) -> WideSimVerifier {
        WideSimVerifier { cells }
    }
}

impl Default for WideSimVerifier {
    /// The pipeline's default: a 4-cell memory.
    fn default() -> WideSimVerifier {
        WideSimVerifier { cells: 4 }
    }
}

impl Verifier for WideSimVerifier {
    fn name(&self) -> &str {
        "widesim"
    }

    fn verify(&self, test: &MarchTest, models: &[FaultModel]) -> CoverageReport {
        widesim::coverage_report(test, models, self.cells)
    }

    fn compact<'a>(&self, test: &'a MarchTest, models: &[FaultModel]) -> Cow<'a, MarchTest> {
        let site_lists = widesim::enumerate_sites(models, self.cells);
        redundancy::compact_with(test, &|cand| {
            widesim::covers_all_sites(cand, &site_lists, self.cells)
        })
    }

    fn is_non_redundant(&self, test: &MarchTest, models: &[FaultModel]) -> bool {
        let site_lists = widesim::enumerate_sites(models, self.cells);
        redundancy::is_non_redundant_with(test, &|cand| {
            widesim::covers_all_sites(cand, &site_lists, self.cells)
        })
    }

    fn verify_sharded(&self, test: &MarchTest, models: &[FaultModel], workers: usize) -> VerifyRun {
        let n = self.cells;
        let site_lists: Vec<Vec<FaultSite>> =
            models.iter().map(|&m| FaultSite::enumerate(m, n)).collect();
        let plan = widesim::shard_plan(models, n);
        let workers = if plan.iter().all(|shard| shard.lanes <= 64) {
            1
        } else {
            workers
        };
        let results = run_indexed(plan.len(), workers, |k| {
            let shard = &plan[k];
            let start = Instant::now();
            let verdicts = widesim::site_verdicts(
                test,
                models[shard.model_index],
                n,
                &site_lists[shard.model_index][shard.sites.clone()],
            );
            (verdicts, elapsed_micros(start))
        });
        // Shards of one model are contiguous ascending site ranges, so
        // concatenating their verdicts in plan order reproduces the
        // unsharded enumeration exactly.
        let mut per_model: Vec<Vec<bool>> = vec![Vec::new(); models.len()];
        let mut shard_micros = Vec::with_capacity(plan.len());
        for (shard, (verdicts, micros)) in plan.iter().zip(results) {
            per_model[shard.model_index].extend(verdicts);
            shard_micros.push(micros);
        }
        let report = CoverageReport {
            models: models
                .iter()
                .enumerate()
                .map(|(i, &m)| widesim::coverage_from_verdicts(m, &site_lists[i], &per_model[i]))
                .collect(),
            memory_size: n,
        };
        VerifyRun {
            report,
            shard_micros,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen_faults::parse_fault_list;
    use marchgen_march::known;

    #[test]
    fn sim_verifier_matches_free_functions() {
        let models = parse_fault_list("SAF, TF").unwrap();
        let test = known::march_c_minus();
        let verifier = SimVerifier::new(4);
        let direct = coverage_report(&test, &models, 4);
        assert_eq!(verifier.verify(&test, &models), direct);
        assert!(verifier.is_non_redundant(&verifier.compact(&test, &models), &models));
    }

    #[test]
    fn trait_object_usable() {
        let verifier: Box<dyn Verifier> = Box::new(SimVerifier::default());
        let models = parse_fault_list("SAF").unwrap();
        let report = verifier.verify(&known::mats(), &models);
        assert!(report.complete());
        assert_eq!(verifier.name(), "simulator");
    }

    #[test]
    fn widesim_verifier_matches_scalar_backend() {
        let models = parse_fault_list("SAF, TF, CFin, CFid, CFst").unwrap();
        let test = known::march_c_minus();
        let scalar = SimVerifier::new(4);
        let wide = WideSimVerifier::new(4);
        assert_eq!(wide.verify(&test, &models), scalar.verify(&test, &models));
        assert_eq!(
            *wide.compact(&test, &models),
            *scalar.compact(&test, &models)
        );
        assert_eq!(
            wide.is_non_redundant(&test, &models),
            scalar.is_non_redundant(&test, &models)
        );
        assert_eq!(wide.name(), "widesim");
    }

    #[test]
    fn default_verify_sharded_is_one_timed_shard() {
        let models = parse_fault_list("SAF, TF").unwrap();
        let test = known::march_c_minus();
        let verifier = SimVerifier::new(4);
        let run = verifier.verify_sharded(&test, &models, 4);
        assert_eq!(run.report, verifier.verify(&test, &models));
        assert_eq!(run.shard_micros.len(), 1);
    }

    #[test]
    fn sharded_wide_verify_is_worker_invariant() {
        let wide = WideSimVerifier::new(6);
        for list in ["SAF, TF, ADF", "CFin, CFid, CFst", "dRDF, LCF", "SOF, DRF"] {
            let models = parse_fault_list(list).unwrap();
            for test in [known::march_c_minus(), known::mats(), known::march_g()] {
                let unsharded = wide.verify(&test, &models);
                let plan_len = crate::widesim::shard_plan(&models, 6).len();
                let mut runs = Vec::new();
                for workers in [1usize, 2, 8] {
                    let run = wide.verify_sharded(&test, &models, workers);
                    assert_eq!(run.report, unsharded, "{list} at {workers} workers");
                    assert_eq!(run.shard_micros.len(), plan_len, "{list}: shard count");
                    runs.push(run.report);
                }
                assert!(runs.windows(2).all(|w| w[0] == w[1]));
            }
        }
    }

    /// Lists of at most 64 lanes per model run their shard plan inline:
    /// the report and the shard count are the same at 1 and 8 workers.
    #[test]
    fn narrow_lists_shard_inline_with_the_same_report() {
        let wide = WideSimVerifier::new(4);
        for list in ["SAF", "SAF, TF", "SAF, TF, RDF, IRF", "dRDF, dDRDF, dIRF"] {
            let models = parse_fault_list(list).unwrap();
            let plan = crate::widesim::shard_plan(&models, 4);
            assert!(plan.iter().all(|shard| shard.lanes <= 64), "{list}");
            for test in [known::march_c_minus(), known::mats()] {
                let serial = wide.verify_sharded(&test, &models, 1);
                let fanned = wide.verify_sharded(&test, &models, 8);
                assert_eq!(serial.report, wide.verify(&test, &models), "{list}");
                assert_eq!(fanned.report, serial.report, "{list}");
                assert_eq!(serial.shard_micros.len(), plan.len(), "{list}");
                assert_eq!(fanned.shard_micros.len(), plan.len(), "{list}");
            }
        }
    }

    #[test]
    fn default_capabilities_are_conservative() {
        struct CoverageOnly;
        impl Verifier for CoverageOnly {
            fn name(&self) -> &str {
                "coverage-only"
            }
            fn verify(&self, test: &MarchTest, models: &[FaultModel]) -> CoverageReport {
                coverage_report(test, models, 3)
            }
        }
        let v = CoverageOnly;
        let models = parse_fault_list("SAF").unwrap();
        let test = known::mats();
        let compacted = v.compact(&test, &models);
        assert!(matches!(compacted, Cow::Borrowed(_)));
        assert_eq!(*compacted, test);
        assert!(!v.is_non_redundant(&test, &models));
    }
}
