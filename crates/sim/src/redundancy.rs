//! Operation-deletion redundancy analysis: the operational counterpart of
//! the paper's set-covering check. A March test is *operationally
//! non-redundant* w.r.t. a fault list when no single operation can be
//! removed (keeping the test well-formed) without losing coverage.
//!
//! A simulator-guided compactor built on the same primitive is exposed as
//! [`compact`]: it is **not** part of the paper's flow (the generated
//! tests are already minimal) but serves as an independent check that the
//! generator's outputs cannot be shortened.
//!
//! Every analysis also comes in a `_with` variant taking the coverage
//! oracle as a closure, so alternative verification backends (notably the
//! packed [`widesim`](crate::widesim) sweep) reuse the deletion
//! machinery unchanged.

use crate::engine::{detects, FaultSite};
use marchgen_faults::FaultModel;
use marchgen_march::{MarchElement, MarchTest};
use std::borrow::Cow;

/// Every well-formed test obtained by deleting exactly one operation
/// (empty elements are dropped; read-inconsistent candidates are
/// skipped). Returned with the flat per-cell index of the deleted op.
#[must_use]
pub fn single_deletions(test: &MarchTest) -> Vec<(usize, MarchTest)> {
    let mut out = Vec::new();
    let mut flat = 0usize;
    for (ei, element) in test.elements().iter().enumerate() {
        for oi in 0..element.ops.len() {
            let mut elements: Vec<MarchElement> = test.elements().to_vec();
            elements[ei].ops.remove(oi);
            if elements[ei].ops.is_empty() {
                elements.remove(ei);
            }
            let candidate = MarchTest::new(elements);
            if candidate.check_consistency().is_ok() {
                out.push((flat + oi, candidate));
            }
        }
        flat += element.ops.len();
    }
    out
}

/// The fault sites of every listed model, enumerated once — hoisting
/// this out of the per-candidate loop is what keeps the deletion sweeps
/// allocation-free on the hot path.
fn all_sites(models: &[FaultModel], n: usize) -> Vec<FaultSite> {
    models
        .iter()
        .flat_map(|&m| FaultSite::enumerate(m, n))
        .collect()
}

/// [`redundant_ops`] with a caller-provided coverage oracle.
#[must_use]
pub fn redundant_ops_with(test: &MarchTest, covers: &dyn Fn(&MarchTest) -> bool) -> Vec<usize> {
    single_deletions(test)
        .into_iter()
        .filter(|(_, cand)| covers(cand))
        .map(|(idx, _)| idx)
        .collect()
}

/// The per-cell indices of operations whose deletion keeps full coverage
/// — an empty result is the non-redundancy verdict.
#[must_use]
pub fn redundant_ops(test: &MarchTest, models: &[FaultModel], n: usize) -> Vec<usize> {
    let sites = all_sites(models, n);
    redundant_ops_with(test, &|cand| sites.iter().all(|s| detects(cand, s, n)))
}

/// [`is_non_redundant`] with a caller-provided coverage oracle.
#[must_use]
pub fn is_non_redundant_with(test: &MarchTest, covers: &dyn Fn(&MarchTest) -> bool) -> bool {
    redundant_ops_with(test, covers).is_empty()
}

/// `true` when no single-operation deletion preserves coverage.
#[must_use]
pub fn is_non_redundant(test: &MarchTest, models: &[FaultModel], n: usize) -> bool {
    redundant_ops(test, models, n).is_empty()
}

/// [`compact`] with a caller-provided coverage oracle. Returns
/// [`Cow::Borrowed`] when no operation could be deleted (including when
/// the input does not cover the list to begin with), so the
/// already-minimal common case costs no clone.
#[must_use]
pub fn compact_with<'a>(
    test: &'a MarchTest,
    covers: &dyn Fn(&MarchTest) -> bool,
) -> Cow<'a, MarchTest> {
    if !covers(test) {
        return Cow::Borrowed(test);
    }
    let mut current: Option<MarchTest> = None;
    loop {
        let view = current.as_ref().unwrap_or(test);
        let Some((_, shorter)) = single_deletions(view)
            .into_iter()
            .find(|(_, cand)| covers(cand))
        else {
            return match current {
                Some(owned) => Cow::Owned(owned),
                None => Cow::Borrowed(test),
            };
        };
        current = Some(shorter);
    }
}

/// Simulator-guided compaction: repeatedly deletes any operation whose
/// removal keeps full coverage, until a fixed point. Requires the input
/// to cover the fault list; returns the input unchanged (borrowed)
/// otherwise.
#[must_use]
pub fn compact<'a>(test: &'a MarchTest, models: &[FaultModel], n: usize) -> Cow<'a, MarchTest> {
    let sites = all_sites(models, n);
    compact_with(test, &|cand| sites.iter().all(|s| detects(cand, s, n)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::covers_all;
    use marchgen_faults::parse_fault_list;
    use marchgen_march::known;

    #[test]
    fn mats_is_non_redundant_for_saf() {
        let models = parse_fault_list("SAF").unwrap();
        assert!(is_non_redundant(&known::mats(), &models, 3));
    }

    #[test]
    fn march_c_minus_is_redundant_for_saf_alone() {
        // 10n is far more than SAF needs: many deletions survive.
        let models = parse_fault_list("SAF").unwrap();
        let redundant = redundant_ops(&known::march_c_minus(), &models, 3);
        assert!(!redundant.is_empty());
    }

    #[test]
    fn compact_shrinks_oversized_tests() {
        let models = parse_fault_list("SAF").unwrap();
        let oversized = known::march_c_minus();
        let compacted = compact(&oversized, &models, 3);
        assert!(matches!(compacted, Cow::Owned(_)));
        assert!(covers_all(&compacted, &models, 3));
        assert!(
            compacted.complexity() <= 4,
            "SAF needs at most MATS (4n), got {compacted}"
        );
    }

    #[test]
    fn compact_keeps_already_minimal_tests_without_cloning() {
        let models = parse_fault_list("SAF").unwrap();
        let minimal = known::mats();
        let compacted = compact(&minimal, &models, 3);
        assert!(
            matches!(compacted, Cow::Borrowed(_)),
            "an already-minimal test must come back borrowed"
        );
        assert_eq!(compacted.complexity(), known::mats().complexity());
    }

    #[test]
    fn compact_requires_initial_coverage() {
        let models = parse_fault_list("CFid").unwrap();
        let input = known::mats();
        let out = compact(&input, &models, 3);
        assert!(matches!(out, Cow::Borrowed(_)));
        assert_eq!(*out, known::mats());
    }

    #[test]
    fn deletions_stay_well_formed() {
        for (_, cand) in single_deletions(&known::march_b()) {
            assert_eq!(cand.check_consistency(), Ok(()));
        }
    }

    #[test]
    fn with_variants_match_default_oracle() {
        let models = parse_fault_list("SAF, TF").unwrap();
        let test = known::march_c_minus();
        let oracle = |cand: &MarchTest| covers_all(cand, &models, 3);
        assert_eq!(
            redundant_ops_with(&test, &oracle),
            redundant_ops(&test, &models, 3)
        );
        assert_eq!(*compact_with(&test, &oracle), *compact(&test, &models, 3));
    }
}
