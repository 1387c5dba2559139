//! # marchgen-bench
//!
//! Shared workloads for the `repro` binary, which regenerates every
//! table and figure of the paper and runs the offline perf smoke.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use marchgen_atsp::{AtspInstance, INF};
use marchgen_faults::{parse_fault_list, requirements_for, FaultModel, TestPattern};

/// One row of the paper's Table 3.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    /// Display label.
    pub label: &'static str,
    /// Fault list (parseable).
    pub faults: &'static str,
    /// The complexity the paper reports.
    pub paper_complexity: usize,
    /// The paper's CPU time in seconds (Compaq Presario, PIII 650 MHz).
    pub paper_seconds: f64,
    /// The paper's "Equivalent Known March Test" column.
    pub known_equivalent: &'static str,
}

/// All six rows of Table 3. Row 6's fault list follows the DESIGN.md
/// decoding of the published 5n test (victim-forced-to-one CFid subset).
pub const TABLE3: &[Table3Row] = &[
    Table3Row {
        label: "SAF",
        faults: "SAF",
        paper_complexity: 4,
        paper_seconds: 0.49,
        known_equivalent: "MATS (4n)",
    },
    Table3Row {
        label: "SAF+TF",
        faults: "SAF, TF",
        paper_complexity: 5,
        paper_seconds: 0.53,
        known_equivalent: "MATS+ (5n)",
    },
    Table3Row {
        label: "SAF+TF+ADF",
        faults: "SAF, TF, ADF",
        paper_complexity: 6,
        paper_seconds: 0.61,
        known_equivalent: "MATS++ (6n)",
    },
    Table3Row {
        label: "SAF+TF+ADF+CFin",
        faults: "SAF, TF, ADF, CFin",
        paper_complexity: 6,
        paper_seconds: 0.69,
        known_equivalent: "March X (6n)",
    },
    Table3Row {
        label: "SAF+TF+ADF+CFin+CFid",
        faults: "SAF, TF, ADF, CFin, CFid",
        paper_complexity: 10,
        paper_seconds: 0.85,
        known_equivalent: "March C- (10n)",
    },
    Table3Row {
        label: "CFid<u,1>+CFid<d,1>",
        faults: "CFid<u,1>, CFid<d,1>",
        paper_complexity: 5,
        paper_seconds: 0.57,
        known_equivalent: "Not Found",
    },
];

/// Parses a row's fault models.
#[must_use]
pub fn row_models(row: &Table3Row) -> Vec<FaultModel> {
    parse_fault_list(row.faults).expect("table rows parse")
}

/// The §4 worked-example TPs (TP1..TP4, paper numbering).
#[must_use]
pub fn section4_tps() -> Vec<TestPattern> {
    let mut tps = Vec::new();
    for list in ["CFid<u,0>", "CFid<u,1>"] {
        let models = parse_fault_list(list).expect("parses");
        for req in requirements_for(&models) {
            tps.push(req.alternatives[0]);
        }
    }
    tps
}

/// A deterministic pseudo-random ATSP instance (xorshift-based) for the
/// solver sweeps of the perf smoke.
#[must_use]
pub fn random_atsp(n: usize, seed: u64) -> AtspInstance {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    AtspInstance::from_fn(n, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % 100
    })
}

/// A deterministic ATSP instance shaped like the ones the pipeline
/// solves: `n - 1` test-pattern nodes joined by arcs of weight 0–2,
/// plus the dummy start node `n - 1`, whose out-arcs carry an
/// initialisation cost of 0–2 or are forbidden ([`INF`]) and whose
/// in-arcs are free. The small weights give many co-optimal tours.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn tpg_shaped_atsp(n: usize, seed: u64) -> AtspInstance {
    assert!(
        n >= 2,
        "a TPG-shaped instance needs a pattern and the dummy"
    );
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let dummy = n - 1;
    // One pattern always admits the start, so some tour is finite.
    let open = (next() % dummy as u64) as usize;
    AtspInstance::from_fn(n, |i, j| match (i == dummy, j == dummy) {
        (true, _) if j != open && next() % 2 == 0 => INF,
        (false, true) => 0,
        _ => next() % 3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_six_rows() {
        assert_eq!(TABLE3.len(), 6);
        for row in TABLE3 {
            assert!(!row_models(row).is_empty(), "{}", row.label);
        }
    }

    #[test]
    fn section4_tps_count() {
        assert_eq!(section4_tps().len(), 4);
    }

    #[test]
    fn random_atsp_is_deterministic() {
        assert_eq!(random_atsp(6, 7), random_atsp(6, 7));
    }

    #[test]
    fn tpg_shaped_atsp_has_a_finite_tour() {
        for seed in 0..16 {
            let inst = tpg_shaped_atsp(10, seed);
            assert_eq!(inst, tpg_shaped_atsp(10, seed));
            assert!(marchgen_atsp::held_karp::solve(&inst).is_finite());
        }
    }
}
