//! Serialization properties of the typed API surface: random
//! [`GenerateRequest`]s and [`GenerateOutcome`]s survive a JSON
//! round-trip losslessly, and [`MarchTest`]'s textual notation
//! round-trips through `Display` → parse (deterministic
//! `marchgen-testkit` harness).

use marchgen::faults::requirements_for;
use marchgen::json::{FromJson, ToJson};
use marchgen::prelude::*;
use marchgen::sim::coverage::coverage_report;
use marchgen::tpg::StartPolicy;
use marchgen::SolverChoice;
use marchgen_testkit::{run_cases, Rng};

fn random_request(rng: &mut Rng) -> GenerateRequest {
    let all = FaultModel::all_classical();
    let faults = rng.vec(1, 6, |rng| *rng.pick(&all));
    let solver = match rng.range(0, 6) {
        0 => SolverChoice::Auto,
        1 => SolverChoice::HeldKarp,
        2 => SolverChoice::BranchBound,
        3 => SolverChoice::Heuristic,
        4 => SolverChoice::LocalSearch,
        _ => SolverChoice::Custom(format!("plugin-{}", rng.range(0, 100))),
    };
    let policy = if rng.flip() {
        StartPolicy::Uniform
    } else {
        StartPolicy::Free
    };
    GenerateRequest::new(faults)
        .with_solver(solver)
        .with_start_policy(policy)
        .with_tour_cap(rng.range(1, 200))
        .with_verify_cells(rng.range(0, 9))
        .with_compact(rng.flip())
        .with_check_redundancy(rng.flip())
        .with_max_combinations(rng.range(1, 10_000))
        .with_verifier(if rng.flip() {
            VerifierChoice::Scalar
        } else {
            VerifierChoice::Auto
        })
        .with_search_threads(rng.range(0, 9))
}

/// A synthetic but structurally faithful outcome: real TPs from the
/// catalog, a real coverage report, random diagnostics.
fn random_outcome(rng: &mut Rng) -> GenerateOutcome {
    let all = FaultModel::all_classical();
    let models = rng.vec(1, 4, |rng| *rng.pick(&all));
    let reqs = requirements_for(&models);
    let tour: Vec<TestPattern> = reqs
        .iter()
        .map(|r| r.alternatives[rng.range(0, r.cardinality().max(1))])
        .collect();
    let test = if rng.flip() {
        known::march_c_minus()
    } else {
        known::mats_plus()
    };
    let report = if rng.flip() {
        Some(coverage_report(&test, &models, rng.range(2, 5)))
    } else {
        None
    };
    GenerateOutcome {
        verified: report.as_ref().map(|r| r.complete()).unwrap_or(false),
        report,
        test,
        tour,
        non_redundant: if rng.flip() { Some(rng.flip()) } else { None },
        diagnostics: Diagnostics {
            solver: ["auto", "held-karp", "local-search"][rng.range(0, 3)].to_owned(),
            solver_iterations: rng.next_u64() % 10_000,
            solver_restarts: rng.next_u64() % 64,
            combinations: rng.range(1, 5000),
            unique_tp_sets: rng.range(1, 500),
            tours_tried: rng.range(1, 500),
            candidates: rng.range(1, 100),
            // Unsorted on purpose: the run-length encoding keeps any order.
            candidate_complexities: rng.vec(0, 8, |rng| rng.range(4, 30)).into_iter().collect(),
            expand_micros: rng.next_u64() % 1_000_000,
            search_micros: rng.next_u64() % 1_000_000,
            verify_micros: rng.next_u64() % 1_000_000,
            shard_micros: rng.vec(0, 6, |rng| rng.next_u64() % 1_000_000),
            verifier: ["", "simulator", "bitsim", "widesim"][rng.range(0, 4)].to_owned(),
            verify_shard_micros: rng.vec(0, 8, |rng| rng.next_u64() % 1_000_000),
            cache_hit: rng.flip(),
        },
    }
}

/// `GenerateRequest` → JSON → `GenerateRequest` is the identity.
#[test]
fn request_json_roundtrip_property() {
    run_cases("request_json_roundtrip", 128, |rng| {
        let request = random_request(rng);
        let text = request.to_json_string();
        let back =
            GenerateRequest::from_json_str(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
        assert_eq!(back, request, "{text}");
        // Pretty-printing decodes to the same value.
        let pretty = GenerateRequest::from_json_str(&request.to_json_pretty()).unwrap();
        assert_eq!(pretty, request);
    });
}

/// `GenerateOutcome` → JSON → `GenerateOutcome` is the identity,
/// including coverage reports with escapes.
#[test]
fn outcome_json_roundtrip_property() {
    run_cases("outcome_json_roundtrip", 64, |rng| {
        let outcome = random_outcome(rng);
        let text = outcome.to_json_pretty();
        let back =
            GenerateOutcome::from_json_str(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
        assert_eq!(back, outcome, "{text}");
    });
}

/// A real engine outcome (escapes included) also survives the trip.
#[test]
fn engine_outcome_roundtrips() {
    // MATS misses TF — the report carries real escape sites.
    let request = GenerateRequest::from_fault_list("SAF, TF, CFid<u,1>")
        .unwrap()
        .with_check_redundancy(true);
    let outcome = generate(&request).unwrap();
    let back = GenerateOutcome::from_json_str(&outcome.to_json_string()).unwrap();
    assert_eq!(back, outcome);
}

/// `MarchTest` Display → parse is the identity on random tests, both in
/// arrow and ASCII notation.
#[test]
fn march_display_parse_roundtrip_property() {
    let ops = [MarchOp::W0, MarchOp::W1, MarchOp::R0, MarchOp::R1];
    let dirs = [Direction::Up, Direction::Down, Direction::Any];
    run_cases("march_display_parse_roundtrip", 256, |rng| {
        let elements = rng.vec(1, 6, |rng| {
            let dir = *rng.pick(&dirs);
            let element_ops = rng.vec(1, 5, |rng| *rng.pick(&ops));
            MarchElement::new(dir, element_ops)
        });
        let test = MarchTest::new(elements);
        let display: MarchTest = test
            .to_string()
            .parse()
            .unwrap_or_else(|e| panic!("{e}: {test}"));
        assert_eq!(display, test);
        let ascii: MarchTest = test
            .to_ascii()
            .parse()
            .unwrap_or_else(|e| panic!("{e}: {}", test.to_ascii()));
        assert_eq!(ascii, test);
    });
}
