//! Pins the exact search's output, order included, against a checked-in
//! fixture (`tests/goldens/search.json`):
//!
//! - the `held_karp::solve_all(_, 64)` tour orders of seeded
//!   TPG-shaped instances (arc weights 0–2, forbidden dummy arcs, many
//!   co-optima), so a kernel change that returns the same optimal
//!   tours in another order, or a different capped subset, fails here;
//! - the full outcomes, timings removed, of the six Table 3 rows and of
//!   the heaviest search lists of the benchmark's cold-search pool
//!   (copied into the fixture), so `tours_tried`, `candidates` and
//!   `candidate_complexities` stay byte-identical end to end.
//!
//! An intentional change regenerates the fixture with
//!
//! ```sh
//! UPDATE_GOLDENS=1 cargo test --release --test search_golden -- --test-threads 1
//! ```
//!
//! which re-solves the instance seeds and fault lists the fixture names
//! (one test thread: both tests rewrite the same file).

use marchgen::atsp::{held_karp, AtspInstance, INF};
use marchgen::json::{Json, ToJson};
use marchgen::prelude::*;
use marchgen_bench::tpg_shaped_atsp;
use std::path::PathBuf;

/// The tour cap the pipeline runs with by default.
const TOUR_CAP: usize = 64;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/search.json")
}

fn fixture() -> Json {
    let text = std::fs::read_to_string(fixture_path()).expect("search fixture is checked in");
    Json::parse(&text).expect("search fixture parses")
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDENS").is_some()
}

fn entries<'a>(fixture: &'a Json, key: &str) -> &'a [Json] {
    fixture
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("fixture has a {key:?} array"))
}

fn usize_of(json: &Json, key: &str) -> usize {
    json.get(key)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("fixture entry has an integer {key:?}"))
}

/// Cost matrix rows with `null` for a forbidden arc (the diagonal
/// included).
fn rows_json(inst: &AtspInstance) -> Json {
    let n = inst.len();
    Json::array((0..n).map(|i| {
        Json::array((0..n).map(|j| match inst.cost(i, j) {
            c if c >= INF => Json::Null,
            c => Json::from(c),
        }))
    }))
}

fn instance_from_rows(rows: &Json) -> AtspInstance {
    let rows = rows.as_array().expect("rows is an array");
    AtspInstance::from_rows(
        rows.iter()
            .map(|row| {
                let row = row.as_array().expect("a row is an array");
                row.iter()
                    .map(|c| c.as_int().map_or(INF, |c| c as u64))
                    .collect()
            })
            .collect(),
    )
}

fn orders_json(inst: &AtspInstance) -> Json {
    Json::array(
        held_karp::solve_all(inst, TOUR_CAP)
            .iter()
            .map(|tour| Json::array(tour.order.iter().map(|&v| Json::from(v)))),
    )
}

/// An outcome's JSON without timings: every `*_micros` key is dropped
/// and `candidate_complexities` becomes `candidate_complexity_runs`,
/// `[value, count]` pairs, which keeps the fixture small.
fn untimed(json: &Json) -> Json {
    match json {
        Json::Object(pairs) => Json::object(
            pairs
                .iter()
                .filter(|(key, _)| !key.ends_with("_micros"))
                .map(|(key, value)| match key.as_str() {
                    "candidate_complexities" => {
                        ("candidate_complexity_runs".to_owned(), runs(value))
                    }
                    _ => (key.clone(), untimed(value)),
                }),
        ),
        Json::Array(items) => Json::array(items.iter().map(untimed)),
        other => other.clone(),
    }
}

fn runs(values: &Json) -> Json {
    let mut runs: Vec<(i64, usize)> = Vec::new();
    for value in values.as_array().expect("an array") {
        let value = value.as_int().expect("an integer");
        match runs.last_mut() {
            Some((last, count)) if *last == value => *count += 1,
            _ => runs.push((value, 1)),
        }
    }
    Json::array(
        runs.into_iter()
            .map(|(value, count)| Json::array([Json::Int(value), Json::from(count)])),
    )
}

fn outcome_json(faults: &str) -> Json {
    let request = GenerateRequest::from_fault_list(faults).expect("fixture lists parse");
    let outcome = generate(&request).unwrap_or_else(|e| panic!("{faults}: {e}"));
    untimed(&outcome.to_json())
}

/// Writes the fixture with one compact entry per line, so a change
/// shows up as a diff of the entries it touches.
fn write_fixture(instances: &[Json], outcomes: &[Json]) {
    let section = |entries: &[Json]| {
        entries
            .iter()
            .map(|entry| format!("    {}", entry.render()))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let text = format!(
        "{{\n  \"tour_cap\": {TOUR_CAP},\n  \"instances\": [\n{}\n  ],\n  \"outcomes\": [\n{}\n  ]\n}}\n",
        section(instances),
        section(outcomes),
    );
    std::fs::write(fixture_path(), text).expect("fixture is writable");
}

/// The order contract of the all-optimal enumeration: the same tours,
/// in the same order, under the pipeline's cap.
#[test]
fn held_karp_tour_orders_match_the_fixture() {
    let fixture = fixture();
    assert_eq!(usize_of(&fixture, "tour_cap"), TOUR_CAP);
    let mut mismatches = Vec::new();
    let mut updated = Vec::new();
    for entry in entries(&fixture, "instances") {
        let (n, seed) = (usize_of(entry, "n"), usize_of(entry, "seed"));
        let inst = if updating() {
            tpg_shaped_atsp(n, seed as u64)
        } else {
            instance_from_rows(entry.get("rows").expect("entry has rows"))
        };
        let orders = orders_json(&inst);
        if entry.get("orders") != Some(&orders) {
            mismatches.push(format!("n={n} seed={seed}"));
        }
        updated.push(Json::object([
            ("n", Json::from(n)),
            ("seed", Json::from(seed)),
            ("rows", rows_json(&inst)),
            ("orders", orders),
        ]));
    }
    if updating() {
        write_fixture(&updated, entries(&fixture, "outcomes"));
    } else {
        assert!(
            mismatches.is_empty(),
            "tour orders differ on {mismatches:?}"
        );
    }
}

/// End to end: Table 3 and the heavy search lists produce the fixture's
/// outcomes, timings aside.
#[test]
fn generated_outcomes_match_the_fixture() {
    let fixture = fixture();
    let mut mismatches = Vec::new();
    let mut updated = Vec::new();
    for entry in entries(&fixture, "outcomes") {
        let faults = entry
            .get("faults")
            .and_then(Json::as_str)
            .expect("entry names its fault list");
        let outcome = outcome_json(faults);
        if entry.get("outcome") != Some(&outcome) {
            mismatches.push(faults.to_owned());
        }
        updated.push(Json::object([
            ("faults", Json::from(faults)),
            ("outcome", outcome),
        ]));
    }
    if updating() {
        write_fixture(entries(&fixture, "instances"), &updated);
    } else {
        assert!(mismatches.is_empty(), "outcomes differ on {mismatches:?}");
    }
}
