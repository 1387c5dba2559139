//! Output checks, run after the timed window: every returned test is
//! re-verified with the scalar simulator and held to the complexity its
//! universe entry records.

use crate::pools::Entry;
use marchgen::json::Json;
use marchgen::march::MarchTest;
use marchgen::sim::coverage::covers_all;

/// Checks one outcome document (a full `/v1/generate` outcome or the
/// summary inside a stream `item` frame) against its request. Returns
/// the test's complexity.
///
/// # Errors
///
/// A description of the first failed check.
pub fn outcome(doc: &Json, entry: &Entry, expect_hit: bool) -> Result<usize, String> {
    if doc.get("verified").and_then(Json::as_bool) != Some(true) {
        return Err("outcome is not verified".to_owned());
    }
    let text = doc
        .get("test")
        .and_then(Json::as_str)
        .ok_or("outcome has no test")?;
    let test: MarchTest = text.parse().map_err(|e| format!("test {text:?}: {e}"))?;
    let reported = doc.get("complexity").and_then(Json::as_usize);
    if reported != Some(test.complexity()) {
        return Err(format!("complexity {reported:?} disagrees with {text}"));
    }
    if test.complexity() != entry.complexity {
        return Err(format!(
            "complexity {} where {} is optimal: {text}",
            test.complexity(),
            entry.complexity
        ));
    }
    let hit = doc
        .get("diagnostics")
        .and_then(|d| d.get("cache_hit"))
        .and_then(Json::as_bool);
    if hit != Some(expect_hit) {
        return Err(format!("cache_hit is {hit:?}, expected {expect_hit}"));
    }
    if !covers_all(&test, &entry.faults, entry.cells) {
        return Err(format!(
            "the scalar simulator finds {text} incomplete on {} cells",
            entry.cells
        ));
    }
    Ok(test.complexity())
}

/// Checks a `/v1/generate` response body.
///
/// # Errors
///
/// As [`outcome`], plus undecodable bodies.
pub fn generate_body(body: &[u8], entry: &Entry, expect_hit: bool) -> Result<usize, String> {
    let doc = parse(body)?;
    outcome(&doc, entry, expect_hit)
}

/// Checks a `/v1/stream` body: a `batch` announcement, one successful
/// `item` frame per request, and a terminal `completed` frame with the
/// right totals. Returns the complexities in request order.
///
/// # Errors
///
/// A description of the first failed check.
pub fn stream_body(body: &[u8], entries: &[Entry]) -> Result<Vec<usize>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "stream is not UTF-8".to_owned())?;
    let mut complexities = vec![None; entries.len()];
    let mut events = Vec::new();
    for line in text.lines() {
        let frame = Json::parse(line).map_err(|e| format!("frame {line:?}: {e}"))?;
        let event = frame.get("event").and_then(Json::as_str).unwrap_or("");
        events.push(event.to_owned());
        if event != "item" {
            continue;
        }
        let index = frame
            .get("index")
            .and_then(Json::as_usize)
            .filter(|&i| i < entries.len())
            .ok_or_else(|| format!("item frame without a valid index: {line}"))?;
        if frame.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("item {index} failed: {line}"));
        }
        let summary = frame.get("outcome").ok_or("item frame without outcome")?;
        let complexity =
            outcome(summary, &entries[index], false).map_err(|e| format!("item {index}: {e}"))?;
        if complexities[index].replace(complexity).is_some() {
            return Err(format!("item {index} answered twice"));
        }
    }
    if events.first().map(String::as_str) != Some("batch")
        || events.last().map(String::as_str) != Some("completed")
    {
        return Err(format!("stream frames out of shape: {events:?}"));
    }
    complexities
        .into_iter()
        .enumerate()
        .map(|(i, c)| c.ok_or_else(|| format!("item {i} never answered")))
        .collect()
}

fn parse(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    Json::parse(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen::faults::parse_fault_list;

    fn entry(list: &str, complexity: usize) -> Entry {
        Entry {
            faults: parse_fault_list(list).unwrap(),
            cells: 4,
            complexity,
        }
    }

    fn doc(test: &str, complexity: usize, hit: bool) -> Json {
        let text = format!(
            r#"{{"test":"{test}","complexity":{complexity},"verified":true,"diagnostics":{{"cache_hit":{hit}}}}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn accepts_an_optimal_covering_test() {
        let mats_plus = "{⇕(w0); ⇑(r0,w1); ⇓(r1,w0)}";
        assert_eq!(
            outcome(&doc(mats_plus, 5, false), &entry("SAF", 5), false),
            Ok(5)
        );
    }

    #[test]
    fn rejects_wrong_complexity_coverage_and_cache_flag() {
        let mats_plus = "{⇕(w0); ⇑(r0,w1); ⇓(r1,w0)}";
        let e = entry("SAF", 4);
        assert!(
            outcome(&doc(mats_plus, 5, false), &e, false).is_err(),
            "not optimal"
        );
        assert!(
            outcome(&doc(mats_plus, 4, false), &e, false).is_err(),
            "misreported"
        );
        let short = "{⇕(w0); ⇑(r0)}";
        assert!(
            outcome(&doc(short, 2, false), &entry("SAF", 2), false).is_err(),
            "misses SA1"
        );
        let e5 = entry("SAF", 5);
        assert!(
            outcome(&doc(mats_plus, 5, true), &e5, false).is_err(),
            "unexpected hit"
        );
    }
}
