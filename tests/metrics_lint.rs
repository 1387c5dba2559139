//! Token-level lint for the Prometheus text exposition served at
//! `GET /metrics` — the `rtl_golden` approach applied to the metrics
//! wire format. The lint is exercised three ways: against a synthetic
//! registry stuffed with hostile label values, against hand-written
//! malformed expositions (every rule must actually fire), and against
//! a live `marchgend` daemon (CI job `metrics-lint`). A final case
//! checks `?trace=1` span trees stay consistent with the
//! `Diagnostics` micros fields they are derived from.

use marchgen::json::Json;
use marchgen::obs::Registry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

// ---------------------------------------------------------------------------
// The lint
// ---------------------------------------------------------------------------

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One parsed sample line: `name{labels} value`.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses a sample line, returning `Err(reason)` for any token-level
/// violation (bad name charset, unescaped label value, missing value).
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unterminated label block: {line}"))?;
            if close < brace {
                return Err(format!("mismatched braces: {line}"));
            }
            (&line[..brace], &line[brace..=close])
        }
        None => {
            let space = line
                .find(' ')
                .ok_or_else(|| format!("sample without value: {line}"))?;
            (&line[..space], "")
        }
    };
    if !valid_metric_name(name_part) {
        return Err(format!("invalid metric name {name_part:?}: {line}"));
    }
    let mut labels = Vec::new();
    if !rest.is_empty() {
        let inner = &rest[1..rest.len() - 1];
        let mut chars = inner.chars().peekable();
        while chars.peek().is_some() {
            let mut key = String::new();
            for c in chars.by_ref() {
                if c == '=' {
                    break;
                }
                key.push(c);
            }
            if !valid_label_name(&key) {
                return Err(format!("invalid label name {key:?}: {line}"));
            }
            if chars.next() != Some('"') {
                return Err(format!("label value for {key:?} not quoted: {line}"));
            }
            let mut value = String::new();
            let mut closed = false;
            while let Some(c) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some('\\') => value.push('\\'),
                        Some('"') => value.push('"'),
                        Some('n') => value.push('\n'),
                        other => {
                            return Err(format!(
                                "invalid escape \\{} in label {key:?}: {line}",
                                other.map_or(String::from("<eol>"), String::from)
                            ))
                        }
                    },
                    '"' => {
                        closed = true;
                        break;
                    }
                    c => value.push(c),
                }
            }
            if !closed {
                return Err(format!("unterminated label value for {key:?}: {line}"));
            }
            labels.push((key, value));
            match chars.next() {
                None => break,
                Some(',') => continue,
                Some(other) => {
                    return Err(format!("unexpected {other:?} after label value: {line}"))
                }
            }
        }
    }
    let value_text = line[name_part.len() + rest.len()..].trim();
    let value: f64 = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        text => text
            .parse()
            .map_err(|_| format!("unparseable sample value {text:?}: {line}"))?,
    };
    Ok(Sample {
        name: name_part.to_owned(),
        labels,
        value,
    })
}

/// Maps a sample's metric name back to its family: histogram series
/// carry `_bucket`/`_sum`/`_count` suffixes on the family name.
fn family_of<'a>(sample_name: &'a str, types: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample_name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    sample_name
}

/// Token-level lint of one exposition. Returns every violation found:
/// families must declare `# HELP` and `# TYPE` (with a known kind)
/// before their samples, names and label values must be well-formed
/// and escaped, histogram buckets must be cumulative with a trailing
/// `+Inf` bucket matching `_count`, and `_sum`/`_count` must be
/// present and consistent.
fn lint_exposition(text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashSet<String> = HashSet::new();
    let mut samples: Vec<Sample> = Vec::new();

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if let Some(rest) = comment.strip_prefix("HELP ") {
                match rest.split_once(' ') {
                    Some((name, _help)) if valid_metric_name(name) => {
                        helps.insert(name.to_owned());
                    }
                    _ => violations.push(format!("malformed HELP line: {line}")),
                }
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                match rest.split_once(' ') {
                    Some((name, kind)) if valid_metric_name(name) => {
                        if !matches!(kind, "counter" | "gauge" | "histogram") {
                            violations.push(format!("unknown TYPE kind {kind:?}: {line}"));
                        }
                        if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                            violations.push(format!("duplicate TYPE for {name}: {line}"));
                        }
                    }
                    _ => violations.push(format!("malformed TYPE line: {line}")),
                }
            } else {
                violations.push(format!("unknown comment directive: {line}"));
            }
            continue;
        }
        match parse_sample(line) {
            Ok(sample) => {
                let family = family_of(&sample.name, &types).to_owned();
                if !types.contains_key(&family) {
                    violations.push(format!("sample before/without # TYPE: {line}"));
                }
                if !helps.contains(&family) {
                    violations.push(format!("sample before/without # HELP: {line}"));
                }
                samples.push(sample);
            }
            Err(violation) => violations.push(violation),
        }
    }

    // Histogram structure: group bucket series by (family, labels
    // minus `le`), then check le ordering, cumulative counts, the
    // terminal +Inf bucket and the _count/_sum companions.
    type SeriesKey = (String, Vec<(String, String)>);
    let mut buckets: BTreeMap<SeriesKey, Vec<(f64, f64)>> = BTreeMap::new();
    let mut sums: BTreeMap<SeriesKey, f64> = BTreeMap::new();
    let mut counts: BTreeMap<SeriesKey, f64> = BTreeMap::new();
    for sample in &samples {
        let family = family_of(&sample.name, &types).to_owned();
        if types.get(&family).map(String::as_str) != Some("histogram") {
            continue;
        }
        let base_labels: Vec<(String, String)> = sample
            .labels
            .iter()
            .filter(|(key, _)| key != "le")
            .cloned()
            .collect();
        let key = (family.clone(), base_labels);
        if sample.name.ends_with("_bucket") {
            let le = sample
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str());
            match le {
                Some("+Inf") => buckets
                    .entry(key)
                    .or_default()
                    .push((f64::INFINITY, sample.value)),
                Some(bound) => match bound.parse::<f64>() {
                    Ok(bound) => buckets.entry(key).or_default().push((bound, sample.value)),
                    Err(_) => violations.push(format!("unparseable le bound {bound:?}")),
                },
                None => violations.push(format!("{}_bucket sample without le label", key.0)),
            }
        } else if sample.name.ends_with("_sum") {
            sums.insert(key, sample.value);
        } else if sample.name.ends_with("_count") {
            counts.insert(key, sample.value);
        }
    }
    for (key, series) in &buckets {
        let label = format!("{}{:?}", key.0, key.1);
        for window in series.windows(2) {
            if window[0].0 >= window[1].0 {
                violations.push(format!("{label}: le bounds not increasing"));
            }
            if window[0].1 > window[1].1 {
                violations.push(format!("{label}: bucket counts not cumulative"));
            }
        }
        match series.last() {
            Some((bound, total)) if bound.is_infinite() => match counts.get(key) {
                Some(count) if count == total => {}
                Some(count) => {
                    violations.push(format!("{label}: _count {count} != +Inf bucket {total}"))
                }
                None => violations.push(format!("{label}: missing _count series")),
            },
            _ => violations.push(format!("{label}: missing le=\"+Inf\" bucket")),
        }
        if !sums.contains_key(key) {
            violations.push(format!("{label}: missing _sum series"));
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// Offline cases
// ---------------------------------------------------------------------------

#[test]
fn synthetic_registry_with_hostile_labels_is_lint_clean() {
    let registry = Registry::new();
    registry
        .counter(
            "hostile_total",
            "Help with a \\ backslash\nand a newline.",
            &[("name", "quote\" backslash\\ newline\n done")],
        )
        .add(7);
    registry.gauge("plain_gauge", "A gauge.", &[]).set(-3);
    let h = registry.histogram(
        "spread_microseconds",
        "A histogram.",
        &[("phase", "verify")],
        &[10, 100, 1000],
    );
    for value in [5, 50, 500, 5000] {
        h.observe(value);
    }
    let text = registry.render();
    let violations = lint_exposition(&text);
    assert!(violations.is_empty(), "{violations:#?}\n---\n{text}");
}

#[test]
fn lint_catches_malformed_expositions() {
    let cases: &[(&str, &str)] = &[
        ("missing HELP", "# TYPE x counter\nx 1\n"),
        ("missing TYPE", "# HELP x Help.\nx 1\n"),
        ("unknown kind", "# HELP x H.\n# TYPE x summary\nx 1\n"),
        (
            "unescaped quote",
            "# HELP x H.\n# TYPE x counter\nx{a=\"b\"c\"} 1\n",
        ),
        (
            "bad escape",
            "# HELP x H.\n# TYPE x counter\nx{a=\"b\\q\"} 1\n",
        ),
        ("no value", "# HELP x H.\n# TYPE x counter\nx\n"),
        (
            "bad value",
            "# HELP x H.\n# TYPE x counter\nx{a=\"b\"} one\n",
        ),
        (
            "non-cumulative buckets",
            "# HELP h H.\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
             h_sum 9\nh_count 5\n",
        ),
        (
            "missing +Inf bucket",
            "# HELP h H.\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 2\nh_sum 3\nh_count 2\n",
        ),
        (
            "count disagrees with +Inf",
            "# HELP h H.\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 7\n",
        ),
        (
            "missing _sum",
            "# HELP h H.\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n",
        ),
    ];
    for (label, text) in cases {
        let violations = lint_exposition(text);
        assert!(
            !violations.is_empty(),
            "lint must reject case {label:?}:\n{text}"
        );
    }
}

// ---------------------------------------------------------------------------
// Live-daemon cases (the CI `metrics-lint` job)
// ---------------------------------------------------------------------------

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_marchgend"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn marchgend");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut first_line = String::new();
        BufReader::new(stdout)
            .read_line(&mut first_line)
            .expect("read listen line");
        let addr = first_line
            .trim()
            .strip_prefix("marchgend listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner {first_line:?}"))
            .to_owned();
        Daemon { child, addr }
    }

    fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: marchgend\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        let mut wire = String::new();
        stream.read_to_string(&mut wire).expect("read response");
        let status: u16 = wire
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("unparseable response {wire:?}"));
        let body = wire
            .split_once("\r\n\r\n")
            .map(|(_, body)| body.to_owned())
            .unwrap_or_default();
        (status, body)
    }

    fn shutdown(self) {
        let (status, _) = self.request("POST", "/v1/shutdown", "");
        assert_eq!(status, 200);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn live_daemon_exposition_is_lint_clean_and_covers_key_families() {
    let daemon = Daemon::spawn(&["--workers", "2"]);

    // Touch every subsystem so the owned families exist: a cold
    // generate (phases + solver), its warm repeat (cache hit), an RTL
    // render, a streamed batch, and a stats snapshot.
    let (status, _) = daemon.request("POST", "/v1/generate", r#"{"faults": ["SAF", "TF"]}"#);
    assert_eq!(status, 200);
    let (status, _) = daemon.request("POST", "/v1/generate", r#"{"faults": ["TF", "SAF"]}"#);
    assert_eq!(status, 200);
    let (status, _) = daemon.request("POST", "/v1/rtl", r#"{"march": "March C-"}"#);
    assert_eq!(status, 200);
    let (status, _) = daemon.request("POST", "/v1/stream", r#"[{"faults": ["SAF"]}]"#);
    assert_eq!(status, 200);
    let (status, _) = daemon.request("GET", "/v1/stats", "");
    assert_eq!(status, 200);

    let (status, text) = daemon.request("GET", "/metrics", "");
    assert_eq!(status, 200, "{text}");
    let violations = lint_exposition(&text);
    assert!(violations.is_empty(), "{violations:#?}\n---\n{text}");

    // The catalog's key families, spanning every wired layer.
    for family in [
        "marchgend_build_info",
        "marchgend_uptime_seconds",
        "marchgend_http_requests_total",
        "marchgend_http_request_duration_microseconds_bucket",
        "marchgend_phase_duration_microseconds_bucket",
        "marchgend_solver_outcomes_total",
        "marchgend_verifier_outcomes_total",
        "marchgend_cache_hits_total{tier=\"memory\"}",
        "marchgend_cache_misses_total",
        "marchgend_rtl_cache_hits_total",
        "marchgend_limiter_decisions_total{outcome=\"allow\"}",
        "marchgend_rejected_total{reason=\"queue_full\"}",
        "marchgend_streams_started_total",
        "marchgend_stream_frames_published_total",
        "marchgend_stream_ring_frames",
        "marchgend_in_flight",
        "marchgend_metrics_scrapes_total",
    ] {
        assert!(text.contains(family), "missing family {family}:\n{text}");
    }
    // Generator phases cover the whole pipeline decomposition.
    for phase in [
        "expand", "search", "solve", "schedule", "verify", "request", "decode",
    ] {
        let series = format!("marchgend_phase_duration_microseconds_bucket{{phase=\"{phase}\"");
        assert!(text.contains(&series), "missing phase {phase}:\n{text}");
    }
    // The verifier-outcome family carries the full fixed backend
    // vocabulary from the first scrape (zeros, not gaps) — including the
    // retired "bitsim" label, so no exposed series disappears — and the
    // computed SAF+TF requests above landed on the packed backend `auto`
    // resolves to.
    for backend in ["simulator", "bitsim", "widesim", "none"] {
        let series = format!("marchgend_verifier_outcomes_total{{backend=\"{backend}\"}}");
        assert!(text.contains(&series), "missing backend {backend}:\n{text}");
    }
    let backend_count = |backend: &str| {
        let prefix = format!("marchgend_verifier_outcomes_total{{backend=\"{backend}\"}} ");
        text.lines()
            .find_map(|line| line.strip_prefix(prefix.as_str()))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("{backend} verifier counter present"))
    };
    assert!(
        backend_count("widesim") >= 1,
        "computed SAF+TF outcome should count under widesim:\n{text}"
    );
    assert_eq!(
        backend_count("bitsim"),
        0,
        "nothing resolves to the retired backend:\n{text}"
    );
    daemon.shutdown();
}

// ---------------------------------------------------------------------------
// Trace consistency: diagnostics.trace sums match the micros fields
// ---------------------------------------------------------------------------

fn span_child<'a>(node: &'a Json, name: &str) -> Option<&'a Json> {
    node.get("children")?
        .as_array()?
        .iter()
        .find(|child| child.get("name").and_then(Json::as_str) == Some(name))
}

fn span_micros(node: &Json) -> i64 {
    node.get("micros").and_then(Json::as_int).expect("micros")
}

#[test]
fn traced_generate_matches_diagnostics_micros() {
    let daemon = Daemon::spawn(&["--workers", "2"]);

    // Cold request: computed, so the trace synthesizes the generator's
    // phase spans from the Diagnostics micros.
    let (status, body) = daemon.request(
        "POST",
        "/v1/generate?trace=1",
        r#"{"faults": ["SAF", "TF", "CFin"]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).expect("outcome JSON");
    let diagnostics = doc.get("diagnostics").expect("diagnostics block");
    assert_eq!(
        diagnostics.get("cache_hit").and_then(Json::as_bool),
        Some(false),
        "{body}"
    );
    let trace = diagnostics
        .get("trace")
        .expect("trace block under diagnostics");
    assert_eq!(trace.get("name").and_then(Json::as_str), Some("request"));
    let decode = span_child(trace, "decode").expect("decode span");
    assert!(span_micros(decode) >= 0);
    let generate = span_child(trace, "generate").expect("generate span");
    let render = span_child(trace, "render").expect("render span");
    assert!(span_micros(render) >= 0);
    // The request span's wall time bounds its children's.
    assert!(span_micros(trace) >= span_micros(generate));

    // Phase spans replicate the Diagnostics micros exactly, and
    // search = solve + schedule by construction.
    for phase in ["expand", "search", "verify"] {
        let span =
            span_child(generate, phase).unwrap_or_else(|| panic!("missing {phase} span in {body}"));
        let field = format!("{phase}_micros");
        assert_eq!(
            span_micros(span),
            diagnostics
                .get(&field)
                .and_then(Json::as_int)
                .expect("micros field"),
            "{phase} span must equal diagnostics.{field}: {body}"
        );
    }
    let search = span_child(generate, "search").expect("search span");
    let solve = span_child(search, "solve").expect("solve span");
    let schedule = span_child(search, "schedule").expect("schedule span");
    assert_eq!(
        span_micros(solve) + span_micros(schedule),
        span_micros(search),
        "solve + schedule must partition search: {body}"
    );

    // Warm repeat via the header spelling: still traced, but a cache
    // hit synthesizes no phase children (its Diagnostics describe the
    // original computation, not this request).
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let body = r#"{"faults": ["CFin", "TF", "SAF"]}"#;
    write!(
        stream,
        "POST /v1/generate HTTP/1.1\r\nhost: x\r\nx-trace: 1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send traced request");
    let mut wire = String::new();
    stream.read_to_string(&mut wire).expect("read response");
    let warm = wire.split_once("\r\n\r\n").map(|(_, b)| b).expect("body");
    let warm_doc = Json::parse(warm).expect("warm outcome JSON");
    let warm_diagnostics = warm_doc.get("diagnostics").expect("diagnostics");
    assert_eq!(
        warm_diagnostics.get("cache_hit").and_then(Json::as_bool),
        Some(true),
        "{warm}"
    );
    let warm_trace = warm_diagnostics
        .get("trace")
        .expect("trace on cache hits too");
    let warm_generate = span_child(warm_trace, "generate").expect("generate span");
    assert!(
        warm_generate.get("children").is_none(),
        "cache hits must not synthesize phase spans: {warm}"
    );

    // An untraced request carries no trace block at all.
    let (status, plain) = daemon.request("POST", "/v1/generate", body);
    assert_eq!(status, 200, "{plain}");
    assert!(!plain.contains("\"trace\""), "{plain}");
    daemon.shutdown();
}
