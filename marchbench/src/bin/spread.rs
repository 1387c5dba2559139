//! Summarises repeated benchmark runs: reads result lines (the JSON
//! object `marchbench` prints last) from the files named on the command
//! line, or from stdin, and prints per metric the median, the quartiles
//! and the spread — the interquartile distance as a share of the median.
//!
//! ```text
//! for seed in 1 2 3 4 5 6 7 8 9 10; do
//!     cargo run --release --quiet --manifest-path marchbench/Cargo.toml --bin marchbench -- \
//!         --workload cold_search --seed $seed --seconds 10 --trace 0 | tail -1
//! done > runs.jsonl
//! cargo run --release --quiet --manifest-path marchbench/Cargo.toml --bin spread -- runs.jsonl
//! ```

use marchbench::stats::{median, quartiles, spread};
use marchgen::json::Json;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut text = String::new();
    let files: Vec<String> = std::env::args().skip(1).collect();
    let read = if files.is_empty() {
        std::io::stdin().read_to_string(&mut text).map(drop)
    } else {
        files.iter().try_for_each(|path| {
            text.push_str(&std::fs::read_to_string(path)?);
            text.push('\n');
            Ok(())
        })
    };
    if let Err(error) = read {
        eprintln!("spread: {error}");
        return ExitCode::FAILURE;
    }
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut runs = 0;
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(doc) = Json::parse(line) else { continue };
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            continue;
        };
        runs += 1;
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Json::as_f64);
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            if let Some(value) = value {
                let slot = values
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_owned(), Vec::new()));
                slot.1.push(value);
            }
        }
    }
    println!("{runs} runs");
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>8}  unit",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, (unit, v)) in &values {
        let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        let mid = median(v).unwrap_or(f64::NAN);
        let s = spread(v).map_or_else(|| "-".to_owned(), |s| format!("{s:.4}"));
        println!("{name:<28} {q1:>12.5} {mid:>12.5} {q3:>12.5} {s:>8}  {unit}");
    }
    ExitCode::SUCCESS
}
