//! Rebuilds the benchmark's input universes in `pools/`.
//!
//! ```text
//! cargo run --release --manifest-path marchbench/Cargo.toml --bin mkpools -- marchbench/pools
//! ```
//!
//! Candidates are drawn from a fixed-seed generator and kept when the
//! generator verifies them and they have the shape their workload
//! needs. The shape tests use counts from `Diagnostics` plus a band on
//! single-thread cold time, so the kept set depends a little on the
//! machine that builds it; the committed files are the reference, and
//! the complexity recorded on each line is what every later run is held
//! to.

use marchbench::pools::{Entry, SplitMix64};
use marchgen::faults::{requirements_for, FaultModel};
use marchgen::generator::ClassCombinations;
use marchgen::{generate, GenerateOutcome, GenerateRequest};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// What one universe is made of.
struct Spec {
    file: &'static str,
    header: &'static str,
    size: usize,
    draw: fn(&mut SplitMix64) -> (Vec<FaultModel>, usize),
    /// Largest class-combination count worth generating at all.
    max_combinations: usize,
    keep: fn(&GenerateOutcome, f64) -> bool,
}

fn models(filter: impl Fn(&FaultModel) -> bool) -> Vec<FaultModel> {
    FaultModel::all_extended()
        .into_iter()
        .filter(filter)
        .collect()
}

fn pick(rng: &mut SplitMix64, from: &[FaultModel], count: usize) -> Vec<FaultModel> {
    (0..count).map(|_| from[rng.below(from.len())]).collect()
}

/// Three to five coupling or address-decoder models, which multiply
/// the class-combination space, plus up to three single-cell models.
fn draw_search(rng: &mut SplitMix64) -> (Vec<FaultModel>, usize) {
    let heavy = models(|m| matches!(m.class_label(), "ADF" | "CFin" | "CFst" | "CFid"));
    let light = models(|m| !m.is_pair_fault());
    let count = 3 + rng.below(3);
    let mut faults = pick(rng, &heavy, count);
    let extra = rng.below(4);
    faults.extend(pick(rng, &light, extra));
    (faults, 4)
}

/// One to four coupling or linked models on an 8–16 cell memory.
fn draw_verify(rng: &mut SplitMix64) -> (Vec<FaultModel>, usize) {
    let pairs = models(|m| matches!(m.class_label(), "CFin" | "CFid" | "CFst" | "LCF"));
    let count = 1 + rng.below(4);
    (pick(rng, &pairs, count), 8 + rng.below(9))
}

/// One to four models of any class at the default 4 cells.
fn draw_warm(rng: &mut SplitMix64) -> (Vec<FaultModel>, usize) {
    let all = FaultModel::all_extended();
    let count = 1 + rng.below(4);
    (pick(rng, &all, count), 4)
}

fn search_share(outcome: &GenerateOutcome) -> f64 {
    let d = &outcome.diagnostics;
    d.search_micros as f64 / d.total_micros().max(1) as f64
}

const SPECS: [Spec; 3] = [
    Spec {
        file: "cold_search.tsv",
        header: "# cold_search: >= 100 unique TP sets, >= 75% of the time in search, \
                 30-150 ms cold at one search thread",
        size: 256,
        draw: draw_search,
        max_combinations: 1024,
        keep: |o, ms| {
            o.diagnostics.unique_tp_sets >= 100
                && search_share(o) >= 0.75
                && (30.0..=150.0).contains(&ms)
        },
    },
    Spec {
        file: "cold_verify.tsv",
        header: "# cold_verify: <= 16 class combinations, >= 60% of the time in verify, \
                 5-60 ms cold at one search thread",
        size: 512,
        draw: draw_verify,
        max_combinations: 16,
        keep: |o, ms| 1.0 - search_share(o) >= 0.6 && (5.0..=60.0).contains(&ms),
    },
    Spec {
        file: "warm.tsv",
        header: "# warm: hot-set fillers, <= 5 ms cold at one search thread",
        size: 64,
        draw: draw_warm,
        max_combinations: 4096,
        keep: |_, ms| ms <= 5.0,
    },
];

/// Median single-thread wall time of three cold runs, with the outcome.
fn measure(request: &GenerateRequest) -> Option<(GenerateOutcome, f64)> {
    let mut times = Vec::new();
    let mut outcome = None;
    for _ in 0..3 {
        let started = Instant::now();
        let out = generate(request).ok()?;
        times.push(started.elapsed().as_secs_f64() * 1e3);
        outcome = Some(out);
    }
    times.sort_by(f64::total_cmp);
    Some((outcome?, times[1]))
}

fn build(spec: &Spec, dir: &Path) -> std::io::Result<()> {
    let mut rng = SplitMix64::new(0x6d61_7263_6862_656e);
    let mut seen = BTreeSet::new();
    let mut text = format!("{}\n# verify_cells\tcomplexity\tfaults\n", spec.header);
    let mut kept = 0;
    while kept < spec.size {
        let (mut faults, cells) = (spec.draw)(&mut rng);
        faults.sort_unstable();
        faults.dedup();
        if !seen.insert((faults.clone(), cells)) {
            continue;
        }
        if ClassCombinations::total(&requirements_for(&faults)) > spec.max_combinations {
            continue;
        }
        let request = GenerateRequest::new(faults.clone())
            .with_verify_cells(cells)
            .with_search_threads(1);
        let Some((outcome, ms)) = measure(&request) else {
            continue;
        };
        if !outcome.verified || !(spec.keep)(&outcome, ms) {
            continue;
        }
        let entry = Entry {
            faults,
            cells,
            complexity: outcome.complexity(),
        };
        let _ = writeln!(text, "{}", entry.to_line());
        kept += 1;
        eprintln!("{}: {kept}/{} ({ms:.1} ms)", spec.file, spec.size);
    }
    std::fs::write(dir.join(spec.file), text)
}

fn main() -> ExitCode {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "marchbench/pools".to_owned());
    for spec in &SPECS {
        if let Err(error) = build(spec, Path::new(&dir)) {
            eprintln!("mkpools: writing {}: {error}", spec.file);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
