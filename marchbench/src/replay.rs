//! The traced in-process replica of what `marchgend` does with a
//! request body, with spans around every call into a layer.
//!
//! The daemon decodes the body, keys and looks it up in the outcome
//! cache, runs the pipeline on a miss, stores the outcome and renders
//! it. The replica makes the same public calls in the same order, and
//! re-implements `generate_with` from the generator's public building
//! blocks at one worker, so that each layer can be timed from outside
//! the program. Every replayed computation is compared with
//! `generate()` on the same request; per-layer numbers from a replica
//! that computes something else would be meaningless.

use crate::trace::Tracer;
use marchgen::atsp::SolverRegistry;
use marchgen::cache::{canonical_key_text, key_for_text, OutcomeCache};
use marchgen::faults::{dedupe_subsumed, requirements_for, TestPattern};
use marchgen::generator::{schedule_tour, verifier_for, ClassCombinations};
use marchgen::json::{FromJson, Json, ToJson};
use marchgen::march::MarchTest;
use marchgen::service::{Batch, BatchEvent};
use marchgen::tpg::{plan_tour_with_stats, Tpg};
use marchgen::{generate, Diagnostics, GenerateOutcome, GenerateRequest};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Work counts recorded at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    /// Adds `value` to the count `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// The count `name` (0 when never recorded).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything one replay records.
pub struct Replay {
    /// Spans of the measured requests.
    pub tracer: Tracer,
    /// Counts of the measured requests.
    pub counts: Counts,
    /// Per-shard times of every screening sweep, µs.
    pub screen_shards_us: Vec<u64>,
    /// Outcomes the measured requests delivered.
    pub outcomes: u64,
    /// Summed wall time of the traced replica's computations.
    pub traced: Duration,
    /// Summed wall time of `generate()` on the same requests.
    pub untraced: Duration,
    /// Computations compared against `generate()`.
    pub compared: usize,
    /// Every disagreement found, described.
    pub mismatches: Vec<String>,
    cache: OutcomeCache,
    next_request: u64,
}

impl Default for Replay {
    fn default() -> Replay {
        Replay::new()
    }
}

impl Replay {
    /// An empty replay with a cold cache.
    #[must_use]
    pub fn new() -> Replay {
        Replay {
            tracer: Tracer::new(),
            counts: Counts::default(),
            screen_shards_us: Vec::new(),
            outcomes: 0,
            traced: Duration::ZERO,
            untraced: Duration::ZERO,
            compared: 0,
            mismatches: Vec::new(),
            cache: OutcomeCache::new(4096),
            next_request: 0,
        }
    }

    /// Replays `bodies` as `/v1/generate` requests to fill the cache,
    /// then forgets their spans and counts (the daemon's warm-up is not
    /// part of the measured window). Faithfulness checks still apply.
    ///
    /// # Errors
    ///
    /// As [`Replay::generate_request`].
    pub fn prime(&mut self, bodies: &[Vec<u8>]) -> Result<(), String> {
        for body in bodies {
            self.generate_request(body)?;
        }
        self.tracer = Tracer::new();
        self.counts = Counts::default();
        self.screen_shards_us.clear();
        self.outcomes = 0;
        Ok(())
    }

    /// Replays one `/v1/generate` body.
    ///
    /// # Errors
    ///
    /// When the body does not decode or generation fails.
    pub fn generate_request(&mut self, body: &[u8]) -> Result<(), String> {
        self.tracer.set_request(self.next_request);
        self.next_request += 1;
        let request = self.tracer.span("decode", |_| decode(body))?;
        let outcome = self.serve(&request)?;
        let rendered = self.tracer.span("render", |_| outcome.to_json().render());
        self.counts.add("render.bytes", rendered.len() as f64);
        self.outcomes += 1;
        Ok(())
    }

    /// Replays one `/v1/stream` body: every item through the cache and
    /// the replica, each rendered as its `item` frame, then the batch
    /// once more through the service layer's `Batch::run_with_progress`
    /// to time how long items wait for a worker and how long they run.
    ///
    /// # Errors
    ///
    /// When the body does not decode or an item fails.
    pub fn stream_request(&mut self, body: &[u8]) -> Result<(), String> {
        self.tracer.set_request(self.next_request);
        self.next_request += 1;
        let requests = self.tracer.span("decode", |_| decode_batch(body))?;
        let mut tests = Vec::new();
        for (index, request) in requests.iter().enumerate() {
            let outcome = self.serve(request)?;
            let rendered = self.tracer.span("render", |_| {
                let mut doc = BatchEvent::Finished {
                    index,
                    outcome: &outcome,
                }
                .to_json();
                if let Json::Object(pairs) = &mut doc {
                    pairs.push(("request_id".to_owned(), Json::from("req-replay")));
                    pairs.push(("seq".to_owned(), Json::from(2 * index + 2)));
                }
                let mut line = doc.render();
                line.push('\n');
                line
            });
            self.counts.add("render.bytes", rendered.len() as f64);
            self.outcomes += 1;
            tests.push(outcome.test);
        }
        self.time_batch(requests, &tests);
        Ok(())
    }

    fn time_batch(&mut self, requests: Vec<GenerateRequest>, tests: &[MarchTest]) {
        let events = Mutex::new(Vec::new());
        let begin = Instant::now();
        let results = Batch::new().run_with_progress(requests, |event| {
            let now = Instant::now();
            let mark = match event {
                BatchEvent::Started { index, .. } => Some((index, true)),
                BatchEvent::Finished { index, .. } | BatchEvent::Failed { index, .. } => {
                    Some((index, false))
                }
                BatchEvent::Completed { .. } => None,
            };
            if let Some((index, started)) = mark {
                events
                    .lock()
                    .expect("event log lock")
                    .push((index, started, now));
            }
        });
        let end = Instant::now();
        let root = self.tracer.record("batch", begin, end, None);
        let events = events.into_inner().expect("event log lock");
        for (index, test) in tests.iter().enumerate() {
            let at = |started: bool| {
                events
                    .iter()
                    .find(|&&(i, s, _)| i == index && s == started)
                    .map(|&(_, _, t)| t)
            };
            if let (Some(picked), Some(done)) = (at(true), at(false)) {
                self.tracer.record("batch.wait", begin, picked, Some(root));
                self.tracer.record("batch.item", picked, done, Some(root));
            }
            match &results[index] {
                Ok(outcome) if outcome.test == *test => {}
                other => self.mismatches.push(format!(
                    "batch item {index}: service layer gave {other:?}, replica gave {test}"
                )),
            }
        }
    }

    /// Key, lookup and (on a miss) compute and insert — the cache layer
    /// as the daemon drives it.
    fn serve(&mut self, request: &GenerateRequest) -> Result<GenerateOutcome, String> {
        let (canonical, key) = self.tracer.span("cache.key", |_| {
            let canonical = canonical_key_text(request);
            let key = key_for_text(&canonical);
            (canonical, key)
        });
        let cache = &self.cache;
        if let Some(hit) = self
            .tracer
            .span("cache.lookup", |_| cache.lookup(key, &canonical))
        {
            self.counts.add("cache.hits", 1.0);
            return Ok(hit);
        }
        self.counts.add("cache.misses", 1.0);
        let outcome = self.compute(&request.clone().normalize().with_search_threads(1))?;
        let cache = &self.cache;
        self.tracer
            .span("cache.insert", |_| cache.insert(key, &canonical, &outcome));
        Ok(outcome)
    }

    /// Runs the traced replica and `generate()` on one request,
    /// alternating which goes first, and compares their outcomes.
    fn compute(&mut self, request: &GenerateRequest) -> Result<GenerateOutcome, String> {
        self.compared += 1;
        let reference_first = self.compared % 2 == 1;
        let mut reference = None;
        let run_reference = |untraced: &mut Duration| {
            let started = Instant::now();
            let out = generate(request);
            *untraced += started.elapsed();
            out
        };
        if reference_first {
            reference = Some(run_reference(&mut self.untraced));
        }
        let started = Instant::now();
        let replica = generate_traced(
            request,
            &mut self.tracer,
            &mut self.counts,
            &mut self.screen_shards_us,
        );
        self.traced += started.elapsed();
        let reference = match reference {
            Some(reference) => reference,
            None => run_reference(&mut self.untraced),
        };
        let replica = replica?;
        match reference {
            Ok(reference) => {
                if let Some(difference) = difference(&replica, &reference) {
                    self.mismatches
                        .push(format!("{:?}: {difference}", request.faults));
                }
            }
            Err(error) => self
                .mismatches
                .push(format!("{:?}: generate() failed: {error}", request.faults)),
        }
        Ok(replica)
    }
}

fn decode(body: &[u8]) -> Result<GenerateRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    GenerateRequest::from_json(&doc).map_err(|e| e.message)
}

fn decode_batch(body: &[u8]) -> Result<Vec<GenerateRequest>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    doc.as_array()
        .ok_or_else(|| "batch body must be an array".to_owned())?
        .iter()
        .map(|item| GenerateRequest::from_json(item).map_err(|e| e.message))
        .collect()
}

/// What differs between the replica's outcome and `generate()`'s,
/// timings aside.
fn difference(replica: &GenerateOutcome, reference: &GenerateOutcome) -> Option<String> {
    let (a, b) = (&replica.diagnostics, &reference.diagnostics);
    let checks = [
        ("test", replica.test == reference.test),
        ("tour", replica.tour == reference.tour),
        ("verified", replica.verified == reference.verified),
        ("report", replica.report == reference.report),
        (
            "non_redundant",
            replica.non_redundant == reference.non_redundant,
        ),
        ("solver", a.solver == b.solver),
        ("verifier", a.verifier == b.verifier),
        ("combinations", a.combinations == b.combinations),
        ("unique_tp_sets", a.unique_tp_sets == b.unique_tp_sets),
        ("tours_tried", a.tours_tried == b.tours_tried),
        ("candidates", a.candidates == b.candidates),
        (
            "candidate_complexities",
            a.candidate_complexities == b.candidate_complexities,
        ),
        (
            "solver_iterations",
            a.solver_iterations == b.solver_iterations,
        ),
        ("solver_restarts", a.solver_restarts == b.solver_restarts),
        ("shard count", a.shard_micros.len() == b.shard_micros.len()),
        (
            "verify shard count",
            a.verify_shard_micros.len() == b.verify_shard_micros.len(),
        ),
    ];
    let differing: Vec<&str> = checks
        .iter()
        .filter(|(_, same)| !same)
        .map(|(name, _)| *name)
        .collect();
    (!differing.is_empty()).then(|| {
        format!(
            "replica differs in {} ({} vs {})",
            differing.join(", "),
            replica.test,
            reference.test
        )
    })
}

fn micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// `generate_with` at one worker, rebuilt from the layers' public
/// functions with a span around each call.
///
/// # Errors
///
/// Unknown solver, empty expansion or no schedulable tour — the same
/// cases `generate()` rejects.
pub fn generate_traced(
    request: &GenerateRequest,
    t: &mut Tracer,
    n: &mut Counts,
    screen_shards_us: &mut Vec<u64>,
) -> Result<GenerateOutcome, String> {
    let solver = SolverRegistry::default()
        .resolve(&request.solver)
        .map_err(|e| format!("unknown solver {}", e.name))?;
    let verifier = verifier_for(request);
    let mut diagnostics = Diagnostics {
        solver: solver.name().to_owned(),
        ..Diagnostics::default()
    };
    t.span("generate", |t| {
        let expand_started = Instant::now();
        let requirements = t.span("expand", |_| requirements_for(&request.faults));
        diagnostics.expand_micros = micros(expand_started);
        n.add("expand.requirements", requirements.len() as f64);
        if requirements.is_empty() {
            return Err("the fault list is empty".to_owned());
        }

        let search_started = Instant::now();
        let mut candidates = t.span("search", |t| {
            let limit = ClassCombinations::total(&requirements).min(request.max_combinations);
            diagnostics.combinations = limit;
            let tp_sets = t.span("enumerate", |_| {
                let mut seen = BTreeMap::new();
                let mut unique = Vec::new();
                for combo in ClassCombinations::range(&requirements, 0, limit) {
                    let mut tps = dedupe_subsumed(&combo);
                    tps.sort();
                    if seen.insert(tps.clone(), ()).is_none() {
                        unique.push(tps);
                    }
                }
                unique
            });
            diagnostics.unique_tp_sets = tp_sets.len();
            n.add("enumerate.combinations", limit as f64);
            n.add("enumerate.unique_tp_sets", tp_sets.len() as f64);

            let mut candidates: Vec<(MarchTest, Vec<TestPattern>)> = Vec::new();
            for tps in &tp_sets {
                let set_started = Instant::now();
                let tpg = Tpg::new(tps.clone());
                let (plans, stats) = t.span("solve", |_| {
                    plan_tour_with_stats(&tpg, request.start_policy, request.tour_cap, &*solver)
                });
                diagnostics.tours_tried += plans.len();
                diagnostics.solver_iterations += stats.iterations;
                diagnostics.solver_restarts += stats.restarts;
                n.add("solve.tours", plans.len() as f64);
                n.add("solve.iterations", stats.iterations as f64);
                for plan in plans {
                    let tour: Vec<TestPattern> = plan.order.iter().map(|&i| tps[i]).collect();
                    let test = t.span("schedule", |_| {
                        schedule_tour(&tour)
                            .ok()
                            .filter(|test| test.check_consistency().is_ok())
                    });
                    if let Some(test) = test {
                        candidates.push((test, tour));
                    }
                }
                diagnostics.shard_micros.push(micros(set_started));
            }
            diagnostics.candidates = candidates.len();
            n.add("schedule.candidates", candidates.len() as f64);
            candidates.sort_by_key(|(test, _)| (test.complexity(), test.element_count()));
            candidates.dedup_by(|a, b| a.0 == b.0);
            candidates
        });
        diagnostics.candidate_complexities = candidates
            .iter()
            .map(|(test, _)| test.complexity())
            .collect();
        diagnostics.search_micros = micros(search_started);
        if candidates.is_empty() {
            return Err("no tour could be scheduled into a march test".to_owned());
        }

        let Some(verifier) = verifier.as_deref() else {
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
        diagnostics.verifier = verifier.name().to_owned();
        let verify_started = Instant::now();
        let faults = &request.faults;
        t.span("verify", |t| {
            for (test, tour) in &candidates {
                let run = t.span("screen", |_| verifier.verify_sharded(test, faults, 1));
                n.add("screen.candidates_screened", 1.0);
                n.add("screen.shards", run.shard_micros.len() as f64);
                screen_shards_us.extend(&run.shard_micros);
                diagnostics.verify_shard_micros.extend(run.shard_micros);
                if run.report.complete() {
                    let test = if request.compact {
                        t.span("compact", |_| verifier.compact(test, faults).into_owned())
                    } else {
                        test.clone()
                    };
                    let run = t.span("reverify", |_| verifier.verify_sharded(&test, faults, 1));
                    diagnostics.verify_shard_micros.extend(run.shard_micros);
                    let non_redundant = (request.compact || request.check_redundancy).then(|| {
                        t.span("redundancy", |_| verifier.is_non_redundant(&test, faults))
                    });
                    diagnostics.verify_micros = micros(verify_started);
                    return Ok(GenerateOutcome {
                        test,
                        tour: tour.clone(),
                        verified: true,
                        report: Some(run.report),
                        non_redundant,
                        diagnostics,
                    });
                }
            }
            // Nothing verified: report the shortest candidate honestly.
            let (test, tour) = candidates.swap_remove(0);
            let run = t.span("reverify", |_| verifier.verify_sharded(&test, faults, 1));
            diagnostics.verify_shard_micros.extend(run.shard_micros);
            diagnostics.verify_micros = micros(verify_started);
            Ok(GenerateOutcome {
                test,
                tour,
                verified: false,
                report: Some(run.report),
                non_redundant: None,
                diagnostics,
            })
        })
    })
}
