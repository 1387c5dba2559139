//! `marchgend` — the long-running March-test generation service.
//!
//! A dependency-free HTTP/1.1 daemon (std `TcpListener` + worker pool,
//! no async runtime) wiring the three service bricks together: the
//! [`marchgen_daemon`] connection engine in front, the
//! [`marchgen_cache`] content-addressed outcome cache in the middle
//! (single-flight: concurrent identical requests fund one computation),
//! and [`marchgen::service::Batch`] underneath. The wire format is
//! exactly JSON schema v1 — the same documents `marchgen --json`
//! reads and writes.
//!
//! ```text
//! marchgend --addr 127.0.0.1:8378 --cache-dir .marchgen-cache
//!
//! POST /v1/generate   one GenerateRequest  → one GenerateOutcome
//! POST /v1/batch      [GenerateRequest...] → [{"outcome"|"error"}...]
//! GET|POST /v1/stream [GenerateRequest...] → chunked JSON-lines progress frames
//!     ?resume=ID&from=N                    → replay + re-attach to a running batch
//! POST /v1/rtl        march or GenerateRequest → SystemVerilog BIST bundle
//! GET  /v1/health     liveness + version
//! GET  /v1/stats      server / cache / stream / per-phase timing counters (JSON)
//! GET  /metrics       the same counters as Prometheus text exposition
//! GET|POST /v1/failpoints  fault-injection admin (no-op without the feature)
//! POST /v1/shutdown   graceful drain and exit
//! ```
//!
//! Observability ([`marchgen::obs`], docs/OBSERVABILITY.md): every
//! request feeds per-endpoint counters and latency histograms plus
//! per-phase duration histograms in one lock-sharded registry.
//! `GET /metrics` renders it in Prometheus format; `/v1/stats` is the
//! JSON view over the *same* atomics (mirrored at snapshot time), so
//! the two can never drift. A request carrying `?trace=1` or
//! `X-Trace: 1` additionally gets a span tree in its response's
//! `diagnostics.trace` block.
//!
//! Every `/v1/stream` batch is backed by a replay ring
//! ([`marchgen::resume`]): the first frame announces a `batch_id`,
//! every frame carries a monotone `seq`, and a client that loses its
//! connection mid-batch reconnects with `?resume=<batch_id>&from=<seq>`
//! to get the missed frames replayed byte-identically and then follow
//! live — the computation never restarts.

use marchgen::cache::{canonical_key_text, key_for_text, OutcomeCache, ShardedLru};
use marchgen::daemon::{
    FromJson, Json, RateLimitConfig, Reply, Request, Response, Server, ServerConfig, ServerStats,
    StreamResponse, ToJson,
};
use marchgen::faults::FAULT_CLASS_LABELS;
use marchgen::obs::{Histogram, Registry, SpanNode, Tracer};
use marchgen::resume::{CompleteOnDrop, FollowError, StreamRegistry};
use marchgen::rtl::RtlOptions;
use marchgen::service::Batch;
use marchgen::{known, Diagnostics, GenerateOutcome, GenerateRequest, MarchTest};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

#[path = "shared/args.rs"]
#[allow(dead_code)]
mod args;
use args::{take_option, take_str_option};

const USAGE: &str = "\
marchgend — HTTP service daemon for March test generation (JSON schema v1)

usage:
  marchgend [--addr HOST:PORT] [--cache-dir DIR] [--cache-capacity N]
            [--workers N] [--queue-capacity N] [--max-body-bytes N]
            [--rate-limit PER_SECOND] [--rate-burst N]
            [--slow-request-ms N]

  --addr            listen address (default 127.0.0.1:8378; port 0 picks
                    a free port — the bound address is printed on stdout)
  --cache-dir       persist outcomes as one JSON file per request hash;
                    shared across restarts and with `marchgen --cache-dir`
  --cache-capacity  in-memory LRU size, outcomes (default 4096)
  --workers         connection worker threads (default: one per CPU)
  --queue-capacity  bounded accept queue; beyond it clients get 429
                    (default 256)
  --max-body-bytes  largest accepted request body; beyond it 413
                    (default 1048576)
  --rate-limit      per-peer connection budget, connections/second
                    (fractions accepted; 0 = unlimited, the default).
                    Over-budget peers get 429 + Retry-After before
                    reaching a worker.
  --rate-burst      per-peer burst bucket size (default: 2x rate-limit,
                    at least 1); only meaningful with --rate-limit
  --slow-request-ms warn on stderr when serving a request (handler +
                    response write) takes at least this long
                    (default 1000; 0 disables)

endpoints: POST /v1/generate, POST /v1/batch, GET|POST /v1/stream
           (?resume=ID&from=N re-attaches to a running batch),
           POST /v1/rtl, GET /v1/health, GET /v1/stats, GET /metrics,
           GET|POST /v1/failpoints, POST /v1/shutdown
";

/// Capacity of the `/v1/rtl` render cache, in entries. Deliberately
/// smaller than the outcome cache: one RTL bundle is a multi-kilobyte
/// source file, and re-rendering from a cached outcome is cheap — the
/// cache only has to absorb repeated fetches of the same bundle.
const RTL_CACHE_CAPACITY: usize = 256;

/// One rendered `/v1/rtl` bundle. The canonical key text is stored next
/// to the code so a 128-bit key collision degrades to a re-render, never
/// to serving another request's bytes — the same safety contract as
/// [`OutcomeCache`].
struct RtlEntry {
    canonical: String,
    test: String,
    complexity: usize,
    name: String,
    code: String,
}

impl RtlEntry {
    /// The response document — the `marchgen codegen --json` envelope
    /// plus the `cache_hit` bit.
    fn to_json(&self, cache_hit: bool) -> Json {
        Json::object([
            ("schema", Json::Int(1)),
            ("test", Json::Str(self.test.clone())),
            ("complexity", Json::from(self.complexity)),
            ("lang", Json::from("sv")),
            ("name", Json::from(self.name.as_str())),
            ("code", Json::from(self.code.as_str())),
            ("cache_hit", Json::Bool(cache_hit)),
        ])
    }
}

/// Cumulative per-phase timing over every *computed* (non-cache-hit)
/// outcome this daemon produced, plus the wall time spent producing
/// them. Cache hits by design contribute nothing here — that is the
/// point of the cache — so `computed × phase` averages stay honest.
#[derive(Default)]
struct PhaseAggregates {
    computed: AtomicU64,
    expand_micros: AtomicU64,
    search_micros: AtomicU64,
    verify_micros: AtomicU64,
    wall_micros: AtomicU64,
}

impl PhaseAggregates {
    fn record(&self, diagnostics: &Diagnostics, wall_micros: u64) {
        self.computed.fetch_add(1, Ordering::Relaxed);
        self.expand_micros
            .fetch_add(diagnostics.expand_micros, Ordering::Relaxed);
        self.search_micros
            .fetch_add(diagnostics.search_micros, Ordering::Relaxed);
        self.verify_micros
            .fetch_add(diagnostics.verify_micros, Ordering::Relaxed);
        self.wall_micros.fetch_add(wall_micros, Ordering::Relaxed);
    }

    /// Folds one batch/stream call's results into the aggregates:
    /// per-phase micros for every *computed* (non-cache-hit) outcome,
    /// plus the call's shared wall time exactly once — and only when
    /// something was actually computed, so all-hit calls stay invisible
    /// (phases are per outcome; wall time is per call).
    fn record_batch<E>(&self, results: &[Result<GenerateOutcome, E>], wall_micros: u64) {
        let mut computed = false;
        for outcome in results.iter().flatten() {
            if !outcome.diagnostics.cache_hit {
                computed = true;
                self.record(&outcome.diagnostics, 0);
            }
        }
        if computed {
            self.wall_micros.fetch_add(wall_micros, Ordering::Relaxed);
        }
    }

    fn to_json(&self) -> Json {
        Json::object([
            (
                "computed",
                Json::from(self.computed.load(Ordering::Relaxed)),
            ),
            (
                "expand_micros",
                Json::from(self.expand_micros.load(Ordering::Relaxed)),
            ),
            (
                "search_micros",
                Json::from(self.search_micros.load(Ordering::Relaxed)),
            ),
            (
                "verify_micros",
                Json::from(self.verify_micros.load(Ordering::Relaxed)),
            ),
            (
                "wall_micros",
                Json::from(self.wall_micros.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// Bucket bounds for every duration histogram, µs: 100µs to 30s.
/// Generation runs span sub-millisecond cache hits to multi-second
/// pair-fault searches, so the grid is logarithmic-ish.
const DURATION_BUCKETS_MICROS: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000,
];

/// Family name + help for per-phase duration histograms — shared
/// between the tracer's observer (live spans: `request`, `decode`,
/// `generate`, `render`) and [`Metrics::record_outcome`] (generator
/// phases measured by the pipeline itself: `expand`, `search`,
/// `solve`, `schedule`, `verify`).
const PHASE_FAMILY: &str = "marchgend_phase_duration_microseconds";
const PHASE_HELP: &str = "Duration of one request phase, microseconds, labeled by phase \
                          (request/decode/generate/render are daemon wall time; \
                          expand/search/solve/schedule/verify come from generator diagnostics \
                          of computed, non-cache-hit outcomes).";

/// The daemon's metric surface: one shared lock-sharded [`Registry`]
/// holding both *owned* instruments (updated inline on the request
/// path) and *mirror* instruments (synced from the authoritative
/// atomics of other subsystems by [`App::sync_metrics`] at snapshot
/// time, so `/v1/stats` and `GET /metrics` can never disagree).
struct Metrics {
    registry: Arc<Registry>,
}

impl Metrics {
    fn new() -> Metrics {
        let registry = Arc::new(Registry::new());
        registry
            .gauge(
                "marchgend_build_info",
                "Constant 1, labeled with the daemon version.",
                &[("version", env!("CARGO_PKG_VERSION"))],
            )
            .set(1);
        Metrics { registry }
    }

    fn phase(&self, phase: &str) -> Arc<Histogram> {
        self.registry.histogram(
            PHASE_FAMILY,
            PHASE_HELP,
            &[("phase", phase)],
            DURATION_BUCKETS_MICROS,
        )
    }

    /// One routed request: endpoint/status-class counter plus the
    /// handler-latency histogram. For streaming endpoints the latency
    /// covers handler setup, not body delivery (the engine's
    /// slow-request warning covers the write).
    fn observe_http(&self, endpoint: &'static str, status: u16, micros: u64) {
        self.registry
            .counter(
                "marchgend_http_requests_total",
                "Requests dispatched to the application router, by endpoint and status class.",
                &[("endpoint", endpoint), ("class", status_class(status))],
            )
            .inc();
        self.registry
            .histogram(
                "marchgend_http_request_duration_microseconds",
                "Handler wall time per endpoint, microseconds (streaming endpoints count \
                 handler setup, not body delivery).",
                &[("endpoint", endpoint)],
                DURATION_BUCKETS_MICROS,
            )
            .observe(micros);
    }

    /// Phase histograms + solver counters for one *computed*
    /// (non-cache-hit) outcome. Cache hits contribute nothing — same
    /// contract as [`PhaseAggregates`].
    fn record_outcome(&self, diagnostics: &Diagnostics) {
        let (solve, schedule) = solve_schedule_split(diagnostics);
        self.phase("expand").observe(diagnostics.expand_micros);
        self.phase("search").observe(diagnostics.search_micros);
        self.phase("solve").observe(solve);
        self.phase("schedule").observe(schedule);
        // The verify phase is fed per shard when the backend sharded it
        // (one observation per verification shard, so the histogram
        // shows the distributed work units), falling back to the single
        // wall-clock observation for unsharded backends and documents
        // predating the sharded verifier.
        if diagnostics.verify_shard_micros.is_empty() {
            self.phase("verify").observe(diagnostics.verify_micros);
        } else {
            let verify = self.phase("verify");
            for &micros in &diagnostics.verify_shard_micros {
                verify.observe(micros);
            }
        }
        let verifier = if diagnostics.verifier.is_empty() {
            "none"
        } else {
            diagnostics.verifier.as_str()
        };
        self.registry
            .counter(
                "marchgend_verifier_outcomes_total",
                "Computed outcomes by resolved verification backend (\"none\" when \
                 verification was disabled).",
                &[("backend", verifier)],
            )
            .inc();
        let backend = if diagnostics.solver.is_empty() {
            "unknown"
        } else {
            diagnostics.solver.as_str()
        };
        self.registry
            .counter(
                "marchgend_solver_outcomes_total",
                "Computed outcomes by resolved ATSP solver backend.",
                &[("backend", backend)],
            )
            .inc();
        self.registry
            .counter(
                "marchgend_solver_iterations_total",
                "Improving local-search moves across computed outcomes, by backend.",
                &[("backend", backend)],
            )
            .add(diagnostics.solver_iterations);
        self.registry
            .counter(
                "marchgend_solver_restarts_total",
                "Local-search perturbation restarts across computed outcomes, by backend.",
                &[("backend", backend)],
            )
            .add(diagnostics.solver_restarts);
    }

    /// A per-request [`Tracer`]: its observer feeds the phase
    /// histograms on every live span drop; the span *tree* is
    /// collected only when the client asked for one.
    fn tracer(&self, collect_tree: bool) -> Tracer {
        let registry = Arc::clone(&self.registry);
        Tracer::new(collect_tree).with_observer(move |name, micros| {
            registry
                .histogram(
                    PHASE_FAMILY,
                    PHASE_HELP,
                    &[("phase", name)],
                    DURATION_BUCKETS_MICROS,
                )
                .observe(micros);
        })
    }
}

/// Splits `search_micros` into its solver and scheduling shares.
/// `shard_micros` are per-TP-set times (the solve plus the scheduling
/// of its tours) that may overlap in wall time (shards run in
/// parallel), so the solve share is clamped to the measured search wall
/// time; the remainder is enumeration, sorting and deduplication.
fn solve_schedule_split(diagnostics: &Diagnostics) -> (u64, u64) {
    let solve = diagnostics
        .shard_micros
        .iter()
        .sum::<u64>()
        .min(diagnostics.search_micros);
    (solve, diagnostics.search_micros - solve)
}

/// Synthesizes the generator's own phase timings (already measured by
/// the pipeline and reported in [`Diagnostics`]) as children of the
/// currently open span, so a traced request shows where the computed
/// time went: `expand`, `search` (→ `solve` + `schedule`), `verify`.
/// These go through [`Tracer::record`], which bypasses the observer —
/// [`Metrics::record_outcome`] already feeds the histograms.
fn record_phases(tracer: &Tracer, diagnostics: &Diagnostics) {
    let (solve, schedule) = solve_schedule_split(diagnostics);
    tracer.record("expand", diagnostics.expand_micros, |_| {});
    tracer.record("search", diagnostics.search_micros, |t| {
        t.record("solve", solve, |_| {});
        t.record("schedule", schedule, |_| {});
    });
    tracer.record("verify", diagnostics.verify_micros, |_| {});
}

/// `2xx`/`4xx`-style label value for the status-class counter.
fn status_class(status: u16) -> &'static str {
    match status / 100 {
        1 => "1xx",
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        5 => "5xx",
        _ => "other",
    }
}

/// Stable `endpoint` label values — a fixed vocabulary, so hostile
/// paths cannot mint unbounded label sets.
fn endpoint_label(route_path: &str) -> &'static str {
    match route_path {
        "/v1/generate" => "/v1/generate",
        "/v1/batch" => "/v1/batch",
        "/v1/stream" => "/v1/stream",
        "/v1/rtl" => "/v1/rtl",
        "/v1/health" => "/v1/health",
        "/v1/stats" => "/v1/stats",
        "/v1/failpoints" => "/v1/failpoints",
        "/v1/shutdown" => "/v1/shutdown",
        "/metrics" => "/metrics",
        _ => "other",
    }
}

/// `true` when the client asked for a span tree in the response
/// (`?trace=1` or `X-Trace: 1`).
fn trace_requested(request: &Request) -> bool {
    request.query_param("trace") == Some("1")
        || request.header("x-trace").map(str::trim) == Some("1")
}

/// Injects the assembled span tree into the outcome document's
/// `diagnostics` object as its `trace` key (top-level fallback only if
/// a future document shape drops `diagnostics`).
fn attach_trace(doc: &mut Json, root: &SpanNode) {
    let trace = span_json(root);
    if let Json::Object(pairs) = doc {
        if let Some((_, Json::Object(diagnostics))) =
            pairs.iter_mut().find(|(key, _)| key == "diagnostics")
        {
            diagnostics.push(("trace".to_owned(), trace));
        } else {
            pairs.push(("trace".to_owned(), trace));
        }
    }
}

/// `{"name": ..., "micros": ..., "children": [...]}` — leaves omit
/// `children` (docs/WIRE_FORMAT.md).
fn span_json(node: &SpanNode) -> Json {
    let mut pairs = vec![
        ("name".to_owned(), Json::from(node.name)),
        ("micros".to_owned(), Json::from(node.micros)),
    ];
    if !node.children.is_empty() {
        pairs.push((
            "children".to_owned(),
            Json::array(node.children.iter().map(span_json).collect::<Vec<_>>()),
        ));
    }
    Json::Object(pairs)
}

/// Help text of the per-`fault_class` request counter (shared by the
/// increment path and the fixed-vocabulary pre-registration).
const FAULT_CLASS_REQUESTS_HELP: &str =
    "Generation requests by fault class (one tick per distinct class in the request's \
     fault list; fixed label vocabulary).";

/// Help text of the per-`fault_class` verification-outcome counter.
const FAULT_CLASS_VERIFY_HELP: &str =
    "Served generation outcomes by fault class and verification outcome \
     (verified|unverified; fixed label vocabulary).";

/// The application half of the daemon: routing, codec glue, cache and
/// batch wiring. Shared by every connection worker.
struct App {
    cache: OutcomeCache,
    batch: Batch,
    // Resumable `/v1/stream` batches: batch_id → replay ring.
    streams: StreamRegistry,
    timing: PhaseAggregates,
    generate_requests: AtomicU64,
    batch_requests: AtomicU64,
    stream_requests: AtomicU64,
    rtl_requests: AtomicU64,
    // `/v1/rtl` render cache: canonical (march ⊕ normalized RTL knobs)
    // key text → emitted SystemVerilog. Separate from the outcome cache
    // because the value is rendered source, not a generation outcome.
    rtl_cache: ShardedLru<Arc<RtlEntry>>,
    rtl_hits: AtomicU64,
    rtl_misses: AtomicU64,
    // Set right after bind (the server owns counter allocation), read
    // by `/v1/stats`.
    server_stats: OnceLock<Arc<ServerStats>>,
    // The shared metrics registry behind `GET /metrics` and the
    // `/v1/stats` mirrors (docs/OBSERVABILITY.md).
    metrics: Metrics,
    // Process start, for `uptime_seconds`.
    started: Instant,
    // Monotone `/v1/stats` snapshot sequence: scrapers detect stale
    // snapshots (seq not advancing) and restarts (seq going backwards).
    stats_seq: AtomicU64,
}

impl App {
    /// Routes one request. Takes the owning [`Arc`] (not a plain
    /// `&self`) because the streaming endpoint's producer outlives this
    /// call: it runs on the connection worker after the response head
    /// is on the wire, so it must carry its own strong reference.
    fn handle(self: &Arc<App>, request: &Request) -> Reply {
        let endpoint = endpoint_label(request.route_path());
        let started = Instant::now();
        let reply = self.route(request);
        let status = match &reply {
            Reply::Full(response) => response.status,
            Reply::Stream(stream) => stream.status,
        };
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.observe_http(endpoint, status, micros);
        reply
    }

    fn route(self: &Arc<App>, request: &Request) -> Reply {
        // Routing matches on the path *without* its query string —
        // `/v1/stream?resume=...` still routes to the stream endpoint.
        match (request.method.as_str(), request.route_path()) {
            ("POST", "/v1/generate") => self.generate_endpoint(request).into(),
            ("POST", "/v1/batch") => self.batch_endpoint(&request.body).into(),
            ("POST", "/v1/rtl") => self.rtl_endpoint(&request.body).into(),
            // GET is accepted alongside POST so interactive clients
            // (curl without -d, browsers) can watch an empty-body
            // stream fail fast with a structured 400 instead of a
            // method error, and so resumption (which carries no body)
            // works from anything that can issue a plain GET.
            ("GET" | "POST", "/v1/stream") => self.stream_endpoint(request),
            ("GET" | "POST", "/v1/failpoints") => self.failpoints_endpoint(request).into(),
            ("GET", "/v1/health") => health_endpoint().into(),
            ("GET", "/v1/stats") => self.stats_endpoint().into(),
            ("GET", "/metrics") => self.metrics_endpoint().into(),
            ("POST", "/v1/shutdown") => {
                Response::json(&Json::object([("stopping", Json::Bool(true))]))
                    .with_shutdown()
                    .into()
            }
            (_, "/v1/generate" | "/v1/batch" | "/v1/rtl" | "/v1/shutdown") => Response::error(
                405,
                "method_not_allowed",
                format!("{} requires POST", request.route_path()),
            )
            .into(),
            (_, "/v1/health" | "/v1/stats" | "/metrics") => Response::error(
                405,
                "method_not_allowed",
                format!("{} requires GET", request.route_path()),
            )
            .into(),
            (_, "/v1/stream" | "/v1/failpoints") => Response::error(
                405,
                "method_not_allowed",
                format!("{} requires GET or POST", request.route_path()),
            )
            .into(),
            _ => Response::error(
                404,
                "not_found",
                format!("no endpoint {:?}; see /v1/health", request.path),
            )
            .into(),
        }
    }

    /// Decodes one request document; splits syntax (`400`) from schema
    /// (`422`) failures.
    fn decode_request(body: &[u8]) -> Result<GenerateRequest, Response> {
        let text = std::str::from_utf8(body)
            .map_err(|_| Response::error(400, "invalid_json", "body is not UTF-8"))?;
        let doc =
            Json::parse(text).map_err(|e| Response::error(400, "invalid_json", e.to_string()))?;
        GenerateRequest::from_json(&doc)
            .map_err(|e| Response::error(422, "invalid_request", e.message))
    }

    /// Runs one decoded request through the shared outcome cache — the
    /// compute core of `/v1/generate` and the generated-test path of
    /// `/v1/rtl`. Applies the daemon's anti-oversubscription rule and
    /// folds computed (non-cache-hit) outcomes into the timing
    /// aggregates; failures come back as a ready-to-send 422.
    fn run_generate(
        &self,
        mut request: GenerateRequest,
        tracer: &Tracer,
    ) -> Result<GenerateOutcome, Response> {
        // Same anti-oversubscription rule as `Batch::run_workers`: an
        // auto-threaded request would spawn one shard worker per CPU
        // inside a daemon that already runs one connection worker per
        // CPU. Pin it to a single shard worker whenever another request
        // is being served concurrently (the snapshot includes this
        // request, so in-flight ≥ 2 means real contention); a lone
        // request keeps the full machine. Never changes the outcome —
        // sharding is deterministic — or the cache key.
        let contended = self
            .server_stats
            .get()
            .map(|stats| stats.snapshot().in_flight >= 2)
            .unwrap_or(false);
        if contended && request.search_threads == 0 {
            request = request.with_search_threads(1);
        }
        self.count_fault_classes(&request);
        let started = Instant::now();
        let generate_span = tracer.span("generate");
        match self.cache.get_or_compute(&request, marchgen::generate) {
            Ok(outcome) => {
                self.count_verify_outcomes(&request, outcome.verified);
                if !outcome.diagnostics.cache_hit {
                    let wall = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                    self.timing.record(&outcome.diagnostics, wall);
                    self.metrics.record_outcome(&outcome.diagnostics);
                    // Synthesize the pipeline's own phase timings under
                    // the still-open `generate` span. Cache hits get no
                    // phase children: their Diagnostics micros describe
                    // the *original* computation, not this request.
                    record_phases(tracer, &outcome.diagnostics);
                }
                drop(generate_span);
                Ok(outcome)
            }
            Err(error) => Err(Response::error(
                422,
                "generation_failed",
                error_chain(&error),
            )),
        }
    }

    fn generate_endpoint(&self, request: &Request) -> Response {
        self.generate_requests.fetch_add(1, Ordering::Relaxed);
        // Chaos site: a fault inside the handler itself, before any
        // decoding — exercises the engine's structured-error path.
        marchgen_failpoint::fail_point!("marchgend.generate", |msg: String| Response::error(
            500,
            "injected_fault",
            msg
        ));
        let tracer = self.metrics.tracer(trace_requested(request));
        let mut doc = {
            let _request_span = tracer.span("request");
            let decoded = {
                let _decode = tracer.span("decode");
                App::decode_request(&request.body)
            };
            let generate_request = match decoded {
                Ok(generate_request) => generate_request,
                Err(response) => return response,
            };
            match self.run_generate(generate_request, &tracer) {
                Ok(outcome) => {
                    let _render = tracer.span("render");
                    outcome.to_json()
                }
                Err(response) => return response,
            }
        };
        // The `request` span just closed; attach the assembled tree to
        // the outcome's diagnostics when the client asked for it.
        if let Some(root) = tracer.finish().into_iter().next() {
            attach_trace(&mut doc, &root);
        }
        Response::json(&doc)
    }

    /// `POST /v1/rtl`: compiles a March test into the synthesizable
    /// SystemVerilog BIST bundle (`marchgen::rtl::emit_sv` — pattern
    /// generator FSM, BIST wrapper, self-checking testbench). The body
    /// either names the test directly —
    /// `{"march": "March C-", "rtl": {...}}`, accepting a known-test
    /// name or March notation — or is a plain [`GenerateRequest`]
    /// document with an optional `"rtl"` sibling key, in which case the
    /// test is generated (through the shared outcome cache) and must
    /// verify before any RTL is emitted. Rendered bundles are cached by
    /// the canonical (march ⊕ normalized options) key, so repeated
    /// fetches of the same hardware are a string clone.
    fn rtl_endpoint(&self, body: &[u8]) -> Response {
        self.rtl_requests.fetch_add(1, Ordering::Relaxed);
        let text = match std::str::from_utf8(body) {
            Ok(text) => text,
            Err(_) => return Response::error(400, "invalid_json", "body is not UTF-8"),
        };
        let doc = match Json::parse(text) {
            Ok(doc) => doc,
            Err(e) => return Response::error(400, "invalid_json", e.to_string()),
        };
        let options = match doc.get("rtl") {
            None => RtlOptions::default(),
            Some(node) => match RtlOptions::from_json(node) {
                Ok(options) => options,
                Err(e) => {
                    return Response::error(
                        422,
                        "invalid_request",
                        format!("\"rtl\": {}", e.message),
                    )
                }
            },
        };
        let options = options.normalize();
        let fragment = options.canonical_fragment();

        // Two ways to name the hardware under test: a march given
        // directly (validated, not re-generated), or a fault list the
        // generator turns into one. The canonical key text mirrors the
        // split so the two namespaces can never collide.
        let (test, canonical) = if let Some(node) = doc.get("march") {
            let Some(march) = node.as_str() else {
                return Response::error(
                    422,
                    "invalid_request",
                    "\"march\" must be a string (a known test name or March notation)",
                );
            };
            let parsed = known::by_name(march)
                .map(Ok)
                .unwrap_or_else(|| march.parse::<MarchTest>());
            let test = match parsed {
                Ok(test) => test,
                Err(e) => {
                    return Response::error(422, "invalid_request", format!("\"march\": {e}"))
                }
            };
            if let Err(e) = test.check_consistency() {
                return Response::error(
                    422,
                    "invalid_request",
                    format!("inconsistent march test: {e}"),
                );
            }
            let canonical = format!("rtl-direct/v1;march={};{fragment}", test.to_ascii());
            (test, canonical)
        } else {
            let request = match GenerateRequest::from_json(&doc) {
                Ok(request) => request,
                Err(e) => return Response::error(422, "invalid_request", e.message),
            };
            let canonical = format!("{};{fragment}", canonical_key_text(&request));
            let outcome = match self.run_generate(request, &Tracer::disabled()) {
                Ok(outcome) => outcome,
                Err(response) => return response,
            };
            if !outcome.verified {
                return Response::error(
                    422,
                    "generation_failed",
                    "generated test failed verification; refusing to emit unproven RTL",
                );
            }
            (outcome.test, canonical)
        };

        let key = key_for_text(&canonical);
        if let Some(entry) = self.rtl_cache.get(key) {
            if entry.canonical == canonical {
                self.rtl_hits.fetch_add(1, Ordering::Relaxed);
                return Response::json(&entry.to_json(true));
            }
        }
        self.rtl_misses.fetch_add(1, Ordering::Relaxed);
        let code = match marchgen::rtl::emit_sv(&test, &options) {
            Ok(code) => code,
            Err(e) => return Response::error(422, "invalid_request", e.to_string()),
        };
        let entry = Arc::new(RtlEntry {
            canonical,
            test: test.to_string(),
            complexity: test.complexity(),
            name: options.name.clone(),
            code,
        });
        self.rtl_cache.insert(key, Arc::clone(&entry));
        Response::json(&entry.to_json(false))
    }

    /// Decodes a batch document — a JSON array of request documents, or
    /// `{"requests": [...]}` — shared by `/v1/batch` and `/v1/stream`.
    /// Decode errors reject the whole document (the request itself is
    /// malformed); generation failures later stay per-item.
    fn decode_batch(body: &[u8]) -> Result<Vec<GenerateRequest>, Response> {
        let text = std::str::from_utf8(body)
            .map_err(|_| Response::error(400, "invalid_json", "body is not UTF-8"))?;
        let doc =
            Json::parse(text).map_err(|e| Response::error(400, "invalid_json", e.to_string()))?;
        let items = doc
            .as_array()
            .or_else(|| doc.get("requests").and_then(Json::as_array))
            .ok_or_else(|| {
                Response::error(
                    422,
                    "invalid_request",
                    "batch body must be an array of requests (or {\"requests\": [...]})",
                )
            })?;
        let mut requests = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            match GenerateRequest::from_json(item) {
                Ok(request) => requests.push(request),
                Err(e) => {
                    return Err(Response::error(
                        422,
                        "invalid_request",
                        format!("request #{index}: {}", e.message),
                    ))
                }
            }
        }
        Ok(requests)
    }

    /// `POST /v1/batch`: a JSON array of request documents (or
    /// `{"requests": [...]}`), answered as an array of
    /// `{"outcome": ...}` / `{"error": ...}` entries in input order —
    /// one bad generation never poisons its neighbours (decode errors
    /// do reject the whole document: the request itself is malformed).
    fn batch_endpoint(&self, body: &[u8]) -> Response {
        self.batch_requests.fetch_add(1, Ordering::Relaxed);
        let requests = match App::decode_batch(body) {
            Ok(requests) => requests,
            Err(response) => return response,
        };
        let started = Instant::now();
        let results = self.batch.run_cached(&self.cache, requests, |_| {});
        let wall = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.timing.record_batch(&results, wall);
        let entries = results.iter().map(|result| match result {
            Ok(outcome) => Json::object([("outcome", outcome.to_json())]),
            Err(error) => Json::object([("error", Json::Str(error_chain(error)))]),
        });
        Response::json(&Json::array(entries.collect::<Vec<_>>()))
    }

    /// `GET|POST /v1/stream`: the same batch document as `/v1/batch`,
    /// answered as a chunked JSON-lines stream of
    /// [`BatchEvent`](marchgen::service::BatchEvent) frames
    /// (`started` / `item` / terminal `completed`) emitted while the
    /// batch runs — long-running requests report progress instead of a
    /// silent multi-second POST. Decode errors are answered *buffered*
    /// (400/422 with the usual structured body): the status line is
    /// already on the wire once streaming starts, so all validation
    /// happens first.
    ///
    /// Every stream is resumable: the batch runs on its own thread and
    /// *publishes* frames into a [`marchgen::resume::BatchStream`]
    /// replay ring, announced up front by a `{"event":"batch"}` frame
    /// carrying the `batch_id` token; every frame carries a monotone
    /// `seq`. This connection is merely the ring's first follower — a
    /// peer hanging up cancels nothing (the batch keeps feeding the
    /// ring and any coalesced cache waiters), and the client comes back
    /// via `?resume=<batch_id>&from=<seq>` ([`App::resume_stream`]).
    fn stream_endpoint(self: &Arc<App>, request: &Request) -> Reply {
        self.stream_requests.fetch_add(1, Ordering::Relaxed);
        if let Some(batch_id) = request.query_param("resume") {
            return self.resume_stream(batch_id, request.query_param("from"));
        }
        let requests = match App::decode_batch(&request.body) {
            Ok(requests) => requests,
            Err(response) => return response.into(),
        };
        let app = Arc::clone(self);
        let stream = self.streams.begin();
        let request_id = request.request_id.clone();
        StreamResponse::new(move |sink| {
            stream.publish(|seq| {
                frame_line(
                    Json::object([
                        ("event", Json::from("batch")),
                        ("batch_id", Json::from(stream.id())),
                    ]),
                    seq,
                    &request_id,
                )
            });
            let produced = std::thread::scope(|scope| {
                let producer_stream = Arc::clone(&stream);
                let producer_request_id = request_id.clone();
                let producer = scope.spawn(move || {
                    // Completes the ring even if the batch panics, so
                    // followers (this connection and any resumers) are
                    // always released.
                    let _done = CompleteOnDrop(Arc::clone(&producer_stream));
                    let started = Instant::now();
                    let results = app.batch.run_cached(&app.cache, requests, |event| {
                        let doc = event.to_json();
                        producer_stream.publish(|seq| frame_line(doc, seq, &producer_request_id));
                    });
                    let wall = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                    app.timing.record_batch(&results, wall);
                });
                let followed = stream.follow(0, |line| sink.send(line.as_bytes()));
                // The batch always runs to completion — coalesced cache
                // waiters and future resumers depend on it — so a dead
                // peer merely stops this follower while the join waits.
                (producer.join(), followed)
            });
            let (ran, followed) = produced;
            if ran.is_err() {
                return Err(std::io::Error::other("stream batch producer panicked"));
            }
            match followed {
                Ok(()) => Ok(()),
                Err(FollowError::Io(error)) => Err(error),
                Err(FollowError::Gap { .. }) => Err(std::io::Error::other(
                    "stream client fell behind the replay ring",
                )),
            }
        })
        .into()
    }

    /// `GET /v1/stream?resume=<batch_id>&from=<seq>`: re-attaches to a
    /// live or recently-completed batch stream — frames still in the
    /// replay ring are resent byte-identically from `from`, then the
    /// follower tails live publishes to the terminal frame. Validation
    /// happens before the response head is written: a malformed `from`
    /// is a 422, an unknown/expired/evicted token a structured 404
    /// (`resume_unknown` — resubmit the batch), a start sequence that
    /// already left the ring a 410 (`resume_gap`).
    fn resume_stream(&self, batch_id: &str, from: Option<&str>) -> Reply {
        let from = match from.map_or(Ok(0), str::parse::<u64>) {
            Ok(from) => from,
            Err(_) => {
                return Response::error(
                    422,
                    "invalid_request",
                    "\"from\" must be a non-negative frame sequence number",
                )
                .into()
            }
        };
        let Some(stream) = self.streams.resume(batch_id) else {
            return Response::error(
                404,
                "resume_unknown",
                format!(
                    "no resumable batch {batch_id:?} (unknown, expired, or evicted); \
                     resubmit the batch"
                ),
            )
            .into();
        };
        if let Err(oldest) = stream.check_from(from) {
            return Response::error(
                410,
                "resume_gap",
                format!(
                    "frames before seq {oldest} have left the replay ring; \
                     resume with from={oldest} (accepting a gap) or resubmit the batch"
                ),
            )
            .into();
        }
        StreamResponse::new(move |sink| {
            match stream.follow(from, |line| sink.send(line.as_bytes())) {
                Ok(()) => Ok(()),
                Err(FollowError::Io(error)) => Err(error),
                // An eviction raced the check above; refuse to skip
                // frames silently — the truncated stream (no terminal
                // frame) tells the client to start over.
                Err(FollowError::Gap { oldest }) => Err(std::io::Error::other(format!(
                    "replay ring overtook the resume point (oldest retained seq {oldest})"
                ))),
            }
        })
        .into()
    }

    /// `GET /v1/failpoints` lists armed fault-injection sites;
    /// `POST /v1/failpoints` re-arms them with the same grammar as the
    /// `MARCHGEND_FAILPOINTS` environment variable —
    /// `{"config": "cache.disk.write=err(boom);daemon.socket.write=delay(50)"}`
    /// merges sites (`site=off` disarms one), `{"clear": true}` disarms
    /// everything. In a build without the `failpoints` cargo feature the
    /// sites do not exist: GET reports `"enabled": false` and POST
    /// answers 501 `failpoints_disabled`.
    fn failpoints_endpoint(&self, request: &Request) -> Response {
        if request.method == "GET" {
            return failpoints_table();
        }
        if !marchgen_failpoint::enabled() {
            return Response::error(
                501,
                "failpoints_disabled",
                "this build has no fault-injection sites; rebuild with --features failpoints",
            );
        }
        let text = match std::str::from_utf8(&request.body) {
            Ok(text) => text,
            Err(_) => return Response::error(400, "invalid_json", "body is not UTF-8"),
        };
        let doc = match Json::parse(text) {
            Ok(doc) => doc,
            Err(e) => return Response::error(400, "invalid_json", e.to_string()),
        };
        if let Some(node) = doc.get("config") {
            let Some(config) = node.as_str() else {
                return Response::error(422, "invalid_request", "\"config\" must be a string");
            };
            if let Err(message) = marchgen_failpoint::configure(config) {
                return Response::error(422, "invalid_request", message);
            }
        } else if doc.get("clear").and_then(Json::as_bool) == Some(true) {
            marchgen_failpoint::clear();
        } else {
            return Response::error(
                422,
                "invalid_request",
                "body must be {\"config\": \"site=spec;...\"} or {\"clear\": true}",
            );
        }
        failpoints_table()
    }

    /// `GET /metrics`: the registry in Prometheus text exposition
    /// format. Mirror instruments are synced first, so a scrape and a
    /// concurrent `/v1/stats` read the same authoritative atomics.
    fn metrics_endpoint(&self) -> Response {
        // Chaos site: a fault inside the scrape path itself — verifies
        // a panicking/failing exposition answers structured errors
        // without poisoning the registry for the next scrape.
        marchgen_failpoint::fail_point!("marchgend.metrics", |msg: String| Response::error(
            500,
            "injected_fault",
            msg
        ));
        self.sync_metrics();
        self.metrics
            .registry
            .counter(
                "marchgend_metrics_scrapes_total",
                "Completed GET /metrics expositions.",
                &[],
            )
            .inc();
        Response::text(self.metrics.registry.render(), "text/plain; version=0.0.4")
    }

    /// Increments the per-`fault_class` request counters: one tick per
    /// distinct class label in the request's fault list. The label set
    /// is the fixed [`FAULT_CLASS_LABELS`] vocabulary, so cardinality
    /// is bounded regardless of request contents.
    fn count_fault_classes(&self, request: &GenerateRequest) {
        let mut seen: Vec<&'static str> = request
            .faults
            .iter()
            .map(marchgen::FaultModel::class_label)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        for label in seen {
            self.metrics
                .registry
                .counter(
                    "marchgend_fault_class_requests_total",
                    FAULT_CLASS_REQUESTS_HELP,
                    &[("fault_class", label)],
                )
                .inc();
        }
    }

    /// Increments the per-`fault_class` verification-outcome counters
    /// for a served generation (cache hits included — the outcome is
    /// what the client received).
    fn count_verify_outcomes(&self, request: &GenerateRequest, verified: bool) {
        let outcome = if verified { "verified" } else { "unverified" };
        let mut seen: Vec<&'static str> = request
            .faults
            .iter()
            .map(marchgen::FaultModel::class_label)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        for label in seen {
            self.metrics
                .registry
                .counter(
                    "marchgend_fault_class_verify_total",
                    FAULT_CLASS_VERIFY_HELP,
                    &[("fault_class", label), ("outcome", outcome)],
                )
                .inc();
        }
    }

    /// Copies every externally owned statistic (server stats, outcome
    /// cache, RTL cache, stream registry, uptime) into its mirror
    /// instrument. Called on both snapshot paths (`/v1/stats` and
    /// `/metrics`) — both views therefore render from the same
    /// registry state and cannot drift.
    fn sync_metrics(&self) {
        let registry = &self.metrics.registry;
        registry
            .gauge(
                "marchgend_uptime_seconds",
                "Seconds since process start.",
                &[],
            )
            .set(i64::try_from(self.started.elapsed().as_secs()).unwrap_or(i64::MAX));

        let server = self
            .server_stats
            .get()
            .map(|stats| stats.snapshot())
            .unwrap_or_default();
        let mirror = |name: &str, help: &str, labels: &[(&str, &str)], value: u64| {
            registry.counter(name, help, labels).store(value);
        };
        mirror(
            "marchgend_connections_total",
            "TCP connections accepted, including ones later rejected.",
            &[],
            server.connections,
        );
        mirror(
            "marchgend_requests_total",
            "Requests fully parsed and dispatched to the application handler.",
            &[],
            server.requests,
        );
        registry
            .gauge(
                "marchgend_in_flight",
                "Requests currently being served (handler execution plus response write).",
                &[],
            )
            .set(i64::try_from(server.in_flight).unwrap_or(i64::MAX));
        let rejected_help =
            "Connections/requests turned away before dispatch, by reason (queue_full and \
             rate_limited answer 429; shutdown answers 503).";
        mirror(
            "marchgend_rejected_total",
            rejected_help,
            &[("reason", "queue_full")],
            server.rejected_queue_full,
        );
        mirror(
            "marchgend_rejected_total",
            rejected_help,
            &[("reason", "rate_limited")],
            server.rejected_rate_limited,
        );
        mirror(
            "marchgend_rejected_total",
            rejected_help,
            &[("reason", "shutdown")],
            server.rejected_shutdown,
        );
        let limiter_help = "Per-peer rate limiter decisions by outcome (zero when no limiter \
                            is configured).";
        mirror(
            "marchgend_limiter_decisions_total",
            limiter_help,
            &[("outcome", "allow")],
            server.rate_limit_allowed,
        );
        mirror(
            "marchgend_limiter_decisions_total",
            limiter_help,
            &[("outcome", "reject")],
            server.rejected_rate_limited,
        );
        mirror(
            "marchgend_protocol_errors_total",
            "Requests rejected at the protocol layer (4xx before dispatch).",
            &[],
            server.protocol_errors,
        );
        mirror(
            "marchgend_streams_started_total",
            "Streaming responses started (each pins a worker for its duration).",
            &[],
            server.streams,
        );
        registry
            .gauge(
                "marchgend_streams_active",
                "Streaming responses currently on the wire.",
                &[],
            )
            .set(i64::try_from(server.streams_active).unwrap_or(i64::MAX));

        let cache = self.cache.stats();
        let hits_help = "Outcome cache hits by tier.";
        mirror(
            "marchgend_cache_hits_total",
            hits_help,
            &[("tier", "memory")],
            cache.memory_hits,
        );
        mirror(
            "marchgend_cache_hits_total",
            hits_help,
            &[("tier", "disk")],
            cache.disk_hits,
        );
        mirror(
            "marchgend_cache_misses_total",
            "Outcome cache misses (a generation was computed).",
            &[],
            cache.misses,
        );
        mirror(
            "marchgend_cache_inserts_total",
            "Outcomes inserted into the cache.",
            &[],
            cache.inserts,
        );
        mirror(
            "marchgend_cache_evictions_total",
            "Outcomes evicted from the in-memory LRU.",
            &[],
            cache.evictions,
        );
        mirror(
            "marchgend_cache_coalesced_total",
            "Requests served by waiting on an identical in-flight computation \
             (single-flight).",
            &[],
            cache.coalesced,
        );
        mirror(
            "marchgend_cache_key_mismatches_total",
            "128-bit key collisions detected by canonical-text comparison (each degraded \
             to a recompute, never to serving foreign bytes).",
            &[],
            cache.key_mismatches,
        );
        mirror(
            "marchgend_cache_key_schema_stale_total",
            "Misses whose request still has a persisted entry under the previous cache \
             key schema — recomputes forced by a schema bump, not a cold cache.",
            &[],
            cache.key_schema_stale,
        );
        // Fixed fault-class vocabulary: every series exists from the
        // first scrape (zeros, not gaps), and cardinality is bounded by
        // the taxonomy rather than by traffic.
        for label in FAULT_CLASS_LABELS {
            let _ = registry.counter(
                "marchgend_fault_class_requests_total",
                FAULT_CLASS_REQUESTS_HELP,
                &[("fault_class", label)],
            );
            for outcome in ["verified", "unverified"] {
                let _ = registry.counter(
                    "marchgend_fault_class_verify_total",
                    FAULT_CLASS_VERIFY_HELP,
                    &[("fault_class", label), ("outcome", outcome)],
                );
            }
        }
        // Fixed verification-backend vocabulary, same contract: the
        // trait names of the in-tree backends, "none" for
        // verification-disabled requests, and "bitsim", the retired
        // 64-lane backend, kept so no exposed series disappears.
        for backend in ["simulator", "bitsim", "widesim", "none"] {
            let _ = registry.counter(
                "marchgend_verifier_outcomes_total",
                "Computed outcomes by resolved verification backend (\"none\" when \
                 verification was disabled).",
                &[("backend", backend)],
            );
        }
        registry
            .gauge(
                "marchgend_cache_resident",
                "Outcomes currently resident in the in-memory LRU.",
                &[],
            )
            .set(i64::try_from(self.cache.resident()).unwrap_or(i64::MAX));
        // Disk-tier families exist only when a disk tier is configured
        // — same contract as the JSON view: absent, not zero.
        if let Some(disk) = cache.disk {
            registry
                .gauge(
                    "marchgend_cache_disk_degraded",
                    "1 while the disk tier is in degraded (memory-only) mode, else 0.",
                    &[],
                )
                .set(i64::from(disk.degraded));
            mirror(
                "marchgend_cache_disk_quarantined_total",
                "Corrupt disk entries quarantined instead of served.",
                &[],
                disk.quarantined,
            );
            mirror(
                "marchgend_cache_disk_write_failures_total",
                "Failed disk-tier writes (each pushes toward degraded mode).",
                &[],
                disk.write_failures,
            );
            mirror(
                "marchgend_cache_disk_probes_total",
                "Recovery probes issued while the disk tier was degraded.",
                &[],
                disk.probes,
            );
        }

        let rtl_help = "RTL render cache traffic.";
        mirror(
            "marchgend_rtl_cache_hits_total",
            rtl_help,
            &[],
            self.rtl_hits.load(Ordering::Relaxed),
        );
        mirror(
            "marchgend_rtl_cache_misses_total",
            rtl_help,
            &[],
            self.rtl_misses.load(Ordering::Relaxed),
        );
        mirror(
            "marchgend_rtl_cache_evictions_total",
            rtl_help,
            &[],
            self.rtl_cache.evictions(),
        );
        registry
            .gauge(
                "marchgend_rtl_cache_resident",
                "RTL bundles currently resident in the render cache.",
                &[],
            )
            .set(i64::try_from(self.rtl_cache.len()).unwrap_or(i64::MAX));

        let streams = self.streams.snapshot();
        registry
            .gauge(
                "marchgend_stream_batches_retained",
                "Batches currently resumable (running or within retention).",
                &[],
            )
            .set(i64::try_from(streams.retained).unwrap_or(i64::MAX));
        mirror(
            "marchgend_stream_batches_started_total",
            "Batch replay rings ever registered.",
            &[],
            streams.started,
        );
        mirror(
            "marchgend_stream_resumes_total",
            "Successful ?resume= re-attachments.",
            &[],
            streams.resumed,
        );
        mirror(
            "marchgend_stream_batches_expired_total",
            "Completed batches dropped after their retention window.",
            &[],
            streams.expired,
        );
        mirror(
            "marchgend_stream_batches_evicted_total",
            "Batches dropped early because the registry hit its retention cap.",
            &[],
            streams.evicted,
        );
        mirror(
            "marchgend_stream_frames_published_total",
            "Frames published into replay rings.",
            &[],
            streams.frames_published,
        );
        mirror(
            "marchgend_stream_frames_replayed_total",
            "Frames delivered to followers (ring replays and live tails alike).",
            &[],
            streams.frames_replayed,
        );
        mirror(
            "marchgend_stream_frames_dropped_total",
            "Frames evicted from a ring that outgrew its capacity.",
            &[],
            streams.frames_dropped,
        );
        registry
            .gauge(
                "marchgend_stream_ring_frames",
                "Frames currently held across every retained replay ring.",
                &[],
            )
            .set(i64::try_from(streams.ring_frames).unwrap_or(i64::MAX));
    }

    fn stats_endpoint(&self) -> Response {
        // Keep the Prometheus mirrors in lockstep with this JSON
        // snapshot — both endpoints sample the same atomics.
        self.sync_metrics();
        let stats_seq = self.stats_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let server = self
            .server_stats
            .get()
            .map(|stats| stats.snapshot())
            .unwrap_or_default();
        let cache = self.cache.stats();
        let streams = self.streams.snapshot();
        let mut cache_pairs: Vec<(String, Json)> = [
            ("memory_hits", Json::from(cache.memory_hits)),
            ("disk_hits", Json::from(cache.disk_hits)),
            ("hits", Json::from(cache.hits())),
            ("misses", Json::from(cache.misses)),
            ("inserts", Json::from(cache.inserts)),
            ("evictions", Json::from(cache.evictions)),
            ("coalesced", Json::from(cache.coalesced)),
            ("key_mismatches", Json::from(cache.key_mismatches)),
            ("key_schema_stale", Json::from(cache.key_schema_stale)),
            ("resident", Json::from(self.cache.resident())),
        ]
        .into_iter()
        .map(|(key, value)| (key.to_owned(), value))
        .collect();
        // Disk-tier health appears only when a disk tier is configured:
        // `disk_degraded: false` on a memory-only daemon would read as
        // "the disk is fine" when there is no disk.
        if let Some(disk) = cache.disk {
            cache_pairs.extend([
                ("disk_degraded".to_owned(), Json::Bool(disk.degraded)),
                ("disk_quarantined".to_owned(), Json::from(disk.quarantined)),
                (
                    "disk_write_failures".to_owned(),
                    Json::from(disk.write_failures),
                ),
                ("disk_probes".to_owned(), Json::from(disk.probes)),
            ]);
        }
        Response::json(&Json::object([
            (
                "uptime_seconds",
                Json::from(self.started.elapsed().as_secs()),
            ),
            ("stats_seq", Json::from(stats_seq)),
            (
                "server",
                Json::object([
                    ("connections", Json::from(server.connections)),
                    ("requests", Json::from(server.requests)),
                    ("in_flight", Json::from(server.in_flight)),
                    (
                        "rejected_queue_full",
                        Json::from(server.rejected_queue_full),
                    ),
                    (
                        "rejected_rate_limited",
                        Json::from(server.rejected_rate_limited),
                    ),
                    ("rate_limit_allowed", Json::from(server.rate_limit_allowed)),
                    ("rejected_shutdown", Json::from(server.rejected_shutdown)),
                    ("protocol_errors", Json::from(server.protocol_errors)),
                    ("streams", Json::from(server.streams)),
                    ("streams_active", Json::from(server.streams_active)),
                ]),
            ),
            ("cache", Json::object(cache_pairs)),
            (
                "streams",
                Json::object([
                    ("retained", Json::from(streams.retained)),
                    ("started", Json::from(streams.started)),
                    ("resumed", Json::from(streams.resumed)),
                    ("expired", Json::from(streams.expired)),
                    ("evicted", Json::from(streams.evicted)),
                    ("frames_published", Json::from(streams.frames_published)),
                    ("frames_replayed", Json::from(streams.frames_replayed)),
                    ("frames_dropped", Json::from(streams.frames_dropped)),
                    ("ring_frames", Json::from(streams.ring_frames)),
                ]),
            ),
            (
                "rtl_cache",
                Json::object([
                    ("hits", Json::from(self.rtl_hits.load(Ordering::Relaxed))),
                    (
                        "misses",
                        Json::from(self.rtl_misses.load(Ordering::Relaxed)),
                    ),
                    ("resident", Json::from(self.rtl_cache.len())),
                    ("evictions", Json::from(self.rtl_cache.evictions())),
                ]),
            ),
            ("timing", self.timing.to_json()),
            (
                "endpoints",
                Json::object([
                    (
                        "generate",
                        Json::from(self.generate_requests.load(Ordering::Relaxed)),
                    ),
                    (
                        "batch",
                        Json::from(self.batch_requests.load(Ordering::Relaxed)),
                    ),
                    (
                        "stream",
                        Json::from(self.stream_requests.load(Ordering::Relaxed)),
                    ),
                    ("rtl", Json::from(self.rtl_requests.load(Ordering::Relaxed))),
                ]),
            ),
        ]))
    }
}

/// Renders one stream frame: the event document plus the originating
/// request's `"request_id"` and the ring-assigned `"seq"` (appended in
/// that order, so the frame prefix clients already parse is unchanged
/// and `"seq"` stays the terminal key). The request id rides on every
/// frame because a resumed follower replays ring bytes verbatim and
/// never saw the original response headers — this is its only way to
/// correlate frames with the submitting request's access-log lines.
fn frame_line(mut doc: Json, seq: u64, request_id: &str) -> String {
    if let Json::Object(pairs) = &mut doc {
        pairs.push(("request_id".to_owned(), Json::from(request_id)));
        pairs.push(("seq".to_owned(), Json::from(seq)));
    }
    let mut line = doc.render();
    line.push('\n');
    line
}

/// The `/v1/failpoints` response body: whether the build carries
/// injection sites at all, and which are currently armed.
fn failpoints_table() -> Response {
    Response::json(&Json::object([
        ("enabled", Json::Bool(marchgen_failpoint::enabled())),
        (
            "failpoints",
            Json::array(
                marchgen_failpoint::list()
                    .into_iter()
                    .map(|(name, spec)| {
                        Json::object([("name", Json::Str(name)), ("config", Json::Str(spec))])
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
    ]))
}

fn health_endpoint() -> Response {
    Response::json(&Json::object([
        ("status", Json::from("ok")),
        ("service", Json::from("marchgend")),
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        // The wire *document* schema (docs/WIRE_FORMAT.md), not the
        // cache KEY_SCHEMA — the two version independently.
        ("schema", Json::Int(1)),
    ]))
}

/// Flattens an error and its sources into one line.
fn error_chain(error: &dyn std::error::Error) -> String {
    let mut text = error.to_string();
    let mut source = error.source();
    while let Some(cause) = source {
        text.push_str(": ");
        text.push_str(&cause.to_string());
        source = cause.source();
    }
    text
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Ok(());
    }
    let addr = take_str_option(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:8378".to_owned());
    let cache_dir = take_str_option(&mut args, "--cache-dir")?;
    let cache_capacity = take_option(&mut args, "--cache-capacity")?.unwrap_or(4096);
    // One stderr line per served request, carrying the request id —
    // the daemon's only log stream, so operators can correlate client
    // reports (which echo the same id) with server-side activity.
    let mut config = ServerConfig {
        log_requests: true,
        ..ServerConfig::default()
    };
    if let Some(workers) = take_option(&mut args, "--workers")? {
        config.workers = workers;
    }
    if let Some(queue) = take_option(&mut args, "--queue-capacity")? {
        config.queue_capacity = queue;
    }
    if let Some(max_body) = take_option(&mut args, "--max-body-bytes")? {
        config.max_body_bytes = max_body;
    }
    if let Some(millis) = take_option(&mut args, "--slow-request-ms")? {
        config.slow_request_millis = millis as u64;
    }
    let take_f64 = |args: &mut Vec<String>, name: &str| -> Result<Option<f64>, String> {
        match take_str_option(args, name)? {
            None => Ok(None),
            Some(text) => text
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .map(Some)
                .ok_or_else(|| format!("{name} needs a non-negative number, got {text:?}")),
        }
    };
    let rate_limit = take_f64(&mut args, "--rate-limit")?;
    let rate_burst = take_f64(&mut args, "--rate-burst")?;
    match rate_limit {
        // 0 (the default) disables limiting entirely.
        None | Some(0.0) => {
            if rate_burst.is_some() {
                return Err("--rate-burst needs --rate-limit".to_owned());
            }
        }
        Some(per_second) => {
            // Default burst: double the sustained rate, so short spikes
            // from a healthy client pool ride through while a sustained
            // overrun still hits the limit within a couple of seconds.
            let burst = rate_burst.unwrap_or(per_second * 2.0);
            config.rate_limit = Some(RateLimitConfig::new(per_second, burst));
        }
    }
    if !args.is_empty() {
        return Err(format!("unrecognized arguments {args:?}\n\n{USAGE}"));
    }

    let mut cache = OutcomeCache::new(cache_capacity);
    if let Some(dir) = &cache_dir {
        cache = cache
            .with_disk(dir)
            .map_err(|e| format!("cannot open cache dir {dir:?}: {e}"))?;
    }
    let app = Arc::new(App {
        cache,
        batch: Batch::new(),
        streams: StreamRegistry::new(),
        timing: PhaseAggregates::default(),
        generate_requests: AtomicU64::new(0),
        batch_requests: AtomicU64::new(0),
        stream_requests: AtomicU64::new(0),
        rtl_requests: AtomicU64::new(0),
        rtl_cache: ShardedLru::new(RTL_CACHE_CAPACITY),
        rtl_hits: AtomicU64::new(0),
        rtl_misses: AtomicU64::new(0),
        server_stats: OnceLock::new(),
        metrics: Metrics::new(),
        started: Instant::now(),
        stats_seq: AtomicU64::new(0),
    });

    let handler_app = Arc::clone(&app);
    let server = Server::bind(addr.as_str(), config, move |request: &Request| {
        handler_app.handle(request)
    })
    .map_err(|e| format!("cannot bind {addr:?}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    app.server_stats
        .set(server.stats())
        .unwrap_or_else(|_| unreachable!("stats set once, right after bind"));

    // One parseable line on stdout: smoke tests and process managers
    // scrape the bound address from it (important with port 0). Writes
    // are fallible on purpose — a supervisor may close the pipe after
    // scraping, and a dead stdout must not kill a draining daemon.
    use std::io::Write as _;
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "marchgend listening on http://{bound}");
    let _ = stdout.flush();

    server.run();
    let _ = writeln!(stdout, "marchgend: drained and shut down");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
