//! `marchbench`: the marchgen benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path marchbench/Cargo.toml --bin marchbench -- \
//!     --workload cold_search --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. It builds the release `marchgend`,
//! starts it on loopback and drives one workload with closed-loop
//! clients for `--seconds`, then checks every answer. With `--trace 0`
//! the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics: the same window is
//! driven with client-side timing, and its inputs are then replayed
//! in-process with spans around each layer (see `replay`).
//!
//! Exit status: 0 when every check passed, 1 when a check failed (the
//! result line then says `"correct": false`), 2 when the benchmark
//! could not run at all.

use marchbench::check;
use marchbench::daemon::{self, Daemon};
use marchbench::http::{Client, Exchange};
use marchbench::pools::{self, ColdPool, Entry, SplitMix64};
use marchbench::replay::Replay;
use marchbench::stats::{median, percentile};
use marchbench::trace::totals_by_name;
use marchgen::json::Json;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Daemon starts per run for the cold workloads; `setup_s` is their
/// median.
const COLD_SETUPS: usize = 21;
/// Daemon starts (each with priming) per `warm_hits` run.
const WARM_SETUPS: usize = 5;
/// Operations a window must complete, so that p90 has at least ten
/// samples beyond it; the window runs past `--seconds` until then.
const MIN_OPERATIONS: usize = 100;
/// What `error_rate` reads for a run without failures: one in a
/// million, below anything a run can resolve, but never 0, so that its
/// spread and its ratio to a parent's value stay defined.
const ERROR_RATE_FLOOR: f64 = 1e-6;
/// Requests per `/v1/stream` batch in `cold_verify`.
const STREAM_BATCH: usize = 4;
/// Closed-loop clients in `warm_hits`.
const WARM_CLIENTS: usize = 2;
/// Requests the daemon serves on one keep-alive connection before it
/// closes it without saying so; mirrors `MAX_KEEPALIVE_REQUESTS` in
/// `crates/daemon/src/server.rs`. Workload clients close each
/// connection after this many answers themselves, as if the daemon had
/// announced it, so no operation meets the unannounced close; the
/// traced run measures the defect apart (`keepalive_drops`).
const DAEMON_KEEPALIVE_REQUESTS: u64 = 1024;
/// Operations of the window the traced run replays in-process.
const REPLAY_COLD_SEARCH: usize = 48;
const REPLAY_COLD_VERIFY: usize = 24;
const REPLAY_WARM: usize = 2000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdSearch,
    ColdVerify,
    WarmHits,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "cold_search" => Workload::ColdSearch,
                    "cold_verify" => Workload::ColdVerify,
                    "warm_hits" => Workload::WarmHits,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (cold_search, cold_verify, warm_hits)")?,
        seed,
        seconds,
        trace,
    })
}

/// What the timed window observed.
#[derive(Default)]
struct Window {
    elapsed: Duration,
    /// One per successful operation.
    timings: Vec<Timing>,
    attempted: u64,
    failed: u64,
    outcomes: u64,
    /// What went wrong, one line per failed operation.
    failures: Vec<String>,
    ttfb: Duration,
    connect: Duration,
    connections: u64,
    clients: u64,
    /// Distinct response bodies to check: the entries each answers, the
    /// body, and how many operations received it. `Timing::reply`
    /// indexes it.
    replies: Vec<(Vec<Entry>, Vec<u8>, u64)>,
    /// Request bodies of the first operations, for the replay.
    replay: Vec<Vec<u8>>,
}

impl Window {
    fn absorb(&mut self, other: Window) {
        self.elapsed = self.elapsed.max(other.elapsed);
        let offset = self.replies.len();
        self.timings
            .extend(other.timings.into_iter().map(|t| Timing {
                reply: t.reply + offset,
                ..t
            }));
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.outcomes += other.outcomes;
        self.failures.extend(other.failures);
        self.ttfb += other.ttfb;
        self.connect += other.connect;
        self.connections += other.connections;
        self.clients += other.clients;
        self.replies.extend(other.replies);
        self.replay.extend(other.replay);
    }

    /// Closes one client's share of the window. `last_pass` is the pass
    /// of its last request: timings from that unfinished pass are
    /// dropped, so latencies and `mean_complexity` cover whole passes
    /// over the same inputs, however far into the next pass the window
    /// happened to reach.
    fn finish_client(&mut self, client: &Client, started: Instant, last_pass: usize) {
        self.elapsed = started.elapsed();
        self.connect += client.connect_time;
        self.connections += client.connections;
        self.clients += 1;
        if last_pass > 0 {
            self.timings.retain(|t| t.pass < last_pass);
        }
    }
}

/// The timing of one successful operation.
struct Timing {
    /// Which pass over the inputs the operation belongs to.
    pass: usize,
    /// Index of the operation's response in `Window::replies`.
    reply: usize,
    /// Request written → last byte read.
    latency_ms: f64,
    /// Request written → first outcome (`first`).
    first_ms: f64,
}

impl Timing {
    fn new(pass: usize, index: usize, reply: &Exchange, first: Instant) -> Timing {
        Timing {
            pass,
            reply: index,
            latency_ms: ms(reply.done - reply.sent),
            first_ms: ms(first - reply.sent),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn keep_going(started: Instant, budget: Duration, done: usize) -> bool {
    started.elapsed() < budget || done < MIN_OPERATIONS
}

/// A workload client: keep-alive, at most `DAEMON_KEEPALIVE_REQUESTS`
/// requests per connection.
fn client(addr: SocketAddr) -> Client {
    Client::new(addr).with_max_requests(DAEMON_KEEPALIVE_REQUESTS)
}

/// Posts one operation worth `outcomes` outcomes and books it: time to
/// first byte on success, a failure (which fails the run) otherwise.
fn post(
    window: &mut Window,
    client: &mut Client,
    path: &str,
    body: &[u8],
    outcomes: u64,
) -> Option<Exchange> {
    window.attempted += outcomes;
    let failure = match client.send("POST", path, body) {
        Ok(reply) if reply.success() => {
            window.ttfb += reply.first_byte - reply.sent;
            return Some(reply);
        }
        Ok(reply) => format!("{path}: status {}", reply.status),
        Err(error) => format!("{path}: {error}"),
    };
    window.failed += outcomes;
    window.failures.push(failure);
    None
}

/// The known keep-alive defect, measured outside the window: sends
/// `DAEMON_KEEPALIVE_REQUESTS` + 1 health checks on one uncapped
/// connection and returns how many met an unannounced close (1 while
/// the daemon drops the connection after its cap without saying so,
/// 0 once it announces the close or serves on).
fn keepalive_drops(daemon: &Daemon) -> Result<u64, String> {
    let mut client = Client::new(daemon.addr);
    let mut drops = 0;
    for sent in 0..=DAEMON_KEEPALIVE_REQUESTS {
        match client.send("GET", "/v1/health", b"") {
            Ok(reply) if reply.success() => {}
            Ok(reply) => return Err(format!("keep-alive probe: status {}", reply.status)),
            Err(_) if sent > 0 => drops += 1,
            Err(error) => return Err(format!("keep-alive probe: {error}")),
        }
    }
    Ok(drops)
}

/// `cold_search`: one client, one distinct search-heavy request at a time.
fn drive_generate(addr: SocketAddr, pool: &mut ColdPool, budget: Duration) -> Window {
    let mut window = Window::default();
    let mut client = client(addr);
    let started = Instant::now();
    let mut done = 0;
    let mut pass = 0;
    while keep_going(started, budget, done) {
        done += 1;
        let (entry, drawn) = pool.draw();
        pass = drawn;
        let body = entry.request_json(pass).render().into_bytes();
        if let Some(reply) = post(&mut window, &mut client, "/v1/generate", &body, 1) {
            let index = window.replies.len();
            window
                .timings
                .push(Timing::new(pass, index, &reply, reply.first_byte));
            window.outcomes += 1;
            window.replies.push((vec![entry.clone()], reply.body, 1));
        }
        if window.replay.len() < REPLAY_COLD_SEARCH {
            window.replay.push(body);
        }
    }
    window.finish_client(&client, started, pass);
    window
}

/// `cold_verify`: one client streaming batches of distinct
/// verify-heavy requests.
fn drive_stream(addr: SocketAddr, pool: &mut ColdPool, budget: Duration) -> Window {
    let mut window = Window::default();
    let mut client = client(addr);
    let started = Instant::now();
    let mut done = 0;
    let mut pass = 0;
    while keep_going(started, budget, done) {
        done += 1;
        let mut entries = Vec::new();
        let mut docs = Vec::new();
        for _ in 0..STREAM_BATCH {
            let (entry, drawn) = pool.draw();
            docs.push(entry.request_json(drawn));
            entries.push(entry.clone());
            pass = drawn;
        }
        let body = Json::array(docs).render().into_bytes();
        let batch = STREAM_BATCH as u64;
        if let Some(reply) = post(&mut window, &mut client, "/v1/stream", &body, batch) {
            let items: Vec<Instant> = reply
                .timed_lines()
                .filter(|(_, line)| line.starts_with(b"{\"event\":\"item\""))
                .map(|(at, _)| at)
                .collect();
            let first = items.first().copied().unwrap_or(reply.done);
            let index = window.replies.len();
            window.timings.push(Timing::new(pass, index, &reply, first));
            window.outcomes += items.len() as u64;
            window.replies.push((entries, reply.body, 1));
        }
        if window.replay.len() < REPLAY_COLD_VERIFY {
            window.replay.push(body);
        }
    }
    window.finish_client(&client, started, pass);
    window
}

/// `warm_hits`: closed-loop clients cycling over the primed hot set,
/// each in its own seeded order. Bodies are kept once per distinct
/// variant per entry, so every variant is checked without storing
/// every reply.
fn drive_warm(
    addr: SocketAddr,
    hot: &[Entry],
    bodies: &[Vec<u8>],
    seed: u64,
    budget: Duration,
) -> Window {
    let started = Instant::now();
    let drive = |id: u64| {
        let mut rng = SplitMix64::new(seed ^ (id + 1).wrapping_mul(0x9e37_79b9));
        let mut order: Vec<usize> = (0..hot.len()).collect();
        rng.shuffle(&mut order);
        let (mut next, mut pass) = (0, 0);
        let mut variants: Vec<Vec<(Vec<u8>, u64)>> = vec![Vec::new(); hot.len()];
        // The hot-set index of each timing's entry.
        let mut entry_of = Vec::new();
        let mut window = Window::default();
        let mut client = client(addr);
        let mut done = 0;
        while keep_going(started, budget, done * WARM_CLIENTS) {
            done += 1;
            if next == order.len() {
                rng.shuffle(&mut order);
                next = 0;
                pass += 1;
            }
            let index = order[next];
            next += 1;
            if id == 0 && window.replay.len() < REPLAY_WARM {
                window.replay.push(bodies[index].clone());
            }
            if let Some(reply) = post(&mut window, &mut client, "/v1/generate", &bodies[index], 1) {
                // `reply` holds the variant's position until the variants
                // are laid out in `window.replies` below.
                let seen = &mut variants[index];
                let variant = match seen.iter().position(|(body, _)| *body == reply.body) {
                    Some(variant) => variant,
                    None => {
                        seen.push((reply.body.clone(), 0));
                        seen.len() - 1
                    }
                };
                seen[variant].1 += 1;
                window
                    .timings
                    .push(Timing::new(pass, variant, &reply, reply.first_byte));
                entry_of.push(index);
                window.outcomes += 1;
            }
        }
        let mut offsets = Vec::with_capacity(hot.len());
        let mut laid_out = 0;
        for seen in &variants {
            offsets.push(laid_out);
            laid_out += seen.len();
        }
        for (timing, &index) in window.timings.iter_mut().zip(&entry_of) {
            timing.reply += offsets[index];
        }
        window.finish_client(&client, started, pass);
        for (entry, seen) in hot.iter().zip(variants) {
            window.replies.extend(
                seen.into_iter()
                    .map(|(body, count)| (vec![entry.clone()], body, count)),
            );
        }
        window
    };
    let mut total = Window::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..WARM_CLIENTS as u64)
            .map(|id| scope.spawn(move || drive(id)))
            .collect();
        for client in clients {
            total.absorb(client.join().expect("warm client panicked"));
        }
    });
    total
}

/// Starts the daemon `count` times and keeps the last one; `setup_s`
/// is the median start-to-ready time. `prime` runs on each start and
/// counts toward it.
fn set_up(
    binary: &Path,
    count: usize,
    prime: impl Fn(&Daemon) -> Result<(), String>,
) -> Result<(Daemon, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..count {
        // Stop the previous daemon first, so starts never overlap.
        drop(last.take());
        let started = Instant::now();
        let (daemon, _) = Daemon::start(binary).map_err(|e| format!("starting marchgend: {e}"))?;
        prime(&daemon)?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(daemon);
    }
    let daemon = last.ok_or("no daemon started")?;
    Ok((daemon, median(&times).ok_or("no setup time")?))
}

/// Sends every hot-set body once; each must be a verified miss.
fn prime_hot_set(daemon: &Daemon, hot: &[Entry], bodies: &[Vec<u8>]) -> Result<(), String> {
    let mut client = client(daemon.addr);
    for (entry, body) in hot.iter().zip(bodies) {
        let reply = client
            .send("POST", "/v1/generate", body)
            .map_err(|e| format!("priming: {e}"))?;
        if !reply.success() {
            return Err(format!("priming: status {}", reply.status));
        }
        check::generate_body(&reply.body, entry, false).map_err(|e| format!("priming: {e}"))?;
    }
    Ok(())
}

/// Cache hit and miss counters from `/v1/stats`.
fn cache_counters(daemon: &Daemon) -> Result<(u64, u64), String> {
    let stats = daemon.get("/v1/stats").map_err(|e| e.to_string())?;
    let field = |name: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(name))
            .and_then(Json::as_int)
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| format!("/v1/stats has no cache.{name}"))
    };
    Ok((field("hits")?, field("misses")?))
}

/// Sum and count of the handler-duration histogram for `endpoint`. A
/// missing series reads 0 before the window, when the endpoint may not
/// have been called yet, and is an error after it (`after_window`).
fn handler_totals(
    daemon: &Daemon,
    endpoint: &str,
    after_window: bool,
) -> Result<(f64, f64), String> {
    let text = daemon.get_text("/metrics").map_err(|e| e.to_string())?;
    let value = |suffix: &str| {
        let prefix = format!(
            "marchgend_http_request_duration_microseconds_{suffix}{{endpoint=\"{endpoint}\"}} "
        );
        match text
            .lines()
            .find_map(|line| line.strip_prefix(prefix.as_str()))
        {
            Some(v) => v
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("bad /metrics value {v:?}")),
            None if after_window => Err(format!("/metrics has no {}", prefix.trim_end())),
            None => Ok(0.0),
        }
    };
    Ok((value("sum")?, value("count")?))
}

/// The result line's metrics, in order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let binary = daemon::build().map_err(|e| e.to_string())?;
    let universe = |text: &str| pools::parse_universe(text);
    let budget = Duration::from_secs(args.seconds);
    let mut problems = Vec::new();

    // ---- set-up ------------------------------------------------------
    let setups = if args.trace { 1 } else { COLD_SETUPS };
    let mut hot = Vec::new();
    let mut hot_bodies: Vec<Vec<u8>> = Vec::new();
    let (daemon, setup_s) = match args.workload {
        Workload::ColdSearch | Workload::ColdVerify => set_up(&binary, setups, |_| Ok(()))?,
        Workload::WarmHits => {
            hot = pools::hot_set(&universe(pools::universe::WARM)?);
            // Hot requests pin one search thread, so priming (part of
            // setup_s) runs without per-request thread fan-out, whose
            // cost swings with scheduling on a small machine. Hits never
            // search, and the cache key leaves the field out.
            hot_bodies = hot
                .iter()
                .map(|e| {
                    let mut doc = e.request_json(0);
                    if let Json::Object(pairs) = &mut doc {
                        pairs.push(("search_threads".to_owned(), Json::from(1usize)));
                    }
                    doc.render().into_bytes()
                })
                .collect();
            let setups = if args.trace { 1 } else { WARM_SETUPS };
            set_up(&binary, setups, |d| prime_hot_set(d, &hot, &hot_bodies))?
        }
    };

    // ---- timed window ------------------------------------------------
    let endpoint = if args.workload == Workload::ColdVerify {
        "/v1/stream"
    } else {
        "/v1/generate"
    };
    let (hits_before, misses_before) = cache_counters(&daemon)?;
    let handler_before = handler_totals(&daemon, endpoint, false)?;
    let cpu_before = daemon.cpu_seconds().map_err(|e| e.to_string())?;
    let window = match args.workload {
        Workload::ColdSearch => {
            let mut pool = ColdPool::new(universe(pools::universe::COLD_SEARCH)?, args.seed);
            drive_generate(daemon.addr, &mut pool, budget)
        }
        Workload::ColdVerify => {
            let mut pool = ColdPool::new(universe(pools::universe::COLD_VERIFY)?, args.seed);
            drive_stream(daemon.addr, &mut pool, budget)
        }
        Workload::WarmHits => drive_warm(daemon.addr, &hot, &hot_bodies, args.seed, budget),
    };
    let cpu = daemon.cpu_seconds().map_err(|e| e.to_string())? - cpu_before;
    let peak_rss_mb = daemon.peak_rss_mb().map_err(|e| e.to_string())?;
    let (hits_after, misses_after) = cache_counters(&daemon)?;
    let handler_after = handler_totals(&daemon, endpoint, true)?;
    let drops = if args.trace {
        keepalive_drops(&daemon)?
    } else {
        0
    };
    drop(daemon);

    // ---- checks --------------------------------------------------------
    problems.extend(window.failures.iter().take(5).cloned());
    if window.failures.len() > 5 {
        problems.push(format!(
            "... {} failed operations in all",
            window.failures.len()
        ));
    }
    let (hits, misses) = (hits_after - hits_before, misses_after - misses_before);
    let (want_hits, want_misses) = match args.workload {
        Workload::WarmHits => (window.outcomes, 0),
        _ => (0, window.outcomes),
    };
    if (hits, misses) != (want_hits, want_misses) {
        problems.push(format!(
            "cache counters moved by {hits} hits / {misses} misses over {} outcomes; \
             expected {want_hits} / {want_misses}",
            window.outcomes
        ));
    }
    let expect_hit = args.workload == Workload::WarmHits;
    // Per reply: the sum of its outcomes' complexities and their number.
    let mut complexities = Vec::with_capacity(window.replies.len());
    let mut rejected = 0;
    for (entries, body, count) in &window.replies {
        let checked = if args.workload == Workload::ColdVerify {
            check::stream_body(body, entries)
        } else {
            check::generate_body(body, &entries[0], expect_hit).map(|c| vec![c])
        };
        match checked {
            Ok(found) => {
                complexities.push(Some((
                    found.iter().sum::<usize>() as u64,
                    found.len() as u64,
                )));
            }
            Err(error) => {
                complexities.push(None);
                rejected += entries.len() as u64 * count;
                problems.push(error);
            }
        }
    }

    let (attempted, failed) = (window.attempted, window.failed + rejected);
    let delivered = window.outcomes.max(1) as f64;
    let mut metrics: Metrics = Vec::new();
    if args.trace {
        let mut replay = Replay::new();
        let replayed = match args.workload {
            Workload::ColdSearch => window
                .replay
                .iter()
                .try_for_each(|b| replay.generate_request(b)),
            Workload::ColdVerify => window
                .replay
                .iter()
                .try_for_each(|b| replay.stream_request(b)),
            Workload::WarmHits => replay.prime(&hot_bodies).and_then(|()| {
                window
                    .replay
                    .iter()
                    .try_for_each(|b| replay.generate_request(b))
            }),
        };
        if let Err(error) = replayed {
            problems.push(format!("replay: {error}"));
        }
        problems.extend(replay.mismatches.iter().map(|m| format!("replica: {m}")));
        report_replay(&replay, args);
        let handler_count = handler_after.1 - handler_before.1;
        metrics.extend([
            (
                "http.connect_us",
                window.connect.as_secs_f64() * 1e6 / delivered,
                "us",
            ),
            (
                "http.ttfb_us",
                window.ttfb.as_secs_f64() * 1e6 / delivered,
                "us",
            ),
            (
                "http.reconnects",
                (window.connections - window.connections.min(window.clients)) as f64 / delivered,
                "count",
            ),
            ("http.keepalive_drops", drops as f64, "count"),
            (
                "server.handler_mean_us",
                (handler_after.0 - handler_before.0) / handler_count.max(1.0),
                "us",
            ),
        ]);
        metrics.extend(layer_metrics(&replay));
    } else {
        let (weighted, weight) = window
            .timings
            .iter()
            .filter_map(|t| complexities[t.reply])
            .fold((0, 0), |(sum, n), (s, k)| (sum + s, n + k));
        let latencies: Vec<f64> = window.timings.iter().map(|t| t.latency_ms).collect();
        let firsts: Vec<f64> = window.timings.iter().map(|t| t.first_ms).collect();
        metrics.extend([
            ("setup_s", setup_s, "s"),
            (
                "latency_p50_ms",
                percentile(&latencies, 50.0).unwrap_or(0.0),
                "ms",
            ),
            (
                "latency_p90_ms",
                percentile(&latencies, 90.0).unwrap_or(0.0),
                "ms",
            ),
            (
                "first_item_p50_ms",
                percentile(&firsts, 50.0).unwrap_or(0.0),
                "ms",
            ),
            (
                "outcomes_per_s",
                window.outcomes as f64 / window.elapsed.as_secs_f64(),
                "1/s",
            ),
            (
                "error_rate",
                (failed as f64 / attempted.max(1) as f64).max(ERROR_RATE_FLOOR),
                "fraction",
            ),
            (
                "mean_complexity",
                weighted as f64 / weight.max(1) as f64,
                "n",
            ),
            ("daemon_cpu_ms_per_outcome", cpu * 1e3 / delivered, "ms"),
            ("daemon_peak_rss_mb", peak_rss_mb, "MB"),
        ]);
    }
    eprintln!(
        "marchbench: {attempted} outcomes attempted, {} delivered, {failed} failed, \
         {:.2} s window, {} connections",
        window.outcomes,
        window.elapsed.as_secs_f64(),
        window.connections
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
    })
}

/// Per-layer metrics from the replay: self time per outcome, counts
/// per outcome, and the screening ratios.
fn layer_metrics(replay: &Replay) -> Metrics {
    let totals = totals_by_name(replay.tracer.spans());
    let outcomes = replay.outcomes.max(1) as f64;
    let us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e3 / outcomes)
    };
    let per = |name: &str| replay.counts.get(name) / outcomes;
    let built = replay.counts.get("schedule.candidates");
    let screened = replay.counts.get("screen.candidates_screened");
    let shards: Vec<f64> = replay.screen_shards_us.iter().map(|&u| u as f64).collect();
    vec![
        ("decode.us", us("decode"), "us"),
        ("render.us", us("render"), "us"),
        ("render.bytes", per("render.bytes"), "bytes"),
        ("cache.key_us", us("cache.key"), "us"),
        ("cache.lookup_us", us("cache.lookup"), "us"),
        ("cache.insert_us", us("cache.insert"), "us"),
        ("cache.hits", per("cache.hits"), "count"),
        ("cache.misses", per("cache.misses"), "count"),
        ("expand.us", us("expand"), "us"),
        ("expand.requirements", per("expand.requirements"), "count"),
        ("enumerate.us", us("enumerate"), "us"),
        (
            "enumerate.combinations",
            per("enumerate.combinations"),
            "count",
        ),
        (
            "enumerate.unique_tp_sets",
            per("enumerate.unique_tp_sets"),
            "count",
        ),
        ("solve.us", us("solve"), "us"),
        ("solve.tours", per("solve.tours"), "count"),
        ("solve.iterations", per("solve.iterations"), "count"),
        ("schedule.us", us("schedule"), "us"),
        ("schedule.candidates", per("schedule.candidates"), "count"),
        ("search.self_us", us("search"), "us"),
        ("screen.us", us("screen"), "us"),
        (
            "screen.candidates_screened",
            per("screen.candidates_screened"),
            "count",
        ),
        (
            "screen.yield",
            if built > 0.0 { screened / built } else { 0.0 },
            "fraction",
        ),
        ("screen.shards", per("screen.shards"), "count"),
        ("screen.shard_p50_us", median(&shards).unwrap_or(0.0), "us"),
        ("compact.us", us("compact"), "us"),
        ("redundancy.us", us("redundancy"), "us"),
        ("batch.wait_us", us("batch.wait"), "us"),
        ("batch.item_us", us("batch.item"), "us"),
    ]
}

/// Prints the tracing overhead and the per-span table, and writes the
/// spans out.
fn report_replay(replay: &Replay, args: &Args) {
    let traced = replay.traced.as_secs_f64();
    let untraced = replay.untraced.as_secs_f64();
    println!(
        "trace_overhead {:.4} fraction (traced replica {traced:.3} s vs generate() {untraced:.3} s \
         over {} computations, all compared)",
        traced / untraced.max(f64::MIN_POSITIVE) - 1.0,
        replay.compared,
    );
    eprintln!(
        "marchbench: self time per span name, over {} outcomes:",
        replay.outcomes
    );
    for (name, (ns, count)) in totals_by_name(replay.tracer.spans()) {
        eprintln!("  {name:<12} {count:>9} spans {:>12.1} us", ns as f64 / 1e3);
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let dir = target.join("marchbench");
    let name = match args.workload {
        Workload::ColdSearch => "cold_search",
        Workload::ColdVerify => "cold_verify",
        Workload::WarmHits => "warm_hits",
    };
    let path = dir.join(format!("spans-{name}-{}.tsv", args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, replay.tracer.dump())) {
        Ok(()) => eprintln!("marchbench: spans written to {}", path.display()),
        Err(error) => eprintln!("marchbench: could not write {}: {error}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("marchbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("marchbench: {message}");
            return ExitCode::from(2);
        }
    };
    for problem in &outcome.problems {
        eprintln!("marchbench: check failed: {problem}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} {value} {unit}");
    }
    let correct = outcome.problems.is_empty();
    let metrics = Json::object(outcome.metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::object([("value", Json::Float(value)), ("unit", Json::from(unit))]),
        )
    }));
    let line = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(outcome.attempted.max(1))),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
