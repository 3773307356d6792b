//! `perfbench` — the repository benchmark: end-to-end numbers a `cr-serve`
//! client sees, plus a traced in-process replay for the per-layer numbers.
//!
//! ```text
//! perfbench --workload serve_mix|serve_compare|exact_optm|all --seed N \
//!     --seconds S --trace 0|1 --serve-bin PATH [--out-dir DIR]
//! ```
//!
//! Each run spawns `cr-serve --listen 127.0.0.1:0` and drives it from one
//! connection in a closed loop, client and server pinned to one CPU.
//! Every response passes the correctness gate (`gate.rs`); a failed check
//! exits non-zero without a result.  The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench/README.md` documents the choices.

mod affinity;
mod client;
mod gate;
mod replay;
mod workload;

use client::{Conn, Server};
use gate::Gate;
use replay::{Class, Numbered, Tracer};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Flush, Kind, Stream};

/// The request every set-up sample and fresh-connection probe sends.
const PROBE: &str = r#"{"method":"Bounds","rows":[[50,50],[50,50]]}"#;

/// Server spawns per run whose median is `setup_s`.
const SETUP_SAMPLES: usize = 15;

/// Pause between a new server's `listening` line and the set-up sample's
/// connect; not counted in `setup_s`.  A connect racing the acceptor
/// thread's first poll is answered at once when it wins and after the
/// acceptor's 10 ms sleep when it loses, and which side wins changes from
/// spawn to spawn and from minute to minute.  Connecting after the first
/// poll measures the losing side every time.
const SETUP_CONNECT_PAUSE: Duration = Duration::from_millis(3);

/// Fresh connections per traced run whose median gives `net.accept_ms`.
const ACCEPT_SAMPLES: usize = 9;

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workload::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::new(),
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Kind::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.serve_bin.is_file() {
        return Err(format!("--serve-bin {:?} is not a file", args.serve_bin));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Median (mean of the middle two for even counts); 0 when empty.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `pct` of `values`, with the number of samples
/// above its rank.
fn percentile(values: &[f64], pct: f64) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (0.0, 0);
    }
    let rank = ((pct / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// Counters of a `stats` frame (`stats.<name>`) and the counters and
/// gauges of a `metrics` dump (by metric name).
#[derive(Default)]
struct Scrape(BTreeMap<String, i128>);

impl Scrape {
    fn take(conn: &mut Conn) -> io::Result<Scrape> {
        let mut map = BTreeMap::new();
        let stats: Value = serde_json::from_str(&conn.stats()?).map_err(io::Error::other)?;
        if let Value::Object(entries) = stats {
            for (key, value) in entries {
                if let Some(n) = gate::int(&value) {
                    map.insert(format!("stats.{key}"), n);
                }
            }
        }
        for line in conn.metrics()? {
            let value: Value = serde_json::from_str(&line).map_err(io::Error::other)?;
            if let (Some(Value::String(name)), Some(n)) =
                (value.get("metric"), value.get("value").and_then(gate::int))
            {
                map.insert(name.clone(), n);
            }
        }
        Ok(Scrape(map))
    }

    /// `later − self` for one key (absent keys read 0).
    fn delta(&self, later: &Scrape, key: &str) -> i128 {
        let get = |s: &Scrape| s.0.get(key).copied().unwrap_or(0);
        get(later) - get(self)
    }
}

/// Exact work counts of the count window: from its responses and from the
/// scrapes around it.
#[derive(Default, Debug, PartialEq, Eq)]
struct Counts {
    rounds_k1: u64,
    rounds_k2: u64,
    steps: u64,
    fallbacks: u64,
    candidates: i128,
    survivors: i128,
    dfs_nodes: i128,
    sim_steps: i128,
    cache_hits: i128,
    cache_misses: i128,
}

impl Counts {
    fn fold(&mut self, flush: &Flush, responses: &[String]) -> Result<(), String> {
        for (line, response) in flush.lines.iter().zip(responses) {
            let value: Value = serde_json::from_str(response).map_err(|e| e.to_string())?;
            let Some(ok) = value.get("ok").filter(|v| !matches!(v, Value::Null)) else {
                continue;
            };
            let field = |key: &str| {
                ok.get(key)
                    .and_then(gate::int)
                    .and_then(|n| u64::try_from(n).ok())
                    .unwrap_or(0)
            };
            match Class::of(line) {
                Class::OptmK1 => self.rounds_k1 += field("rounds"),
                Class::OptmK2 => self.rounds_k2 += field("rounds"),
                _ => {}
            }
            self.steps += field("steps");
            if matches!(ok.get("fallbacks"), Some(Value::Array(f)) if !f.is_empty()) {
                self.fallbacks += 1;
            }
        }
        Ok(())
    }

    fn add_scrapes(&mut self, before: &Scrape, after: &Scrape) {
        self.candidates = before.delta(after, "optm.round_candidates");
        self.survivors = before.delta(after, "optm.round_survivors");
        self.dfs_nodes = before.delta(after, "subset_dfs.nodes");
        self.sim_steps = before.delta(after, "sim.steps");
        self.cache_hits = before.delta(after, "service.cache.hits");
        self.cache_misses = before.delta(after, "service.cache.misses");
    }
}

/// One flush's outcome on the wire.
struct Sent {
    elapsed: Duration,
    ok: usize,
    failed: usize,
}

/// The connection of one run plus everything that must see each flush.
struct Session {
    conn: Conn,
    gate: Gate,
    next_id: u64,
    attempted: usize,
    failed: usize,
    /// Never-repeating flushes and their responses, checked after timing.
    deferred: Vec<(u64, Flush, Vec<String>)>,
    /// The first flushes, kept for the in-process replay.
    replay_set: Vec<Numbered>,
    replay_len: usize,
}

impl Session {
    fn new(conn: Conn, gate: Gate, replay_len: usize) -> Session {
        Session {
            conn,
            gate,
            next_id: 0,
            attempted: 0,
            failed: 0,
            deferred: Vec::new(),
            replay_set: Vec::new(),
            replay_len,
        }
    }

    fn send(&mut self, flush: Flush, counts: Option<&mut Counts>) -> Result<Sent, String> {
        let first_id = self.next_id;
        self.next_id += flush.lines.len() as u64;
        let start = Instant::now();
        let responses = self.conn.flush(&flush.lines).map_err(io_err("flush"))?;
        let elapsed = start.elapsed();
        let ok = responses.iter().filter(|r| gate::is_ok(r)).count();
        let failed = responses.len() - ok;
        self.attempted += responses.len();
        self.failed += failed;
        if let Some(counts) = counts {
            counts.fold(&flush, &responses)?;
        }
        if self.replay_set.len() < self.replay_len {
            self.replay_set.push((first_id, flush.clone()));
        }
        if flush.key.is_some() {
            self.gate.check(&flush, first_id, &responses)?;
        } else {
            self.deferred.push((first_id, flush, responses));
        }
        Ok(Sent {
            elapsed,
            ok,
            failed,
        })
    }
}

/// Set-up time of one fresh server, in seconds: spawn → `listening`
/// line, plus connect → first answer for a connection opened
/// [`SETUP_CONNECT_PAUSE`] later; and whether that answer was `ok`.
fn setup_sample(bin: &Path, gate: &mut Gate) -> Result<(f64, bool), String> {
    let probe = Flush {
        lines: vec![PROBE.to_string()],
        key: None,
    };
    let start = Instant::now();
    let server = Server::spawn(bin).map_err(io_err("spawn cr-serve"))?;
    let listening = start.elapsed();
    std::thread::sleep(SETUP_CONNECT_PAUSE);
    let connect = Instant::now();
    let mut conn = Conn::connect(server.addr).map_err(io_err("connect"))?;
    let responses = conn.flush(&probe.lines).map_err(io_err("probe"))?;
    let secs = (listening + connect.elapsed()).as_secs_f64();
    gate.check(&probe, 0, &responses)?;
    server.shutdown(conn).map_err(io_err("shutdown"))?;
    Ok((secs, gate::is_ok(&responses[0])))
}

/// What the end-to-end part of a run measured.
struct Served {
    setup_s: Vec<f64>,
    attempted: usize,
    failed: usize,
    /// Flush latencies of the timed window, in send order.
    latencies_us: Vec<f64>,
    /// The timed window cut into segments.
    segments: Vec<Segment>,
    bytes_per_flush: f64,
    warmup: Warmup,
    after: Scrape,
    accept_ms: Vec<f64>,
    replay_set: Vec<Numbered>,
}

/// Segments per timed window of the workloads that are not timed in
/// passes.
const SEGMENTS: usize = 10;

/// One segment of the timed window.
struct Segment {
    secs: f64,
    ok: usize,
    latencies_us: Vec<f64>,
}

/// Cuts the timed window into segments: one per corpus pass when the
/// window is timed in whole passes (each segment then carries the same
/// requests), otherwise [`SEGMENTS`] equal slices of time.  `ends` are the
/// flushes' completion times since the window opened.
fn segments(
    latencies_us: &[f64],
    oks: &[usize],
    ends: &[f64],
    pass: Option<usize>,
) -> Vec<Segment> {
    let total = ends.last().copied().unwrap_or(0.0);
    let index: Vec<usize> = match pass {
        Some(pass) => (0..ends.len()).map(|i| i / pass).collect(),
        None => ends
            .iter()
            .map(|e| ((e / total * SEGMENTS as f64) as usize).min(SEGMENTS - 1))
            .collect(),
    };
    let count = index.last().map_or(0, |i| i + 1);
    let mut out: Vec<Segment> = (0..count)
        .map(|_| Segment {
            secs: 0.0,
            ok: 0,
            latencies_us: Vec::new(),
        })
        .collect();
    let mut opened = 0.0;
    for (i, &k) in index.iter().enumerate() {
        out[k].ok += oks[i];
        out[k].latencies_us.push(latencies_us[i]);
        if index.get(i + 1) != Some(&k) {
            let closed = match pass {
                Some(_) => ends[i],
                None => total * (k + 1) as f64 / SEGMENTS as f64,
            };
            out[k].secs = closed - opened;
            opened = closed;
        }
    }
    out
}

/// The count window and the scrapes around it.
struct Warmup {
    counts: Counts,
    before: Scrape,
    warm: Scrape,
    secs: f64,
}

/// Sends the warm-up flushes — the count window — between two scrapes.
fn count_window(s: &mut Session, stream: &mut Stream) -> Result<Warmup, String> {
    let before = Scrape::take(&mut s.conn).map_err(io_err("scrape"))?;
    let mut counts = Counts::default();
    let start = Instant::now();
    for _ in 0..stream.warmup_flushes() {
        s.send(stream.next_flush(), Some(&mut counts))?;
    }
    let secs = start.elapsed().as_secs_f64();
    let warm = Scrape::take(&mut s.conn).map_err(io_err("scrape"))?;
    counts.add_scrapes(&before, &warm);
    Ok(Warmup {
        counts,
        before,
        warm,
        secs,
    })
}

/// Flushes kept for the replay.
fn replay_len(kind: Kind, stream: &Stream) -> usize {
    match kind {
        Kind::ServeMix => 4000,
        Kind::ServeCompare => 4 * stream.pass_len().unwrap_or(1),
        Kind::ExactOptm => stream.pass_len().unwrap_or(1),
    }
}

/// The end-to-end run: set-up samples, warm-up (the count window), the
/// timed closed loop, scrapes around each phase, and the gate.
fn serve(kind: Kind, seed: u64, seconds: f64, trace: bool, bin: &Path) -> Result<Served, String> {
    let mut gate = Gate::new();
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut setup_failed = 0;
    for _ in 0..SETUP_SAMPLES {
        let (secs, ok) = setup_sample(bin, &mut gate)?;
        setup.push(secs);
        setup_failed += usize::from(!ok);
    }
    let mut stream = Stream::new(kind, seed);
    if let Some(pass) = stream.pass_len() {
        let mut primer = Stream::new(kind, seed);
        for _ in 0..pass {
            gate.prime(&primer.next_flush())?;
        }
    }
    let server = Server::spawn(bin).map_err(io_err("spawn cr-serve"))?;
    let conn = Conn::connect(server.addr).map_err(io_err("connect"))?;
    let mut s = Session::new(conn, gate, replay_len(kind, &stream));
    s.attempted = SETUP_SAMPLES;
    s.failed = setup_failed;
    let warmup = count_window(&mut s, &mut stream)?;

    // Pooled exact work is timed in whole passes, as many as fit.
    let planned = stream
        .pass_len()
        .filter(|_| kind == Kind::ExactOptm)
        .map(|pass| pass * ((seconds / warmup.secs).floor() as usize).max(1));
    let mut latencies_us = Vec::new();
    let mut oks = Vec::new();
    let mut ends = Vec::new();
    let bytes_start = s.conn.bytes_in;
    let start = Instant::now();
    loop {
        let done = match planned {
            Some(n) => latencies_us.len() >= n,
            None => start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
        let sent = s.send(stream.next_flush(), None)?;
        oks.push(sent.ok);
        ends.push(start.elapsed().as_secs_f64());
        // A failed request misses every latency limit.
        latencies_us.push(if sent.failed > 0 {
            f64::INFINITY
        } else {
            sent.elapsed.as_secs_f64() * 1e6
        });
    }
    let segments = segments(&latencies_us, &oks, &ends, planned.and(stream.pass_len()));
    let bytes_per_flush = (s.conn.bytes_in - bytes_start) as f64 / latencies_us.len() as f64;
    let after = Scrape::take(&mut s.conn).map_err(io_err("scrape"))?;

    let mut accept_ms = Vec::new();
    if trace {
        let probe = Flush {
            lines: vec![PROBE.to_string()],
            key: None,
        };
        for _ in 0..ACCEPT_SAMPLES {
            let start = Instant::now();
            let mut fresh = Conn::connect(server.addr).map_err(io_err("connect"))?;
            let responses = fresh.flush(&probe.lines).map_err(io_err("probe"))?;
            accept_ms.push(start.elapsed().as_secs_f64() * 1e3);
            s.gate.check(&probe, 0, &responses)?;
            s.attempted += 1;
            s.failed += usize::from(!gate::is_ok(&responses[0]));
        }
    }
    let Session {
        conn,
        mut gate,
        attempted,
        failed,
        deferred,
        replay_set,
        ..
    } = s;
    server.shutdown(conn).map_err(io_err("shutdown"))?;
    for (first_id, flush, responses) in &deferred {
        gate.check(flush, *first_id, responses)?;
    }
    Ok(Served {
        setup_s: setup,
        attempted,
        failed,
        latencies_us,
        segments,
        bytes_per_flush,
        warmup,
        after,
        accept_ms,
        replay_set,
    })
}

/// The end-to-end metrics of a run: each a median over the segments of
/// the timed window, so contention from outside the benchmark that covers
/// fewer than half of them does not move it.  The tail is the p90: across
/// seeds on a 2-vCPU machine the p99 of `serve_compare` spread by 0.2 to
/// 0.5 of its median and the p95 by up to 0.22, too close to the widest
/// bound a metric may have, so both are printed on the run's `#` line
/// instead.
fn end_to_end(served: &Served) -> Vec<Metric> {
    let over =
        |f: &dyn Fn(&Segment) -> f64| median(&served.segments.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("throughput_rps", over(&|s| s.ok as f64 / s.secs), "1/s"),
        metric(
            "latency_p50_ms",
            over(&|s| median(&s.latencies_us)) / 1e3,
            "ms",
        ),
        metric(
            "latency_p90_ms",
            over(&|s| percentile(&s.latencies_us, 90.0).0) / 1e3,
            "ms",
        ),
        metric("setup_s", median(&served.setup_s), "s"),
    ]
}

/// Per-flush sums of the replay's layer times, in nanoseconds.
#[derive(Default, Clone, Copy)]
struct FlushBudget {
    total: f64,
    parse: f64,
    prepare: f64,
    solve: f64,
    overhead: f64,
    render: f64,
    glue: f64,
}

/// Runs the composed replay traced, plain and with the `cr-obs` registry
/// off, `reps` times, rotated so that no variant always runs first, and
/// checks each against the decomposed replay's `expected` responses.
/// Returns the first traced run's spans and, per rep, the ratios traced /
/// plain and plain / registry-off.
fn composed_variants(
    set: &[Numbered],
    expected: &[Vec<String>],
    reps: usize,
) -> Result<(Tracer, Vec<f64>, Vec<f64>), String> {
    let mut traced = Tracer::new(false);
    let (mut trace_ratio, mut obs_ratio) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let mut secs = [0.0f64; 3];
        for variant in (0..3).map(|v| (v + rep) % 3) {
            let mut tracer = Tracer::new(variant == 0);
            cr_obs::Registry::global().set_enabled(variant != 2);
            let start = Instant::now();
            let out = replay::composed(set, &mut tracer);
            secs[variant] = start.elapsed().as_secs_f64();
            cr_obs::Registry::global().set_enabled(true);
            if out? != expected {
                return Err("composed and decomposed replays disagree".to_string());
            }
            if variant == 0 && rep == 0 {
                traced = tracer;
            }
        }
        trace_ratio.push(secs[0] / secs[1]);
        obs_ratio.push(secs[1] / secs[2]);
    }
    Ok((traced, trace_ratio, obs_ratio))
}

/// The traced run: replays `served.replay_set` in-process and derives the
/// per-layer metrics, writing the spans to `spans_path`.
fn layers(kind: Kind, served: &Served, spans_path: &Path) -> Result<Vec<Metric>, String> {
    let set = &served.replay_set;
    let class: HashMap<u64, Class> = set
        .iter()
        .flat_map(|(first_id, flush)| {
            flush
                .lines
                .iter()
                .enumerate()
                .map(move |(i, line)| (first_id + i as u64, Class::of(line)))
        })
        .collect();

    let registry_owner = cr_service::SolverService::with_standard_registry();
    let mut dec = Tracer::new(true);
    let dec_out = replay::decomposed(set, registry_owner.registry(), &mut dec)?;

    let reps = if kind == Kind::ExactOptm { 3 } else { 5 };
    let (comp, trace_ratio, obs_ratio) = composed_variants(set, &dec_out, reps)?;
    replay::write_spans(spans_path, &dec, &comp).map_err(io_err("write spans"))?;

    // Decomposed leaf times per request.
    let us = |ns: u64| ns as f64 / 1e3;
    let mut by_layer: HashMap<(&str, Class), Vec<f64>> = HashMap::new();
    let mut prepare_ns: HashMap<u64, u64> = HashMap::new();
    let mut solve_ns: HashMap<u64, u64> = HashMap::new();
    for span in dec.spans.iter().filter(|s| s.parent.is_some()) {
        let c = class.get(&span.req).copied().unwrap_or(Class::Other);
        by_layer
            .entry((span.name, c))
            .or_default()
            .push(us(span.dur_ns()));
        match span.name {
            "service.prepare" => *prepare_ns.entry(span.req).or_default() += span.dur_ns(),
            "algos.solve" | "sim.solve" => *solve_ns.entry(span.req).or_default() += span.dur_ns(),
            _ => {}
        }
    }
    // A layer's samples, of one request class or (`None`) of all.
    let layer = |name: &str, class: Option<Class>| -> Vec<f64> {
        by_layer
            .iter()
            .filter(|((n, c), _)| *n == name && class.is_none_or(|k| k == *c))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    };
    // `+ 0.0` turns the empty sum (-0.0) into 0.
    let sum_ms = |c: Class| layer("algos.solve", Some(c)).iter().sum::<f64>() / 1e3 + 0.0;

    // Composed per-flush budget, joined with the decomposed solve times.
    let own = comp.self_ns();
    let mut flushes: HashMap<usize, FlushBudget> = HashMap::new();
    for (i, span) in comp.spans.iter().enumerate() {
        let root = match span.parent {
            None => i,
            Some(p) => p,
        };
        let b = flushes.entry(root).or_default();
        let ns = own[i] as f64;
        match span.name {
            "flush" => {
                b.total = span.dur_ns() as f64;
                b.glue = ns;
            }
            "wire.parse" => b.parse += ns,
            "wire.render" => b.render += ns,
            "service.solve_batch" => b.overhead += ns,
            _ => {}
        }
    }
    let sizes: HashMap<u64, usize> = set.iter().map(|(id, f)| (*id, f.lines.len())).collect();
    let mut fanout = Vec::new();
    for (&root, b) in &mut flushes {
        let first = comp.spans[root].req;
        let ids = first..first + sizes.get(&first).copied().unwrap_or(0) as u64;
        let prepare: u64 = ids.clone().filter_map(|id| prepare_ns.get(&id)).sum();
        let solve: u64 = ids.filter_map(|id| solve_ns.get(&id)).sum();
        fanout.push(solve as f64 / b.overhead.max(1.0));
        b.prepare = prepare as f64;
        b.solve = solve as f64;
        b.overhead -= b.prepare + b.solve;
    }
    let part = |f: fn(&FlushBudget) -> f64| -> f64 {
        median(&flushes.values().map(f).collect::<Vec<_>>()) / 1e3
    };
    let replay_p50 = part(|b| b.total);
    let parts = [
        ("budget.parse_us", part(|b| b.parse)),
        ("budget.prepare_us", part(|b| b.prepare)),
        ("budget.solve_us", part(|b| b.solve)),
        ("budget.batch_overhead_us", part(|b| b.overhead)),
        ("budget.render_us", part(|b| b.render)),
        ("budget.glue_us", part(|b| b.glue)),
    ];
    let e2e_p50 = median(
        &served
            .segments
            .iter()
            .map(|s| median(&s.latencies_us))
            .collect::<Vec<_>>(),
    );
    let residual = e2e_p50 - replay_p50;
    let explained: f64 = parts.iter().map(|(_, v)| v).sum::<f64>() + residual;

    let probe_us = {
        let service = cr_service::SolverService::with_standard_registry();
        let samples: Vec<f64> = (0..ACCEPT_SAMPLES)
            .map(|_| {
                let start = Instant::now();
                let _ = cr_service::wire::process_batch(&service, &[PROBE.to_string()], 0);
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };

    let Warmup {
        counts: c,
        before,
        warm,
        ..
    } = &served.warmup;
    let after = &served.after;
    let timed_hits = warm.delta(after, "service.cache.hits") as f64;
    let timed_lookups = timed_hits + warm.delta(after, "service.cache.misses") as f64;
    let mut out = vec![
        metric(
            "net.accept_ms",
            median(&served.accept_ms) - probe_us / 1e3,
            "ms",
        ),
        metric("net.residual_us", residual, "us"),
        metric("net.bytes_out", served.bytes_per_flush, "bytes"),
        metric(
            "net.rejected",
            [
                "stats.overloaded",
                "stats.quota_rejected",
                "stats.idle_closed",
            ]
            .iter()
            .map(|k| before.delta(after, k) as f64)
            .sum(),
            "count",
        ),
        metric("wire.parse_us", median(&layer("wire.parse", None)), "us"),
        metric("wire.render_us", median(&layer("wire.render", None)), "us"),
        metric(
            "service.prepare_us",
            median(&layer("service.prepare", None)),
            "us",
        ),
        metric(
            "service.cache_hit_ratio",
            if timed_lookups > 0.0 {
                timed_hits / timed_lookups
            } else {
                0.0
            },
            "ratio",
        ),
        metric("service.cache_hits", c.cache_hits as f64, "count"),
        metric("service.cache_misses", c.cache_misses as f64, "count"),
        metric("service.batch_overhead_us", parts[3].1, "us"),
        metric("service.fanout_speedup", median(&fanout), "ratio"),
        metric(
            "algos.heuristic_us",
            median(&layer("algos.solve", Some(Class::Heuristic))),
            "us",
        ),
        metric(
            "algos.heuristic_schedule_us",
            median(&layer("algos.solve", Some(Class::HeuristicSchedule))),
            "us",
        ),
        metric("algos.optm_k1_ms", sum_ms(Class::OptmK1), "ms"),
        metric("algos.optm_k2_ms", sum_ms(Class::OptmK2), "ms"),
        metric("algos.optm_rounds_k1", c.rounds_k1 as f64, "count"),
        metric("algos.optm_rounds_k2", c.rounds_k2 as f64, "count"),
        metric("algos.optm_candidates", c.candidates as f64, "count"),
        metric("algos.optm_survivors", c.survivors as f64, "count"),
        metric("algos.subset_dfs_nodes", c.dfs_nodes as f64, "count"),
        metric(
            "algos.survivor_ratio",
            c.survivors as f64 / c.candidates.max(1) as f64,
            "ratio",
        ),
        metric("algos.fallbacks", c.fallbacks as f64, "count"),
        metric("algos.schedule_steps", c.steps as f64, "count"),
        metric(
            "sim.solve_us",
            median(&layer("sim.solve", Some(Class::Sim))),
            "us",
        ),
        metric("sim.steps", c.sim_steps as f64, "count"),
        metric("obs.overhead_ratio", median(&obs_ratio), "ratio"),
        metric("trace.overhead_ratio", median(&trace_ratio), "ratio"),
        metric("budget.e2e_p50_us", e2e_p50, "us"),
        metric("budget.replay_p50_us", replay_p50, "us"),
    ];
    out.extend(parts.iter().map(|(name, v)| metric(name, *v, "us")));
    out.push(metric("budget.unexplained_us", e2e_p50 - explained, "us"));
    Ok(out)
}

/// One workload run: its attempted and failed counts and the metrics the
/// `--trace` setting selects.
fn run(kind: Kind, args: &Args, trace: bool) -> Result<(usize, usize, Vec<Metric>), String> {
    let served = serve(kind, args.seed, args.seconds, trace, &args.serve_bin)?;
    let name = kind.name();
    println!(
        "# {name} seed={} flushes={} segments={} attempted={} failed={} error_rate={}",
        args.seed,
        served.latencies_us.len(),
        served.segments.len(),
        served.attempted,
        served.failed,
        served.failed as f64 / served.attempted as f64,
    );
    for pct in [90.0, 95.0, 99.0] {
        let (us, beyond) = percentile(&served.latencies_us, pct);
        println!(
            "# {name} whole-window p{pct} = {} ms with {beyond} samples beyond it",
            us / 1e3
        );
    }
    let (lo, hi) = served
        .setup_s
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    println!(
        "# {name} setup_s: {} spawns, {lo:.6}..{hi:.6} s",
        served.setup_s.len()
    );
    let e2e = end_to_end(&served);
    let metrics = if trace {
        std::fs::create_dir_all(&args.out_dir).map_err(io_err("create --out-dir"))?;
        let spans = args
            .out_dir
            .join(format!("spans-{name}-{}.jsonl", args.seed));
        let per_layer = layers(kind, &served, &spans)?;
        println!("# {name} spans written to {}", spans.display());
        for m in &e2e {
            println!("# {name} {:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        per_layer
    } else {
        e2e
    };
    for m in &metrics {
        println!("# {name} {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok((served.attempted, served.failed, metrics))
}

/// A number as JSON: finite values with all their digits.  A failed
/// flush's +∞ latency can reach a percentile; JSON has no infinity, so it
/// prints as the largest finite number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Before anything else, so that every server, thread and replay of
    // the run shares the one CPU (see `affinity`).
    match affinity::pin_last_cpu() {
        Ok(cpu) => println!("# client, servers and replay pinned to CPU {cpu}"),
        Err(e) => {
            eprintln!("perfbench: cannot pin to one CPU: {e}");
            std::process::exit(1);
        }
    }
    let runs: Vec<(Kind, bool, &str)> = match Kind::parse(&args.workload) {
        Some(kind) => vec![(kind, args.trace, "")],
        None => Kind::ALL
            .into_iter()
            .flat_map(|k| [(k, false, k.name()), (k, true, k.name())])
            .collect(),
    };
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for (kind, trace, prefix) in runs {
        match run(kind, &args, trace) {
            Ok((a, f, ms)) => {
                attempted += a;
                failed += f;
                for m in ms {
                    let name = if prefix.is_empty() {
                        m.name
                    } else {
                        format!("{prefix}/{}", m.name)
                    };
                    metrics.push(Metric { name, ..m });
                }
            }
            Err(e) => {
                eprintln!("perfbench: {} failed: {e}", kind.name());
                std::process::exit(1);
            }
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": true, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    );
}

/// Serializes the tests that read deltas of the process-wide `cr-obs`
/// registry against the tests that write to it.
#[cfg(test)]
fn global_obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_service::net::{Server as InProcess, ServerConfig};
    use cr_service::SolverService;
    use std::sync::Arc;

    /// The count window of `seed` against a fresh in-process server (the
    /// serving code of `cr-serve --listen`).
    fn counts(kind: Kind, seed: u64) -> Counts {
        let service = Arc::new(SolverService::with_standard_registry());
        let server =
            InProcess::spawn(service, "127.0.0.1:0", ServerConfig::default()).expect("bind");
        let conn = Conn::connect(server.addr()).expect("connect");
        let mut session = Session::new(conn, Gate::new(), 0);
        let warmup =
            count_window(&mut session, &mut Stream::new(kind, seed)).expect("count window");
        drop(session);
        server.shutdown();
        server.join();
        warmup.counts
    }

    #[test]
    fn exact_counts_repeat_for_a_seed() {
        let _global = global_obs_lock();
        for kind in Kind::ALL {
            let first = counts(kind, workload::DEFAULT_SEED);
            assert_eq!(
                first,
                counts(kind, workload::DEFAULT_SEED),
                "{}",
                kind.name()
            );
            let lookups = first.cache_hits + first.cache_misses;
            match kind {
                Kind::ServeMix => assert_eq!(first.cache_hits, 0, "fresh instance every line"),
                Kind::ServeCompare => {
                    assert!(first.steps > 0);
                    assert!(8 * first.cache_hits >= 7 * lookups, "{first:?}");
                }
                Kind::ExactOptm => {
                    assert!(first.rounds_k1 > 0 && first.rounds_k2 > 0, "{first:?}");
                    assert!(first.candidates >= first.survivors && first.dfs_nodes > 0);
                }
            }
        }
    }

    #[test]
    fn segments_split_by_time_or_by_pass() {
        let lat: Vec<f64> = (1..=20).map(f64::from).collect();
        let oks = vec![1; 20];
        let ends: Vec<f64> = (0..20).map(|i| (f64::from(i) + 0.5) * 0.5).collect();
        let by_time = segments(&lat, &oks, &ends, None);
        assert_eq!(by_time.len(), SEGMENTS);
        assert!(by_time
            .iter()
            .all(|s| s.latencies_us.len() == 2 && s.ok == 2));
        assert!(by_time.iter().all(|s| (s.secs - 0.975).abs() < 1e-9));
        let by_pass = segments(&lat, &oks, &ends, Some(8));
        let sizes: Vec<usize> = by_pass.iter().map(|s| s.latencies_us.len()).collect();
        assert_eq!(sizes, vec![8, 8, 4]);
        assert!((by_pass[1].secs - 4.0).abs() < 1e-9);
        assert!((by_pass[2].secs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), (198.0, 2));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
