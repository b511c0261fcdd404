//! The `serve` workload: `CompileService` with the default `ServeConfig`
//! behind `HttpServer` on 127.0.0.1, driven open-loop by seeded Poisson
//! arrivals at the fixed `low` and `high` rates, then a search for the
//! highest rate that keeps the tail under the latency limit.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use na_arch::{HardwareParams, Target};
use na_circuit::generators::{GraphState, Qaoa, Qft, Reversible};
use na_circuit::qasm::{from_qasm, to_qasm};
use na_circuit::Circuit;
use na_mapper::MapScratch;
use na_pipeline::fingerprint::request_cache_key;
use na_pipeline::{
    handle_json, CompileRequest, CompileResponse, CompileScratch, JobOutcome, TargetResolver,
};
use na_schedule::export::json_escape;
use na_serve::{error_kind_of, CompileService, HttpServer, ServeConfig, Submission};

use crate::compile::{replay, same_artifact, LayerAccum, Mode, Session};
use crate::params::{
    HIGH_RPS, HIGH_SHARE, HIGH_TAIL, LATENCY_LIMIT_MS, LATENESS_SLACK_MS, LOW_RPS, LOW_SHARE,
    LOW_TAIL, QUALITY_DOCS, SEARCH_GROWTH, SEARCH_STEP_S, SEARCH_TAIL, SERVE_ATOMS, SERVE_QUBITS,
    SERVE_REPEAT, SERVE_SIDE, TAIL_WINDOWS,
};
use crate::report::{Metrics, Outcome};
use crate::stats::{
    crossing_rate, geomean, latency_summary, lateness_grows, median, ok_ratio, poisson_arrivals,
    quantile, tail_quantile, windowed_tail, Rng, Timing,
};
use crate::trace::Trace;

/// The presets every `serve` document targets.
const PRESETS: [&str; 3] = ["shuttling", "gate_based", "mixed"];

/// One v1 job document.
#[derive(Debug, Clone)]
pub struct Doc {
    /// The document without a request id.
    pub body: String,
    /// Its circuit's QASM source.
    pub qasm: String,
    /// The target preset.
    pub preset: &'static str,
    /// The mapping mode.
    pub mode: Mode,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Seconds from the phase start.
    pub due: f64,
    /// The document it sends.
    pub doc: usize,
}

/// The seeded request stream: documents and arrival times.
#[derive(Debug)]
pub struct Stream {
    /// Every document drawn so far.
    pub docs: Vec<Doc>,
    rng: Rng,
}

fn mode_json(mode: Mode) -> &'static str {
    match mode {
        Mode::Gate => "{\"mode\":\"gate_only\"}",
        Mode::Shuttle => "{\"mode\":\"shuttle_only\"}",
        Mode::Hybrid => "{\"mode\":\"hybrid\",\"alpha\":1.0}",
    }
}

/// A v1 document compiling `circuit` on `preset` in `mode`.
fn document(name: &str, circuit: &Circuit, preset: &'static str, mode: Mode) -> Doc {
    let qasm = to_qasm(circuit);
    let body = format!(
        "{{\"version\":1,\"target\":{{\"preset\":\"{preset}\",\"lattice_side\":{SERVE_SIDE},\
         \"num_atoms\":{SERVE_ATOMS}}},\"mapping\":{},\"circuits\":[{{\"name\":\"{name}\",\"qasm\":\"{}\"}}]}}",
        mode_json(mode),
        json_escape(&qasm),
    );
    Doc {
        body,
        qasm,
        preset,
        mode,
    }
}

/// Document `k` of the catalog new documents are drawn from, in order:
/// a small seeded QFT, graph state, QAOA or Toffoli-bearing reversible
/// circuit on a random preset and mode. The catalog is the same for
/// every workload seed, so the first [`QUALITY_DOCS`] documents, which
/// every run serves, carry seed-independent quality and compile-time
/// aggregates; the seed drives arrival times and repeats.
fn catalog_doc(k: usize) -> Doc {
    let r = &mut Rng::new(0xC0FF_EE00 ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let kind = r.below(4);
    let n = r.range(SERVE_QUBITS.0, SERVE_QUBITS.1);
    let preset = PRESETS[r.below(PRESETS.len())];
    let mode = Mode::ALL[r.below(Mode::ALL.len())];
    let seed = r.next_u64() % 1_000_000;
    let edges = (3 * n / 2) as usize;
    let circuit = match kind {
        0 => Qft::new(n).build(),
        1 => GraphState::new(n).edges(edges).seed(seed).build(),
        2 => Qaoa::new(n).edges(edges).layers(1).seed(seed).build(),
        _ => Reversible::new(n)
            .counts(&[(2, n as usize), (3, (n / 2) as usize)])
            .seed(seed)
            .build(),
    };
    document(&format!("c{k}"), &circuit, preset, mode)
}

impl Stream {
    /// An empty stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Stream {
            docs: Vec::new(),
            rng: Rng::new(seed ^ 0x5e7e_5e7e),
        }
    }

    /// The next new document of the catalog.
    fn new_doc(&mut self) -> usize {
        let k = self.docs.len();
        self.docs.push(catalog_doc(k));
        k
    }

    /// Arrivals of one phase at `rate` for `seconds`: each repeats a
    /// uniformly drawn earlier document with probability
    /// [`SERVE_REPEAT`], otherwise draws a new one.
    pub fn phase(&mut self, rate: f64, seconds: f64) -> Vec<Arrival> {
        let dues = poisson_arrivals(&mut self.rng, rate, seconds);
        dues.into_iter()
            .map(|due| {
                let repeat = !self.docs.is_empty() && self.rng.unit() < SERVE_REPEAT;
                let doc = if repeat {
                    self.rng.below(self.docs.len())
                } else {
                    self.new_doc()
                };
                Arrival { due, doc }
            })
            .collect()
    }
}

/// A request document carrying `id`.
fn with_id(doc: &Doc, id: usize) -> String {
    format!("{{\"request_id\":\"r{id}\",{}", &doc.body[1..])
}

/// One reply as the client saw it.
#[derive(Debug, Default)]
struct Reply {
    status: u16,
    hit: bool,
    body: String,
    admit_ms: f64,
}

/// What the client keeps of one request.
#[derive(Debug, Clone)]
struct Sample {
    timing: Timing,
    doc: usize,
    status: u16,
    hit: bool,
    ok: bool,
    full_hash: u64,
    nostats_hash: u64,
    compile_ms: f64,
    gates: usize,
    admit_ms: f64,
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The response without its `request_id` line.
fn strip_request_id(body: &str) -> String {
    if let Some(rest) = body.strip_prefix("{\n  \"request_id\": \"") {
        if let Some(end) = rest.find("\",\n  ") {
            return format!("{{\n  {}", &rest[end + 5..]);
        }
    }
    body.to_owned()
}

/// The response without any program's `stats` object, which embeds
/// wall-clock times and the worker scratch's cumulative counters.
fn strip_stats(body: &str) -> String {
    const KEY: &str = "\"stats\": {";
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at]);
        let obj = &rest[at + KEY.len() - 1..];
        let mut depth = 0usize;
        let mut end = obj.len();
        for (i, b) in obj.bytes().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push_str("\"stats\": {}");
        rest = &obj[end..];
    }
    out.push_str(rest);
    out
}

/// The first number after `key` in `text`.
fn number_after(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl Sample {
    fn of(timing: Timing, doc: usize, reply: &Reply) -> Sample {
        let ok = reply.status == 200
            && reply.body.contains("\"ok\":true")
            && !reply.body.contains("\"ok\":false");
        let canonical = strip_request_id(&reply.body);
        let (compile_ms, gates) = if reply.hit {
            (0.0, 0)
        } else {
            (
                number_after(&canonical, "\"total_runtime_ms\":").unwrap_or(f64::NAN),
                number_after(&canonical, "\"gates\":").unwrap_or(0.0) as usize,
            )
        };
        Sample {
            timing,
            doc,
            status: reply.status,
            hit: reply.hit,
            ok,
            full_hash: fnv(&canonical),
            nostats_hash: fnv(&strip_stats(&canonical)),
            compile_ms,
            gates,
            admit_ms: reply.admit_ms,
        }
    }
}

/// `POST /v1/compile` on a fresh connection (the server closes every
/// connection after its reply).
fn http_post(addr: SocketAddr, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let request = format!(
        "POST /v1/compile HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, payload) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let hit = head
        .lines()
        .any(|l| l.to_ascii_lowercase().starts_with("x-cache:") && l.contains("hit"));
    Ok(Reply {
        status,
        hit,
        body: payload.to_owned(),
        admit_ms: 0.0,
    })
}

/// `submit` in-process, timing the admission call separately.
fn submit_in_process(service: &CompileService, body: &str) -> Reply {
    let start = Instant::now();
    let submitted = service.submit(body);
    let admit_ms = start.elapsed().as_secs_f64() * 1e3;
    let (status, hit, body) = match submitted {
        Ok(Submission::Invalid(doc)) => (400, false, doc),
        Ok(Submission::Cached(doc)) => (200, true, doc),
        Ok(Submission::Pending(rx)) => {
            let doc = rx.recv().unwrap_or_default();
            let status = match error_kind_of(&doc) {
                Some("deadline") => 504,
                Some("internal") => 500,
                _ if doc.is_empty() => 500,
                _ => 200,
            };
            (status, false, doc)
        }
        Err(e) => (
            if e.is_retryable() { 429 } else { 503 },
            false,
            e.to_json(None),
        ),
    };
    Reply {
        status,
        hit,
        body,
        admit_ms,
    }
}

/// Sends `arrivals` open-loop from `threads` client threads, each
/// holding at most one request (and so one connection) at a time.
/// A thread sleeps until its next request is due; when all are busy,
/// the request goes out late and its latency still counts from the due
/// time.
fn run_phase(
    arrivals: &[Arrival],
    docs: &[Doc],
    threads: usize,
    first_id: usize,
    send: &(dyn Fn(&str) -> Reply + Sync),
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(arrivals.len()));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(arrival) = arrivals.get(i) else {
                        break;
                    };
                    let body = with_id(&docs[arrival.doc], first_id + i);
                    let due_at = start + Duration::from_secs_f64(arrival.due);
                    let now = Instant::now();
                    if due_at > now {
                        std::thread::sleep(due_at - now);
                    }
                    let sent = start.elapsed().as_secs_f64();
                    let reply = send(&body);
                    let done = start.elapsed().as_secs_f64();
                    let timing = Timing {
                        due: arrival.due,
                        sent,
                        done,
                    };
                    local.push(Sample::of(timing, arrival.doc, &reply));
                }
                samples.lock().expect("sample lock").extend(local);
            });
        }
    });
    let mut out = samples.into_inner().expect("sample lock");
    out.sort_by(|a, b| a.timing.due.total_cmp(&b.timing.due));
    out
}

/// Median and windowed tail (see [`windowed_tail`]) of a fixed-rate
/// phase; failed requests count as over every limit.
fn phase_latency(samples: &[Sample], tail_q: f64) -> (f64, f64) {
    let all: Vec<f64> = samples
        .iter()
        .map(|s| {
            if s.ok {
                s.timing.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect();
    (median(&all), windowed_tail(&all, TAIL_WINDOWS, tail_q))
}

/// Median, tail at `tail_q`, and whether the phase carried its rate.
fn summarize(samples: &[Sample], tail_q: f64) -> (f64, f64, bool) {
    let ok: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.timing.latency_ms())
        .collect();
    let failed = samples.len() - ok.len();
    let (p50, tail) = latency_summary(&ok, failed, tail_q);
    let lateness: Vec<f64> = samples.iter().map(|s| s.timing.lateness_ms()).collect();
    let carried = tail <= LATENCY_LIMIT_MS && !lateness_grows(&lateness, LATENESS_SLACK_MS);
    (p50, tail, carried)
}

/// A running service, optionally behind HTTP.
struct Running {
    service: CompileService,
    addr: Option<SocketAddr>,
    stop: Option<Arc<AtomicBool>>,
    server: Option<std::thread::JoinHandle<()>>,
}

impl Running {
    fn start(http: bool) -> Running {
        let service = CompileService::start(ServeConfig::default());
        if !http {
            return Running {
                service,
                addr: None,
                stop: None,
                server: None,
            };
        }
        let server = HttpServer::bind(service.clone(), "127.0.0.1:0").expect("bind 127.0.0.1");
        let addr = server.local_addr().expect("bound address");
        let stop = server.stop_handle();
        let handle = std::thread::spawn(move || server.serve());
        Running {
            service,
            addr: Some(addr),
            stop: Some(stop),
            server: Some(handle),
        }
    }

    fn send(&self, body: &str) -> Reply {
        match self.addr {
            Some(addr) => http_post(addr, body).unwrap_or_default(),
            None => submit_in_process(&self.service, body),
        }
    }

    /// One warm-up request per preset and mode, with a circuit the
    /// stream never draws, so every compiler session and worker scratch
    /// exists before timing starts. It goes through `submit` directly:
    /// the transport keeps no state worth warming.
    fn warm_up(&self) {
        for preset in PRESETS {
            for mode in Mode::ALL {
                let doc = document("warmup", &Qft::new(4).build(), preset, mode);
                let _ = submit_in_process(&self.service, &doc.body);
            }
        }
    }

    fn stop(mut self) {
        if let Some(stop) = self.stop.take() {
            stop.store(true, Ordering::SeqCst);
        }
        if let Some(handle) = self.server.take() {
            handle.join().expect("accept loop exits cleanly");
        }
        self.service.shutdown();
    }

    /// The service counters the benchmark reads, now.
    fn counts(&self) -> Counts {
        let m = self.service.metrics();
        let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        Counts {
            coalesced: get(&m.coalesced),
            rejected: get(&m.rejected_busy) + get(&m.rejected_shutdown) + get(&m.shed_unmeetable),
            completed: get(&m.completed),
            export_us: get(&m.export_us),
            phases_us: get(&m.map_phase_us)
                + get(&m.schedule_phase_us)
                + get(&m.lower_phase_us)
                + get(&m.export_us),
        }
    }

    /// Artifact-cache evictions, read from the metrics document.
    fn artifact_evictions(&self) -> u64 {
        let doc = self.service.metrics_json();
        doc.find("\"artifact_cache\":")
            .and_then(|at| number_after(&doc[at..], "\"evictions\":"))
            .map_or(0, |v| v as u64)
    }
}

/// A snapshot of service counters; differences of two give a phase's.
#[derive(Debug, Clone, Copy)]
struct Counts {
    coalesced: u64,
    rejected: u64,
    completed: u64,
    export_us: u64,
    /// Cumulative worker phase time: map, schedule, lower and export.
    phases_us: u64,
}

/// The serve workload's set-up: the stream's fixed-rate phases and a
/// running service that has served its warm-up.
pub struct Setup {
    stream: Stream,
    low: Vec<Arrival>,
    high: Vec<Arrival>,
    running: Running,
    /// Target build + spec time of the three presets, ms.
    pub resolve_ms: f64,
}

impl std::fmt::Debug for Setup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("serve::Setup")
            .field("docs", &self.stream.docs.len())
            .finish()
    }
}

/// Generates the documents and arrivals of the fixed-rate phases and
/// starts the service; `phase_scale` shortens the phases for the traced
/// run.
pub fn setup(seed: u64, seconds: f64, phase_scale: f64, http: bool) -> Setup {
    let resolve_start = Instant::now();
    for preset in [
        HardwareParams::shuttling(),
        HardwareParams::gate_based(),
        HardwareParams::mixed(),
    ] {
        let spec = preset
            .to_builder()
            .lattice(SERVE_SIDE, preset.lattice_constant_um)
            .num_atoms(SERVE_ATOMS)
            .build()
            .expect("valid serve target")
            .spec();
        std::hint::black_box(spec);
    }
    let resolve_ms = resolve_start.elapsed().as_secs_f64() * 1e3;
    let mut stream = Stream::new(seed);
    let low = stream.phase(LOW_RPS, seconds * LOW_SHARE * phase_scale);
    let high = stream.phase(HIGH_RPS, seconds * HIGH_SHARE * phase_scale);
    let running = Running::start(http);
    running.warm_up();
    Setup {
        stream,
        low,
        high,
        running,
        resolve_ms,
    }
}

/// Tears a set-up down (used between repeated set-ups).
pub fn teardown(setup: Setup) {
    setup.running.stop();
}

/// Per-document facts gathered from the fixed-rate phases.
#[derive(Debug, Default)]
struct DocFacts {
    miss_full: Vec<u64>,
    miss_nostats: Vec<u64>,
    hit_full: Vec<u64>,
    compile_ms: Option<f64>,
    gates: usize,
}

/// Checks the fixed-rate phases' replies and returns the per-document
/// facts, δF per mode, and the exact counters.
/// `cache` carries the replies served from cache or coalesced and the
/// artifact-cache evictions; with it, misses are also compared against
/// `handle_json` and the repeat count is checked exactly.
fn check_phases(
    docs: &[Doc],
    phases: &[(&str, &[Sample])],
    cache: Option<(u64, u64)>,
    outcome: &mut Outcome,
) -> (BTreeMap<usize, DocFacts>, [f64; 3], String) {
    let mut facts: BTreeMap<usize, DocFacts> = BTreeMap::new();
    let mut repeats = 0u64;
    let mut seen = std::collections::HashSet::new();
    for (name, samples) in phases {
        for (i, s) in samples.iter().enumerate() {
            if !seen.insert(s.doc) {
                repeats += 1;
            }
            if !s.ok {
                outcome.failed += 1;
                outcome.problem(format!(
                    "{name} request {i} (doc c{}): HTTP {} or a result not ok",
                    s.doc, s.status
                ));
                continue;
            }
            let f = facts.entry(s.doc).or_default();
            if s.hit {
                f.hit_full.push(s.full_hash);
            } else {
                f.miss_full.push(s.full_hash);
                f.miss_nostats.push(s.nostats_hash);
                if f.compile_ms.is_none() {
                    f.compile_ms = Some(s.compile_ms);
                    f.gates = s.gates;
                }
            }
        }
    }
    let mut delta_f = [0.0; 3];
    for (&d, f) in &facts {
        let doc = &docs[d];
        if let Some(h) = f.hit_full.iter().find(|h| !f.miss_full.contains(h)) {
            outcome.failed += 1;
            outcome.problem(format!(
                "doc c{d}: a cache hit ({h:016x}) matches no miss that filled the cache"
            ));
        }
        if cache.is_none() {
            continue;
        }
        match handle_json(&doc.body) {
            Ok(expected) => {
                let want = fnv(&strip_stats(&expected));
                if f.miss_nostats.iter().any(|h| *h != want) {
                    outcome.failed += 1;
                    outcome.problem(format!(
                        "doc c{d}: a served miss differs from handle_json outside `stats`"
                    ));
                }
                if d < QUALITY_DOCS {
                    let df = number_after(&expected, "\"delta_f\":").unwrap_or(f64::NAN);
                    let m = Mode::ALL
                        .iter()
                        .position(|m| *m == doc.mode)
                        .expect("a mode");
                    delta_f[m] += df;
                }
            }
            Err(e) => {
                outcome.failed += 1;
                outcome.problem(format!("doc c{d}: handle_json failed: {e}"));
            }
        }
    }
    let (served_from_cache, evictions) = cache.unwrap_or((0, 0));
    if cache.is_some() && evictions == 0 && served_from_cache != repeats {
        outcome.problem(format!(
            "nondeterminism: {repeats} repeated requests but {served_from_cache} served from cache or coalesced"
        ));
    }
    let requests: usize = phases.iter().map(|(_, s)| s.len()).sum();
    let counters = format!(
        "requests={requests} distinct_docs={} repeats={repeats} served_from_cache={served_from_cache} \
         artifact_evictions={evictions} delta_f.gate={} delta_f.shuttle={} delta_f.hybrid={}\n",
        facts.len(),
        delta_f[0],
        delta_f[1],
        delta_f[2]
    );
    (facts, delta_f, counters)
}

/// Runs the `serve` workload untraced and returns its end-to-end
/// metrics.
pub fn run(seconds: f64, setup_s: f64, setup: Setup, outcome: &mut Outcome) -> Metrics {
    let Setup {
        mut stream,
        low,
        high,
        running,
        ..
    } = setup;
    let threads = crate::sys::nproc();
    let send = |body: &str| running.send(body);
    let run_start = Instant::now();
    let before = running.counts();
    let low_s = run_phase(&low, &stream.docs, threads, 0, &send);
    let high_s = run_phase(&high, &stream.docs, threads, low.len(), &send);
    let coalesced = running.counts().coalesced - before.coalesced;
    let (p50_low, tail_low) = phase_latency(&low_s, LOW_TAIL);
    let (p50_high, tail_high) = phase_latency(&high_s, HIGH_TAIL);
    for (name, n, tail) in [
        ("low", low_s.len(), LOW_TAIL),
        ("high", high_s.len(), HIGH_TAIL),
    ] {
        let window = n / TAIL_WINDOWS;
        if tail_quantile(window).is_none_or(|q| q < tail) {
            outcome.note(format!(
                "{name}: fewer than ten of a window's {window} samples lie beyond p{}",
                tail * 100.0
            ));
        }
    }
    for (name, rate, n, p50, tail, q) in [
        ("low", LOW_RPS, low_s.len(), p50_low, tail_low, LOW_TAIL),
        (
            "high",
            HIGH_RPS,
            high_s.len(),
            p50_high,
            tail_high,
            HIGH_TAIL,
        ),
    ] {
        println!(
            "phase {name} rate={rate} requests={n} p50_ms={p50:.3} tail_ms(p{} of {TAIL_WINDOWS} windows)={tail:.3}",
            q * 100.0
        );
    }

    // The max_rps search: 1.6 s steps at offered rates chosen by
    // geometric bisection of the bracket between the highest carried
    // and the lowest failed rate (upward by SEARCH_GROWTH until one
    // fails), seeded by the fixed-rate phases. Every step and phase is
    // summarized at the same SEARCH_TAIL, and the result is where a
    // monotone fit of those tails reaches the latency limit.
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut pass = None;
    let mut fail = None;
    for (rate, samples) in [(LOW_RPS, &low_s), (HIGH_RPS, &high_s)] {
        let (_, tail, carried) = summarize(samples, SEARCH_TAIL);
        points.push((rate, tail));
        if carried {
            pass = Some(rate);
        } else if fail.is_none() {
            fail = Some(rate);
        }
    }
    let mut search_samples = 0usize;
    let mut next_id = low.len() + high.len();
    while run_start.elapsed().as_secs_f64() + SEARCH_STEP_S <= seconds {
        let rate = match (pass, fail) {
            (Some(lo), Some(hi)) => (lo * hi).sqrt(),
            (Some(lo), None) => lo * SEARCH_GROWTH,
            (None, Some(hi)) => hi / SEARCH_GROWTH,
            (None, None) => unreachable!("the fixed-rate phases set one side"),
        };
        let arrivals = stream.phase(rate, SEARCH_STEP_S);
        let samples = run_phase(&arrivals, &stream.docs, threads, next_id, &send);
        next_id += arrivals.len();
        search_samples += samples.len();
        let (p50, tail, carried) = summarize(&samples, SEARCH_TAIL);
        println!(
            "search rate={rate:.1} requests={} p50_ms={p50:.3} tail_ms(p{})={tail:.3} carried={carried}",
            samples.len(),
            SEARCH_TAIL * 100.0
        );
        for s in samples.iter().filter(|s| !s.ok) {
            outcome.failed += 1;
            outcome.note(format!(
                "search step {rate:.1}/s: doc c{} got HTTP {}",
                s.doc, s.status
            ));
        }
        points.push((rate, tail));
        if carried {
            pass = Some(rate);
        } else {
            fail = Some(rate);
        }
    }
    let max_rps = crossing_rate(&points, LATENCY_LIMIT_MS).unwrap_or_else(|| {
        let top = points.iter().map(|p| p.0).fold(0.0, f64::max);
        let bottom = points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        if points.iter().all(|p| p.1 <= LATENCY_LIMIT_MS) {
            outcome.note(format!(
                "no searched rate failed; max_rps is at least {top:.1}/s"
            ));
            top
        } else {
            outcome.note(format!(
                "no searched rate was carried; max_rps is below {bottom:.1}/s"
            ));
            bottom / SEARCH_GROWTH
        }
    });
    let served_from_cache =
        low_s.iter().chain(&high_s).filter(|s| s.hit).count() as u64 + coalesced;
    let evictions = running.artifact_evictions();
    running.stop();

    outcome.attempted += low_s.len() + high_s.len() + search_samples;
    let (facts, delta_f, counters) = check_phases(
        &stream.docs,
        &[("low", &low_s), ("high", &high_s)],
        Some((served_from_cache, evictions)),
        outcome,
    );
    outcome.counters = counters;
    print!("{}", outcome.counters);
    outcome.passes = 1;

    // Only a run shorter than the fixed 36 s draws fewer; its quality
    // aggregates then cover fewer documents and compare with no other.
    let quality_docs = facts.range(..QUALITY_DOCS).count();
    if quality_docs < QUALITY_DOCS {
        outcome.note(format!(
            "only {quality_docs} of the first {QUALITY_DOCS} catalog documents were served"
        ));
    }
    let compiled: Vec<&DocFacts> = facts
        .range(..QUALITY_DOCS)
        .map(|(_, f)| f)
        .filter(|f| f.compile_ms.is_some())
        .collect();
    let compile_ms: Vec<f64> = compiled.iter().filter_map(|f| f.compile_ms).collect();
    let gates: usize = compiled.iter().map(|f| f.gates).sum();
    let mut m = Metrics::new();
    m.put("setup_s", setup_s, "s");
    m.put(
        "gates_per_s",
        gates as f64 / (compile_ms.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.put("compile_ms.geomean", geomean(&compile_ms), "ms");
    for (i, mode) in Mode::ALL.iter().enumerate() {
        m.put(&format!("delta_f.{}", mode.name()), delta_f[i], "log10");
    }
    m.put(
        "ok_ratio",
        ok_ratio(outcome.attempted, outcome.failed),
        "ratio",
    );
    m.put("peak_rss_mb", crate::sys::peak_rss_mb(), "MB");
    m.put("p50_ms.low", p50_low, "ms");
    m.put("tail_ms.low", tail_low, "ms");
    m.put("p50_ms.high", p50_high, "ms");
    m.put("tail_ms.high", tail_high, "ms");
    m.put("max_rps", max_rps, "1/s");
    m
}

/// Runs the `serve` workload traced: the fixed-rate phases over HTTP,
/// the same stream in-process, and every distinct document through the
/// job layer and a layer-by-layer replay.
pub fn run_traced(setup: Setup, trace: &mut Trace, outcome: &mut Outcome, m: &mut Metrics) {
    let Setup {
        stream,
        low,
        high,
        running,
        ..
    } = setup;
    let threads = crate::sys::nproc();
    let http_send = |body: &str| running.send(body);
    let start = running.counts();
    let low_http = run_phase(&low, &stream.docs, threads, 0, &http_send);
    let mid = running.counts();
    let high_start = Instant::now();
    let high_http = run_phase(&high, &stream.docs, threads, low.len(), &http_send);
    let high_wall = high_start.elapsed().as_secs_f64();
    let end = running.counts();
    let high_export_ms = (end.export_us - mid.export_us) as f64 / 1e3;
    let coalesced = end.coalesced - start.coalesced;
    let rejected = end.rejected - start.rejected;
    let served_from_cache =
        low_http.iter().chain(&high_http).filter(|s| s.hit).count() as u64 + coalesced;
    let evictions = running.artifact_evictions();
    running.stop();

    // The same stream in-process: no transport.
    let local = Running::start(false);
    local.warm_up();
    let local_send = |body: &str| local.send(body);
    let low_local = run_phase(&low, &stream.docs, threads, 0, &local_send);
    let before = local.counts();
    let high_local = run_phase(&high, &stream.docs, threads, low.len(), &local_send);
    let after = local.counts();
    let jobs = (after.completed - before.completed).max(1) as f64;
    let worker_ms_per_job = (after.phases_us - before.phases_us) as f64 / 1e3 / jobs;
    local.stop();

    outcome.attempted += low_http.len() + high_http.len() + low_local.len() + high_local.len();
    let (facts, _, counters) = check_phases(
        &stream.docs,
        &[("low", &low_http), ("high", &high_http)],
        Some((served_from_cache, evictions)),
        outcome,
    );
    outcome.counters = counters;
    check_phases(
        &stream.docs,
        &[
            ("low/in-process", &low_local),
            ("high/in-process", &high_local),
        ],
        None,
        outcome,
    );

    // Every distinct document through the job layer, then replayed.
    let mut resolver = TargetResolver::new();
    let mut sessions: HashMap<(&'static str, Mode), Session> = HashMap::new();
    let mut scratch = CompileScratch::new();
    let mut map_scratch = MapScratch::new();
    let mut acc = LayerAccum::default();
    let (mut parse_ms, mut key_us, mut qasm_ms, mut qasm_bytes) = (0.0, 0.0, 0.0, 0usize);
    for &d in facts.keys() {
        let doc = &stream.docs[d];
        let (request, span) = trace.span("pipeline.job.parse", None, d, || {
            CompileRequest::from_json_with(&doc.body, &mut resolver)
        });
        parse_ms += trace.ms(span);
        let request = match request {
            Ok(r) => r,
            Err(e) => {
                outcome.failed += 1;
                outcome.problem(format!("doc c{d}: from_json_with failed: {e}"));
                continue;
            }
        };
        let (_, span) = trace.span("pipeline.job.key", None, d, || request_cache_key(&request));
        key_us += trace.ms(span) * 1e3;
        let (circuit, span) = trace.span("circuit.qasm_parse", None, d, || from_qasm(&doc.qasm));
        qasm_ms += trace.ms(span);
        qasm_bytes += doc.qasm.len();
        let Ok(circuit) = circuit else {
            outcome.failed += 1;
            outcome.problem(format!("doc c{d}: from_qasm failed"));
            continue;
        };
        let session = sessions.entry((doc.preset, doc.mode)).or_insert_with(|| {
            Session::from_compiler(request.build_session().expect("valid session"))
        });
        let start = Instant::now();
        let fused = session.compiler.compile_with(&circuit, &mut scratch);
        let fused_ms = start.elapsed().as_secs_f64() * 1e3;
        let fused = match fused {
            Ok(program) => program,
            Err(e) => {
                acc.fused_failed += 1;
                outcome.failed += 1;
                outcome.problem(format!("doc c{d}: compile failed: {e}"));
                continue;
            }
        };
        match replay(trace, d, session, &circuit, &mut map_scratch) {
            Ok((program, counts)) => {
                if !same_artifact(&program, &fused) {
                    outcome.failed += 1;
                    outcome.problem(format!(
                        "doc c{d}: replayed artifact differs from the fused one"
                    ));
                }
                acc.add(&counts, &fused, fused_ms);
                let response = CompileResponse {
                    request_id: None,
                    target: request.target.id.clone(),
                    results: vec![JobOutcome {
                        name: request.circuits[0].name.clone(),
                        result: Ok(fused),
                    }],
                };
                let (json, _) = trace.span("pipeline.export", None, d, || response.to_json());
                acc.counts.export_bytes += json.len();
            }
            Err(e) => {
                outcome.failed += 1;
                outcome.problem(format!("doc c{d}: replay failed: {e}"));
            }
        }
    }
    let n = facts.len().max(1) as f64;
    acc.metrics(trace, 1, m);
    m.put("circuit.qasm_parse_ms", qasm_ms / n, "ms");
    m.put("circuit.qasm_bytes", qasm_bytes as f64 / n, "bytes");
    m.put("pipeline.job.parse_ms", parse_ms / n, "ms");
    m.put("pipeline.job.key_us", key_us / n, "us");

    let p50 = |s: &[Sample]| {
        median(
            &s.iter()
                .filter(|s| s.ok)
                .map(|s| s.timing.latency_ms())
                .collect::<Vec<_>>(),
        )
    };
    m.put(
        "serve.http.overhead_ms",
        p50(&low_http) - p50(&low_local),
        "ms",
    );
    let admits: Vec<f64> = low_local
        .iter()
        .chain(&high_local)
        .map(|s| s.admit_ms)
        .collect();
    m.put("serve.admit_ms", median(&admits), "ms");
    let waits: Vec<f64> = high_local
        .iter()
        .filter(|s| !s.hit && s.ok)
        .map(|s| s.timing.latency_ms() - s.timing.lateness_ms() - s.admit_ms)
        .collect();
    let mean_wait = if waits.is_empty() {
        0.0
    } else {
        waits.iter().sum::<f64>() / waits.len() as f64
    };
    m.put("serve.queue_wait_ms", mean_wait - worker_ms_per_job, "ms");
    let requests = (low_http.len() + high_http.len()).max(1) as f64;
    let hits = low_http.iter().chain(&high_http).filter(|s| s.hit).count() as f64;
    m.put("serve.cache.hit_ratio", hits / requests, "ratio");
    m.put("serve.coalesced", coalesced as f64, "count");
    m.put("serve.rejected", rejected as f64, "count");
    let busy_ms: f64 = high_http
        .iter()
        .filter(|s| !s.hit && s.ok)
        .map(|s| s.compile_ms)
        .sum::<f64>()
        + high_export_ms;
    m.put(
        "serve.worker_util",
        busy_ms / (threads as f64 * high_wall * 1e3),
        "ratio",
    );
    let lateness: Vec<f64> = high_http.iter().map(|s| s.timing.lateness_ms()).collect();
    m.put(
        "serve.generator_late_ms",
        quantile(&lateness, HIGH_TAIL),
        "ms",
    );
    outcome.passes = 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_and_stats_strip_to_the_canonical_document() {
        let with = "{\n  \"request_id\": \"r7\",\n  \"version\": 1,\n  \"results\": [{\"program\":{\n  \
                    \"stats\": {\"map\":{\"a\":1},\"x\":2.5,\"route_cache\":{\"hits\":3}},\n  \"metrics\": {}}}]\n}\n";
        let canonical = strip_request_id(with);
        assert!(canonical.starts_with("{\n  \"version\": 1"));
        let bare = strip_stats(&canonical);
        assert!(bare.contains("\"stats\": {},\n  \"metrics\""));
        assert!(!bare.contains("route_cache"));
        assert_eq!(number_after(with, "\"x\":"), Some(2.5));
    }

    #[test]
    fn stream_is_reproducible_and_repeats_about_half() {
        let mut a = Stream::new(5);
        let mut b = Stream::new(5);
        let pa = a.phase(300.0, 5.0);
        let pb = b.phase(300.0, 5.0);
        assert_eq!(pa.len(), pb.len());
        assert!(pa
            .iter()
            .zip(&pb)
            .all(|(x, y)| x.due == y.due && x.doc == y.doc));
        assert!(a.docs.iter().zip(&b.docs).all(|(x, y)| x.body == y.body));
        let share_new = a.docs.len() as f64 / pa.len() as f64;
        assert!((share_new - 0.5).abs() < 0.06, "{share_new}");
        for doc in &a.docs {
            CompileRequest::from_json(&doc.body).expect("a valid v1 document");
            from_qasm(&doc.qasm).expect("valid QASM");
        }
    }
}
