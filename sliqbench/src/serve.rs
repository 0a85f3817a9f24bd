//! `serve_cold` and `serve_hot`: a live `sliq-serve` child process (the
//! shipped binary, default flags) under a closed loop of client
//! connections, each keeping a fixed window of requests outstanding.
//!
//! * `serve_cold` sends binary `RunGates` requests, each a random
//!   Clifford+T circuit the server has never seen, so the result cache
//!   always misses and inserts; sampling dominates service time.
//! * `serve_hot` sends `RunQasm` text drawn from a Zipf mix over a small
//!   population with a fixed seed and shot count; set-up warms the cache,
//!   so timed requests are cache hits and per-request overhead dominates.
//!
//! The traced run also replays a sample of the exact request bytes
//! in-process through the public functions the server's execute path
//! calls, which splits server time into layers without instrumenting it.

use crate::batch::{push_bdd, sub_seed, GATE_BUCKETS};
use crate::stats::{mean, median, percentile, Zipf};
use crate::trace::{merge_layers, Tracer};
use crate::{procfs, Metrics, Outcome, RunConfig, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sliq_circuit::{qasm, Circuit};
use sliq_exec::{circuit_fingerprint, BackendKind, ResultCache, Session, SessionConfig};
use sliq_serve::protocol::{self, Request, Response, RunOptions, RunOutcome, WireHistogram};
use sliq_serve::{Client, Server, ServerConfig, ServerHandle};
use sliq_workloads::random_clifford_t;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// The server pid the whole-run guard kills before aborting.
pub static SERVER_PID: AtomicU32 = AtomicU32::new(0);

/// Service-layer metrics, reported as 0 by workloads that bypass the
/// service.
pub const SERVE_LAYER_METRICS: [(&str, &str); 12] = [
    ("serve.server_run_ms", "ms"),
    ("serve.server_sample_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("serve.queue_depth_mean", "count"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("serve.client_codec_us", "us"),
    ("serve.overloaded", "count"),
    ("serve.sessions_per_req", "ratio"),
    ("serve.replay_decode_us", "us"),
    ("serve.replay_admit_us", "us"),
    ("serve.replay_encode_us", "us"),
];

/// Responses checked against an in-process session, per connection.
const CHECKED_PER_CONN: usize = 8;
/// Request frames per connection kept for the traced replay.
const REPLAYED_PER_CONN: usize = 24;
/// Answers per connection after which the server's peak RSS is read: a
/// fixed amount of work, so the reading does not grow with throughput
/// (every `serve_cold` answer adds a cache entry).
const RSS_MARK_PER_CONN: usize = 500;
/// Answers a full-size untraced run must get: `wall_s` is the median time
/// of 100 consecutive answers, and `p99_ms` needs 10 samples beyond it.
const MIN_ANSWERS: usize = 1000;
/// The request-stream phase whose circuits only set-up sends.
const WARM_UP_PHASE: u64 = 0xffff;
/// The seed of the `serve_cold` warm-up circuits: fixed, so set-up time
/// does not follow the run seed's draw of circuits.
const WARM_UP_SEED: u64 = 0;
/// `Stats` polling period of the traced run.
const STATS_POLL: Duration = Duration::from_millis(20);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    Cold,
    Hot,
}

/// Request shapes of one run, fixed by the mix, the scale and the seed.
struct Traffic {
    mix: Mix,
    seed: u64,
    scale: Scale,
    /// Client connections, each driven by its own thread.  `serve_cold`
    /// uses one: with two, the server's two workers and the client
    /// oversubscribed the two-core development VM, and its throughput then
    /// followed the host's load (rps spread 0.10 with two against 0.04
    /// with one, over 8 alternating runs).  `serve_hot` uses two, one per
    /// core.
    connections: usize,
    /// Requests each connection keeps outstanding, below the server's
    /// default per-connection queue share of 64/4 = 16 so nothing sheds.
    /// `serve_cold` keeps one, so service time rather than queue wait
    /// dominates.  `serve_hot` keeps two, so a request always waits in the
    /// queue; more made the tail latency swing from run to run with thread
    /// scheduling.
    window: usize,
    /// `serve_hot`: the QASM population and its Zipf weights.
    population: Vec<String>,
    zipf: Option<Zipf>,
    options: RunOptions,
}

impl Traffic {
    fn new(mix: Mix, seed: u64, scale: Scale) -> Self {
        let (population, zipf, shots) = match mix {
            Mix::Cold => (
                Vec::new(),
                None,
                if scale == Scale::Full { 1024 } else { 64 },
            ),
            Mix::Hot => {
                let (size, base) = if scale == Scale::Full {
                    (128, 9)
                } else {
                    (8, 5)
                };
                let population = (0..size)
                    .map(|i| {
                        let circuit =
                            random_clifford_t(base + i % 3, sub_seed(seed, 2_000_000 + i as u64));
                        qasm::emit(&circuit)
                    })
                    .collect();
                (population, Some(Zipf::new(size, 1.1)), 1024)
            }
        };
        Self {
            mix,
            seed,
            scale,
            connections: if mix == Mix::Cold { 1 } else { 2 },
            window: if mix == Mix::Cold { 1 } else { 2 },
            population,
            zipf,
            options: RunOptions {
                backend: BackendKind::Auto,
                shots,
                seed: sub_seed(seed, 3),
                tenant: String::new(),
            },
        }
    }

    /// The QASM round-trip guard over every QASM input of the run.
    fn check_round_trip(&self) -> Result<(), String> {
        for text in &self.population {
            let circuit = qasm::parse(text).map_err(|e| format!("population QASM: {e}"))?;
            if qasm::parse(&qasm::emit(&circuit)).ok().as_ref() != Some(&circuit) {
                return Err("QASM round trip changed a population circuit".into());
            }
        }
        Ok(())
    }

    /// The `k`-th request of connection `conn` in phase `phase`.
    fn request(&self, phase: u64, conn: usize, k: u64, rng: &mut StdRng) -> Request {
        match self.mix {
            Mix::Cold => {
                let id = (phase << 48) | ((conn as u64) << 32) | k;
                let base = if self.scale == Scale::Full { 9 } else { 6 };
                let circuit = random_clifford_t(base + (k % 3) as usize, sub_seed(self.seed, id));
                Request::RunGates {
                    options: RunOptions {
                        seed: sub_seed(self.seed, id ^ 0x5eed),
                        ..self.options.clone()
                    },
                    circuit,
                }
            }
            Mix::Hot => {
                let zipf = self.zipf.as_ref().expect("hot traffic has a population");
                Request::RunQasm {
                    options: self.options.clone(),
                    source: self.population[zipf.sample(rng)].clone(),
                }
            }
        }
    }
}

/// The server under test: the shipped binary as a child process, or (in
/// the self-tests, where no binary is built) an in-process server.
enum ServerProc {
    Child {
        child: Child,
        log: Option<thread::JoinHandle<()>>,
    },
    InProcess(Option<ServerHandle>),
}

impl ServerProc {
    fn start(bin: Option<&Path>) -> Result<(Self, SocketAddr), String> {
        let Some(bin) = bin else {
            let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
                .and_then(Server::spawn)
                .map_err(|e| format!("in-process server: {e}"))?;
            let addr = handle.addr();
            return Ok((ServerProc::InProcess(Some(handle)), addr));
        };
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        SERVER_PID.store(child.id(), Ordering::SeqCst);
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let addr = line
            .split_once("listening on ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(|addr| addr.parse::<SocketAddr>().ok());
        // Keep draining the server's stderr so it can never block on it.
        let log = thread::spawn(move || {
            let mut rest = Vec::new();
            let _ = stderr.read_to_end(&mut rest);
            if !rest.is_empty() {
                eprint!("{}", String::from_utf8_lossy(&rest));
            }
        });
        let server = ServerProc::Child {
            child,
            log: Some(log),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok((server, addr)),
            _ => Err(format!("sliq-serve did not report its address: {line:?}")),
        }
    }

    fn pid(&self) -> u32 {
        match self {
            ServerProc::Child { child, .. } => child.id(),
            ServerProc::InProcess(_) => std::process::id(),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        match self {
            ServerProc::Child { child, log } => {
                let _ = child.kill();
                let _ = child.wait();
                SERVER_PID.store(0, Ordering::SeqCst);
                if let Some(log) = log.take() {
                    let _ = log.join();
                }
            }
            ServerProc::InProcess(handle) => {
                if let Some(handle) = handle.take() {
                    handle.shutdown();
                }
            }
        }
    }
}

/// Reads one whole response frame (length prefix included) off the socket,
/// so decoding can be timed apart from waiting.
fn read_frame(reader: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut frame = vec![0u8; 4];
    reader.read_exact(&mut frame)?;
    let len = u32::from_be_bytes(frame[..4].try_into().expect("four bytes")) as usize;
    if len > protocol::MAX_FRAME_BYTES {
        return Err(std::io::Error::other(format!("{len}-byte response frame")));
    }
    frame.resize(4 + len, 0);
    reader.read_exact(&mut frame[4..])?;
    Ok(frame)
}

/// One answered (or failed) run request, as the client saw it.
struct Answer {
    latency_ns: u64,
    done_ns: u64,
    outcome: Option<RunOutcome>,
}

/// What one connection of the closed loop measured.
#[derive(Default)]
struct ConnResult {
    answers: Vec<Answer>,
    attempted: u64,
    failures: Vec<String>,
    overloaded: u64,
    request_bytes: u64,
    response_bytes: u64,
    codec_ns: u64,
    queue_depths: Vec<u64>,
    /// The server's peak RSS when this connection got its
    /// [`RSS_MARK_PER_CONN`]-th answer.
    rss_at_mark_mib: Option<f64>,
    /// `(request, response)` pairs checked after the timed phase.
    checked: Vec<(Request, RunOutcome)>,
    /// Exact request frames replayed in-process by the traced run.
    replay: Vec<Vec<u8>>,
    tracer: Option<Tracer>,
}

/// Checks what every response must satisfy whatever the circuit.
fn sane(outcome: &RunOutcome, shots: u64) -> Result<(), String> {
    if (outcome.total_probability - 1.0).abs() > 1e-9 {
        return Err(format!("total probability {}", outcome.total_probability));
    }
    match &outcome.histogram {
        Some(h) if h.shots == shots && h.counts.iter().map(|(_, c)| c).sum::<u64>() == shots => {
            Ok(())
        }
        _ => Err("histogram does not hold every requested shot".into()),
    }
}

/// Drives one connection: keeps `traffic.window` requests outstanding
/// until `deadline`, then drains.  Returns every answer it received.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    server_pid: u32,
    traffic: &Traffic,
    phase: u64,
    conn: usize,
    epoch: Instant,
    deadline: Instant,
    traced: bool,
) -> Result<ConnResult, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut rng =
        StdRng::seed_from_u64(sub_seed(traffic.seed, 4_000_000 + 10 * phase + conn as u64));
    let mut tracer = Tracer::new(traced, epoch);
    let mut result = ConnResult::default();
    // request id → (send time, request index, request if it is checked)
    let mut in_flight: HashMap<u32, (u64, u64, Option<Request>)> = HashMap::new();
    let mut stats_in_flight: Option<u32> = None;
    let mut next_poll = Instant::now();
    let mut next_id: u32 = 1;
    let mut k: u64 = 0;
    let now_ns = |epoch: Instant| epoch.elapsed().as_nanos() as u64;

    let mut send_one = |k: u64,
                        next_id: &mut u32,
                        writer: &mut TcpStream,
                        in_flight: &mut HashMap<u32, (u64, u64, Option<Request>)>,
                        result: &mut ConnResult,
                        tracer: &mut Tracer|
     -> Result<(), String> {
        let request = traffic.request(phase, conn, k, &mut rng);
        let id = *next_id;
        *next_id += 1;
        let encode_start = now_ns(epoch);
        let frame = protocol::encode_request(id, &request).map_err(|e| e.to_string())?;
        let sent = now_ns(epoch);
        tracer.record("client.encode", u64::from(id), encode_start, sent, None);
        result.codec_ns += sent - encode_start;
        result.request_bytes += frame.len() as u64;
        if traced && result.replay.len() < REPLAYED_PER_CONN {
            result.replay.push(frame.clone());
        }
        writer.write_all(&frame).map_err(|e| format!("send: {e}"))?;
        result.attempted += 1;
        let keep = (k < CHECKED_PER_CONN as u64).then_some(request);
        in_flight.insert(id, (sent, k, keep));
        Ok(())
    };

    for _ in 0..traffic.window {
        send_one(
            k,
            &mut next_id,
            &mut writer,
            &mut in_flight,
            &mut result,
            &mut tracer,
        )?;
        k += 1;
    }
    while !in_flight.is_empty() || stats_in_flight.is_some() {
        if traced && conn == 0 && stats_in_flight.is_none() && Instant::now() >= next_poll {
            let id = next_id;
            next_id += 1;
            let frame = protocol::encode_request(id, &Request::Stats).map_err(|e| e.to_string())?;
            writer.write_all(&frame).map_err(|e| format!("send: {e}"))?;
            stats_in_flight = Some(id);
            next_poll = Instant::now() + STATS_POLL;
        }
        let frame = read_frame(&mut reader).map_err(|e| format!("receive: {e}"))?;
        let received = now_ns(epoch);
        let (id, response) = protocol::read_response(&mut &frame[..], protocol::MAX_FRAME_BYTES)
            .map_err(|e| format!("decode: {e}"))?;
        let decoded = now_ns(epoch);
        if stats_in_flight == Some(id) {
            stats_in_flight = None;
            if let Response::Stats(stats) = response {
                result
                    .queue_depths
                    .push(stats.get("queue_depth").unwrap_or(0));
            }
            continue;
        }
        let Some((sent, index, checked)) = in_flight.remove(&id) else {
            return Err(format!("response for unknown request {id}"));
        };
        result.codec_ns += decoded - received;
        result.response_bytes += frame.len() as u64;
        let latency_ns = received - sent;
        let outcome = match response {
            Response::Run(outcome) => match sane(&outcome, traffic.options.shots) {
                Ok(()) => Some(outcome),
                Err(why) => {
                    result.failures.push(format!("request {index}: {why}"));
                    None
                }
            },
            Response::Overloaded { message } => {
                result.overloaded += 1;
                result
                    .failures
                    .push(format!("request {index} shed: {message}"));
                None
            }
            other => {
                result.failures.push(format!("request {index}: {other:?}"));
                None
            }
        };
        if let Some(outcome) = &outcome {
            let span = tracer.record("request", u64::from(id), sent, decoded, None);
            let sample_us = outcome.histogram.as_ref().map_or(0, |h| h.sample_micros);
            let sample_ns = sample_us * 1000;
            let run_ns = outcome.run_micros * 1000;
            let run_start = received.saturating_sub(sample_ns + run_ns);
            tracer.record(
                "server.run",
                u64::from(id),
                run_start,
                run_start + run_ns,
                span,
            );
            tracer.record(
                "server.sample",
                u64::from(id),
                run_start + run_ns,
                run_start + run_ns + sample_ns,
                span,
            );
            tracer.record("client.decode", u64::from(id), received, decoded, span);
            if let Some(request) = checked {
                result.checked.push((request, outcome.clone()));
            }
        }
        result.answers.push(Answer {
            latency_ns,
            done_ns: received,
            outcome,
        });
        if result.answers.len() == RSS_MARK_PER_CONN {
            result.rss_at_mark_mib = procfs::sample(server_pid).ok().map(|s| s.peak_rss_mib);
        }
        if Instant::now() < deadline {
            send_one(
                k,
                &mut next_id,
                &mut writer,
                &mut in_flight,
                &mut result,
                &mut tracer,
            )?;
            k += 1;
        }
    }
    result.tracer = Some(tracer);
    Ok(result)
}

/// Everything one timed phase measured.
struct Phase {
    conns: Vec<ConnResult>,
    elapsed_s: f64,
    proc_before: procfs::ProcSample,
    proc_after: procfs::ProcSample,
    threads_peak: u64,
    stats_before: sliq_serve::StatsSnapshot,
    stats_after: sliq_serve::StatsSnapshot,
}

impl Phase {
    fn answers(&self) -> impl Iterator<Item = &Answer> {
        self.conns.iter().flat_map(|c| c.answers.iter())
    }

    fn ok(&self) -> impl Iterator<Item = &RunOutcome> {
        self.answers().filter_map(|a| a.outcome.as_ref())
    }

    fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.attempted).sum()
    }

    fn rps(&self) -> f64 {
        self.ok().count() as f64 / self.elapsed_s
    }

    fn stat_delta(&self, name: &str) -> f64 {
        let get = |s: &sliq_serve::StatsSnapshot| s.get(name).unwrap_or(0) as f64;
        get(&self.stats_after) - get(&self.stats_before)
    }
}

fn run_phase(
    server: &ServerProc,
    addr: SocketAddr,
    control: &mut Client,
    traffic: &Traffic,
    phase: u64,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let pid = server.pid();
    let stats_before = control.server_stats().map_err(|e| e.to_string())?;
    let proc_before = procfs::sample(pid).map_err(|e| e.to_string())?;
    let mut threads_peak = proc_before.threads;
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let conns = thread::scope(|scope| {
        let handles: Vec<_> = (0..traffic.connections)
            .map(|conn| {
                scope.spawn(move || drive(addr, pid, traffic, phase, conn, epoch, deadline, traced))
            })
            .collect();
        if traced {
            while !handles.iter().all(|h| h.is_finished()) {
                if let Ok(now) = procfs::sample(pid) {
                    threads_peak = threads_peak.max(now.threads);
                }
                thread::sleep(Duration::from_millis(50));
            }
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let elapsed_s = conns
        .iter()
        .flat_map(|c| c.answers.iter().map(|a| a.done_ns))
        .max()
        .unwrap_or(1) as f64
        / 1e9;
    let proc_after = procfs::sample(pid).map_err(|e| e.to_string())?;
    let stats_after = control.server_stats().map_err(|e| e.to_string())?;
    Ok(Phase {
        conns,
        elapsed_s,
        proc_before,
        proc_after,
        threads_peak,
        stats_before,
        stats_after,
    })
}

/// A response's expected value: the same (circuit, seed) run on an
/// in-process session configured as the server configures its own.
fn local_outcome(request: &Request) -> Result<(f64, Vec<(u64, u64)>), String> {
    let (options, circuit) = match request {
        Request::RunQasm { options, source } => {
            (options, qasm::parse(source).map_err(|e| e.to_string())?)
        }
        Request::RunGates { options, circuit } => (options, circuit.clone()),
        other => return Err(format!("not a run request: {other:?}")),
    };
    let config = SessionConfig::with_backend(options.backend.resolve(&circuit))
        .measurement_seed(options.seed);
    let mut session = Session::for_circuit(&circuit, config).map_err(|e| e.to_string())?;
    let run = session.run(&circuit).map_err(|e| e.to_string())?;
    let sample = session
        .sample(options.shots, options.seed)
        .map_err(|e| e.to_string())?;
    let counts = sample
        .histogram
        .counts()
        .iter()
        .map(|(&o, &c)| (o, c))
        .collect();
    Ok((run.total_probability, counts))
}

/// Compares the checked responses with in-process sessions.
fn check_responses(phase: &Phase) -> Vec<String> {
    let mut failures = Vec::new();
    for (request, outcome) in phase.conns.iter().flat_map(|c| c.checked.iter()) {
        match local_outcome(request) {
            Ok((total, counts)) => {
                let served = outcome.histogram.as_ref().map(|h| &h.counts);
                if total.to_bits() != outcome.total_probability.to_bits() || served != Some(&counts)
                {
                    failures.push("a served result differs from an in-process session".into());
                }
            }
            Err(e) => failures.push(format!("in-process check failed: {e}")),
        }
    }
    failures
}

/// Per-phase timings of one request replayed through the server's execute
/// path, in the server's order.
#[derive(Default)]
struct Replayed {
    decode_ns: u64,
    parse_ns: u64,
    admit_ns: u64,
    build_ns: u64,
    fingerprint_ns: u64,
    run_ns: u64,
    sample_ns: u64,
    encode_ns: u64,
    bdd: Option<sliq_bdd::ManagerStats>,
}

/// Replays one request frame in-process: `read_request`, QASM parse,
/// admission checks, session build with the cache attached, `run`,
/// `sample`, `encode_response` — the calls `sliq-serve` makes per request.
fn replay(frame: &[u8], cache: &std::sync::Arc<ResultCache>) -> Result<Replayed, String> {
    let defaults = ServerConfig::default();
    let mut timings = Replayed::default();
    let mut clock = Instant::now();
    let lap = |clock: &mut Instant| {
        let ns = clock.elapsed().as_nanos() as u64;
        *clock = Instant::now();
        ns
    };
    let (id, request) = protocol::read_request(
        &mut &frame[..],
        defaults.max_frame_bytes,
        &defaults.parse_limits,
    )
    .map_err(|e| e.to_string())?;
    timings.decode_ns = lap(&mut clock);
    let (options, circuit): (RunOptions, Circuit) = match request {
        Request::RunQasm { options, source } => {
            let circuit = qasm::parse_with_limits(&source, defaults.parse_limits)
                .map_err(|e| e.to_string())?;
            (options, circuit)
        }
        Request::RunGates { options, circuit } => (options, circuit),
        other => return Err(format!("not a run request: {other:?}")),
    };
    timings.parse_ns = lap(&mut clock);
    circuit.validate().map_err(|e| e.to_string())?;
    let backend = options.backend.resolve(&circuit);
    options
        .backend
        .check_circuit(&circuit)
        .map_err(|e| e.to_string())?;
    backend
        .check_capacity(circuit.num_qubits(), None)
        .map_err(|e| e.to_string())?;
    timings.admit_ns = lap(&mut clock);
    let config = SessionConfig::with_backend(backend).measurement_seed(options.seed);
    let mut session = Session::for_circuit(&circuit, config).map_err(|e| e.to_string())?;
    session.attach_result_cache(std::sync::Arc::clone(cache));
    timings.build_ns = lap(&mut clock);
    std::hint::black_box(circuit_fingerprint(&circuit));
    timings.fingerprint_ns = lap(&mut clock);
    let run = session.run(&circuit).map_err(|e| e.to_string())?;
    timings.run_ns = lap(&mut clock);
    let sample = session
        .sample(options.shots, options.seed)
        .map_err(|e| e.to_string())?;
    timings.sample_ns = lap(&mut clock);
    let response = Response::Run(RunOutcome {
        backend: run.backend,
        gates_applied: run.gates_applied as u64,
        run_micros: run.elapsed.as_micros() as u64,
        total_probability: run.total_probability,
        live_nodes: run.stats.live_nodes.map(|n| n as u64),
        peak_memory_mib: run.stats.memory_mib,
        histogram: Some(WireHistogram {
            shots: sample.shots,
            sample_micros: sample.elapsed.as_micros() as u64,
            counts: sample
                .histogram
                .counts()
                .iter()
                .map(|(&o, &c)| (o, c))
                .collect(),
        }),
        readout: run.readout,
    });
    std::hint::black_box(protocol::encode_response(id, &response));
    timings.encode_ns = lap(&mut clock);
    timings.bdd = session.stats().bdd;
    Ok(timings)
}

/// Starts the server and readies it for the timed phase: connect, ping,
/// then let lazy start-up finish.  `serve_hot` warms the result cache with
/// the whole population; `serve_cold` sends one unseen circuit per worker.
fn start_and_warm(
    bin: Option<&Path>,
    traffic: &Traffic,
) -> Result<(ServerProc, SocketAddr, Client), String> {
    let (server, addr) = ServerProc::start(bin)?;
    let mut control = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    control.ping().map_err(|e| format!("ping: {e}"))?;
    for text in &traffic.population {
        let outcome = control
            .run_qasm(text, traffic.options.clone())
            .map_err(|e| format!("warm-up: {e}"))?;
        sane(&outcome, traffic.options.shots)?;
    }
    if traffic.mix == Mix::Cold {
        let workers = ServerConfig::default().workers;
        let warm_up = Traffic::new(Mix::Cold, WARM_UP_SEED, traffic.scale);
        let mut rng = StdRng::seed_from_u64(0);
        for k in 0..workers as u64 {
            let Request::RunGates { options, circuit } =
                warm_up.request(WARM_UP_PHASE, 0, k, &mut rng)
            else {
                unreachable!("cold traffic is binary circuits");
            };
            control
                .send_run_circuit(&circuit, options)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        for _ in 0..workers {
            match control.receive().map_err(|e| format!("warm-up: {e}"))? {
                (_, Response::Run(outcome)) => sane(&outcome, traffic.options.shots)?,
                (_, other) => return Err(format!("warm-up: {other:?}")),
            }
        }
    }
    Ok((server, addr, control))
}

/// One set-up: input generation, the round-trip guard, server start and
/// cache warm-up.  Returns its time, the traffic and the started server.
#[allow(clippy::type_complexity)]
fn set_up(
    config: &RunConfig,
    mix: Mix,
) -> Result<(f64, Traffic, (ServerProc, SocketAddr, Client)), String> {
    let start = Instant::now();
    let traffic = Traffic::new(mix, config.seed, config.scale);
    traffic.check_round_trip()?;
    let started = start_and_warm(config.serve_bin.as_deref(), &traffic)?;
    Ok((start.elapsed().as_secs_f64(), traffic, started))
}

pub fn run(config: &RunConfig, mix: Mix) -> Result<Outcome, String> {
    // Set-up is repeated so its median is steady: a few times before the
    // timed phase, where the last server started is the one measured, and
    // as many after it, so the samples span the run as the host's speed
    // drifts.
    let repeats = if mix == Mix::Hot { 2 } else { 5 };
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..repeats {
        drop(ready.take());
        let (seconds, traffic, started) = set_up(config, mix)?;
        setup_s.push(seconds);
        ready = Some((traffic, started));
    }
    let (traffic, (server, addr, mut control)) = ready.expect("set-up ran");

    let mut metrics = Metrics::default();
    let mut failures = Vec::new();
    let measured = if !config.trace {
        let phase = run_phase(
            &server,
            addr,
            &mut control,
            &traffic,
            0,
            config.seconds,
            false,
        )?;
        let mut latencies: Vec<f64> = phase
            .answers()
            .map(|a| match a.outcome {
                Some(_) => a.latency_ns as f64 / 1e6,
                None => f64::INFINITY,
            })
            .collect();
        latencies.sort_by(f64::total_cmp);
        // A round is 100 consecutive answers (a tenth of the run in the
        // tiny self-test, which is too short for the full-size checks).
        let full = config.scale == Scale::Full;
        let mut done: Vec<u64> = phase.answers().map(|a| a.done_ns).collect();
        done.sort_unstable();
        if full && done.len() < MIN_ANSWERS {
            failures.push(format!(
                "{} answers, fewer than the {MIN_ANSWERS} a run needs",
                done.len()
            ));
        }
        let round = if full { 100 } else { (done.len() / 10).max(1) };
        let marks: Vec<u64> = done.iter().copied().step_by(round).collect();
        let rounds: Vec<f64> = marks
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e9)
            .collect();
        metrics.push(
            "wall_s",
            if rounds.is_empty() {
                phase.elapsed_s
            } else {
                median(&rounds)
            },
            "s",
        );
        metrics.push("rps", phase.rps(), "1/s");
        metrics.push("p50_ms", percentile(&latencies, 50.0), "ms");
        metrics.push("p99_ms", percentile(&latencies, 99.0), "ms");
        // The first connection's reading at the mark.  Only the tiny
        // self-test may fall back to the end-of-run peak, a different
        // quantity.
        let peak_rss = match phase.conns[0].rss_at_mark_mib {
            Some(mib) => mib,
            None => {
                if full {
                    failures.push(format!(
                        "the first connection got fewer than {RSS_MARK_PER_CONN} answers, \
                         so the server's RSS was not read"
                    ));
                }
                phase.proc_after.peak_rss_mib
            }
        };
        metrics.push("peak_rss_mib", peak_rss, "MiB");
        phase
    } else {
        // Untraced half first, for the overhead baseline; the traced half
        // gives the layer numbers.
        let half = config.seconds / 2.0;
        let baseline = run_phase(&server, addr, &mut control, &traffic, 0, half, false)?;
        let phase = run_phase(&server, addr, &mut control, &traffic, 1, half, true)?;
        for conn in &baseline.conns {
            failures.extend(conn.failures.iter().cloned());
        }
        let cache = ResultCache::shared(ResultCache::global().capacity_bytes());
        if mix == Mix::Hot {
            // The replay cache must hold what the server's holds: the
            // warmed population.
            for text in &traffic.population {
                let frame = protocol::encode_request(
                    1,
                    &Request::RunQasm {
                        options: traffic.options.clone(),
                        source: text.clone(),
                    },
                )
                .map_err(|e| e.to_string())?;
                replay(&frame, &cache)?;
            }
        }
        let replays = phase
            .conns
            .iter()
            .flat_map(|c| c.replay.iter())
            .map(|frame| replay(frame, &cache))
            .collect::<Result<Vec<_>, String>>()?;
        let replay_mean = |f: &dyn Fn(&Replayed) -> u64| {
            mean(&replays.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
        };
        let ok: Vec<&RunOutcome> = phase.ok().collect();
        let ok_mean =
            |f: &dyn Fn(&RunOutcome) -> f64| mean(&ok.iter().map(|o| f(o)).collect::<Vec<_>>());
        let server_run_ms = ok_mean(&|o| o.run_micros as f64 / 1e3);
        let server_sample_ms = ok_mean(&|o| {
            o.histogram
                .as_ref()
                .map_or(0.0, |h| h.sample_micros as f64 / 1e3)
        });
        let latency_ms = mean(
            &phase
                .answers()
                .filter(|a| a.outcome.is_some())
                .map(|a| a.latency_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        let requests = phase.attempted() as f64;
        let sum = |f: &dyn Fn(&ConnResult) -> u64| phase.conns.iter().map(f).sum::<u64>() as f64;
        let hits = phase.stat_delta("cache_hits");
        let lookups = hits + phase.stat_delta("cache_misses");
        let queue: Vec<f64> = phase
            .conns
            .iter()
            .flat_map(|c| c.queue_depths.iter().map(|&d| d as f64))
            .collect();

        metrics.push("circuit.parse_ms", replay_mean(&|r| r.parse_ns) / 1e6, "ms");
        metrics.push(
            "exec.session_build_us",
            replay_mean(&|r| r.build_ns) / 1e3,
            "us",
        );
        metrics.push(
            "exec.fingerprint_us",
            replay_mean(&|r| r.fingerprint_ns) / 1e3,
            "us",
        );
        metrics.push("exec.run_ms", replay_mean(&|r| r.run_ns) / 1e6, "ms");
        metrics.push("exec.query_ms", 0.0, "ms");
        metrics.push("exec.sample_ms", replay_mean(&|r| r.sample_ns) / 1e6, "ms");
        metrics.push(
            "exec.sample_distinct",
            ok_mean(&|o| o.histogram.as_ref().map_or(0.0, |h| h.counts.len() as f64)),
            "count",
        );
        metrics.push(
            "exec.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        );
        for bucket in GATE_BUCKETS {
            metrics.push_owned(format!("core.gate_ms.{bucket}"), 0.0, "ms");
        }
        push_bdd(&mut metrics, replays.iter().filter_map(|r| r.bdd.as_ref()));
        metrics.push("serve.server_run_ms", server_run_ms, "ms");
        metrics.push("serve.server_sample_ms", server_sample_ms, "ms");
        metrics.push(
            "serve.residual_ms",
            latency_ms - server_run_ms - server_sample_ms,
            "ms",
        );
        metrics.push("serve.queue_depth_mean", mean(&queue), "count");
        metrics.push(
            "serve.request_bytes",
            sum(&|c| c.request_bytes) / requests,
            "B",
        );
        metrics.push(
            "serve.response_bytes",
            sum(&|c| c.response_bytes) / ok.len().max(1) as f64,
            "B",
        );
        metrics.push(
            "serve.client_codec_us",
            sum(&|c| c.codec_ns) / requests / 1e3,
            "us",
        );
        metrics.push("serve.overloaded", sum(&|c| c.overloaded), "count");
        metrics.push(
            "serve.sessions_per_req",
            phase.stat_delta("sessions_opened") / phase.stat_delta("requests_ok").max(1.0),
            "ratio",
        );
        metrics.push(
            "serve.replay_decode_us",
            replay_mean(&|r| r.decode_ns) / 1e3,
            "us",
        );
        metrics.push(
            "serve.replay_admit_us",
            replay_mean(&|r| r.admit_ns) / 1e3,
            "us",
        );
        metrics.push(
            "serve.replay_encode_us",
            replay_mean(&|r| r.encode_ns) / 1e3,
            "us",
        );
        let cpu_s = phase.proc_after.cpu_s - phase.proc_before.cpu_s;
        metrics.push("proc.cpu_s", cpu_s, "s");
        metrics.push("proc.cpu_util", cpu_s / phase.elapsed_s, "cores");
        metrics.push(
            "proc.ctx_switches_invol",
            phase
                .proc_after
                .ctx_switches_invol
                .saturating_sub(phase.proc_before.ctx_switches_invol) as f64,
            "count",
        );
        metrics.push("proc.threads_peak", phase.threads_peak as f64, "count");
        metrics.push(
            "trace.covered_pct",
            100.0 * (server_run_ms + server_sample_ms) / latency_ms,
            "%",
        );
        metrics.push(
            "trace.overhead_pct",
            100.0 * (baseline.rps() / phase.rps() - 1.0),
            "%",
        );
        let tracers: Vec<&Tracer> = phase
            .conns
            .iter()
            .filter_map(|c| c.tracer.as_ref())
            .collect();
        let layers = merge_layers(&tracers);
        for (name, layer) in &layers {
            eprintln!(
                "  span {name:<16} n={:<7} self {:>10.3} ms total",
                layer.count,
                layer.self_ns as f64 / 1e6
            );
        }
        config.write_trace(&tracers)?;
        phase
    };
    drop(control);
    drop(server);
    for _ in 0..repeats {
        setup_s.push(set_up(config, mix)?.0);
    }
    if !config.trace {
        metrics.push("setup_s", median(&setup_s), "s");
    }

    for conn in &measured.conns {
        failures.extend(conn.failures.iter().cloned());
    }
    failures.extend(check_responses(&measured));
    Ok(Outcome {
        attempted: measured.attempted(),
        failed: failures.len() as u64,
        failures,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_serve_smoke() {
        for mix in [Mix::Cold, Mix::Hot] {
            for trace in [false, true] {
                let config = RunConfig::for_test(Scale::Tiny, trace);
                let outcome = run(&config, mix).unwrap();
                assert_eq!(outcome.failed, 0, "{mix:?}: {:?}", outcome.failures);
                assert!(outcome.attempted > 0);
                if trace {
                    let hit_ratio = outcome.metrics.get("exec.cache_hit_ratio").unwrap();
                    match mix {
                        Mix::Cold => assert_eq!(hit_ratio, 0.0),
                        Mix::Hot => assert!(hit_ratio > 0.99, "{hit_ratio}"),
                    }
                } else {
                    assert!(outcome.metrics.get("rps").unwrap() > 0.0);
                }
            }
        }
    }

    #[test]
    fn request_streams_are_deterministic_in_the_seed() {
        for mix in [Mix::Cold, Mix::Hot] {
            let a = Traffic::new(mix, 11, Scale::Tiny);
            let b = Traffic::new(mix, 11, Scale::Tiny);
            let mut ra = StdRng::seed_from_u64(1);
            let mut rb = StdRng::seed_from_u64(1);
            for k in 0..20 {
                assert_eq!(a.request(0, 1, k, &mut ra), b.request(0, 1, k, &mut rb));
            }
        }
    }
}
