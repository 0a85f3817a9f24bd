//! The TCP server: connection handling, admission control, and the worker
//! pool that executes queued runs.
//!
//! One thread accepts connections; one lightweight thread per connection
//! decodes frames and answers cheap requests (ping, stats, malformed
//! input, capability rejections) inline; heavy work — actually simulating
//! a circuit — is queued on the fair [`Scheduler`] and executed by a fixed
//! pool of worker threads, so a burst of connections cannot spawn
//! unbounded simulation work.  When the queue is full the request is
//! answered with an explicit `Overloaded` frame instead of queueing —
//! memory stays bounded under any load.
//!
//! Responses are written through a per-connection mutex and tagged with the
//! request id, so a connection may pipeline requests and receive responses
//! out of order as workers finish.

use crate::protocol::{
    self, codes, Request, Response, RunOptions, RunOutcome, StatsSnapshot, WireError, WireHistogram,
};
use crate::scheduler::{Refusal, Scheduler};
use sliq_circuit::qasm::{self, ParseLimits};
use sliq_circuit::Circuit;
use sliq_exec::{BackendKind, CapacityResource, ExecError, ResultCache, Session, SessionConfig};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Server construction options (builder style).
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads executing queued runs: the server's unit of
    /// parallelism, one single-threaded session per worker (default:
    /// [`sliq_bdd::default_threads`], i.e. `SLIQ_THREADS` or the available
    /// cores).
    pub workers: usize,
    /// Global admission-queue depth; submissions beyond it are shed.
    pub queue_depth: usize,
    /// Per-connection share of the queue (`None` = `queue_depth / 4`).
    pub per_conn_queue: Option<usize>,
    /// Maximum simultaneously open connections; extras are refused.
    pub max_connections: usize,
    /// Byte budget applied to tenants without an explicit budget.
    pub default_max_bytes: Option<usize>,
    /// Explicit per-tenant byte budgets.
    pub tenant_budgets: Vec<(String, usize)>,
    /// Enable automatic variable reordering in sessions.
    pub auto_reorder: bool,
    /// Attach the shared result cache to every session.
    pub use_result_cache: bool,
    /// The cache to attach (`None` = the process-global cache).
    pub result_cache: Option<Arc<ResultCache>>,
    /// Limits applied to QASM text and binary circuit payloads.
    pub parse_limits: ParseLimits,
    /// Maximum accepted frame payload, checked before allocation.  It also
    /// caps a run's draw buffer: requests with `8·shots` above it are
    /// rejected at admission.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: sliq_bdd::pool::default_threads().max(1),
            queue_depth: 64,
            per_conn_queue: None,
            max_connections: 64,
            default_max_bytes: None,
            tenant_budgets: Vec::new(),
            auto_reorder: false,
            use_result_cache: true,
            result_cache: None,
            parse_limits: ParseLimits::default(),
            max_frame_bytes: protocol::MAX_FRAME_BYTES,
        }
    }
}

impl ServerConfig {
    /// Sets the worker-thread count (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the global admission-queue depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the per-connection queue share.
    pub fn per_conn_queue(mut self, depth: usize) -> Self {
        self.per_conn_queue = Some(depth.max(1));
        self
    }

    /// Sets the open-connection cap.
    pub fn max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap.max(1);
        self
    }

    /// Sets the default per-tenant byte budget.
    pub fn default_max_bytes(mut self, bytes: usize) -> Self {
        self.default_max_bytes = Some(bytes);
        self
    }

    /// Gives `tenant` an explicit byte budget (overrides the default).
    pub fn tenant_budget(mut self, tenant: impl Into<String>, bytes: usize) -> Self {
        self.tenant_budgets.push((tenant.into(), bytes));
        self
    }

    /// Enables automatic variable reordering in sessions.
    pub fn auto_reorder(mut self, enabled: bool) -> Self {
        self.auto_reorder = enabled;
        self
    }

    /// Enables or disables the shared result cache.
    pub fn result_cache(mut self, enabled: bool) -> Self {
        self.use_result_cache = enabled;
        self
    }

    /// Attaches a specific cache instance instead of the process-global
    /// one (implies enabling the cache).
    pub fn with_result_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.use_result_cache = true;
        self.result_cache = Some(cache);
        self
    }

    /// Sets the parse limits applied to submitted circuits.
    pub fn parse_limits(mut self, limits: ParseLimits) -> Self {
        self.parse_limits = limits;
        self
    }

    /// Sets the maximum accepted frame size.
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes.max(64);
        self
    }

    fn budget_for(&self, tenant: &str) -> Option<usize> {
        self.tenant_budgets
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, bytes)| *bytes)
            .or(self.default_max_bytes)
    }
}

/// Live server counters (all monotone except `connections_open` and the
/// queue gauge, which move both ways).
#[derive(Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections_accepted: AtomicU64,
    /// Connections refused at the open-connection cap.
    pub connections_refused: AtomicU64,
    /// Connections currently open.
    pub connections_open: AtomicU64,
    /// Requests decoded (any type).
    pub requests: AtomicU64,
    /// Run requests answered successfully.
    pub requests_ok: AtomicU64,
    /// Requests answered with an error frame.
    pub requests_error: AtomicU64,
    /// Run requests shed with an overloaded frame.
    pub requests_overloaded: AtomicU64,
    /// Gates applied by completed runs.
    pub gates_applied: AtomicU64,
    /// Measurement shots drawn by completed runs.
    pub shots_sampled: AtomicU64,
    /// Simulation sessions opened by workers.
    pub sessions_opened: AtomicU64,
}

/// The job a connection thread hands to the worker pool.
struct Job {
    writer: Arc<ConnWriter>,
    request_id: u32,
    options: RunOptions,
    circuit: Circuit,
    backend: BackendKind,
    max_bytes: Option<usize>,
}

/// Serialised writer for one connection: workers and the connection thread
/// interleave whole frames, never bytes.
struct ConnWriter {
    stream: Mutex<BufWriter<TcpStream>>,
}

impl ConnWriter {
    fn send(&self, request_id: u32, response: &Response) {
        let frame = protocol::encode_response(request_id, response);
        // A handler thread that panicked mid-send poisons this mutex; the
        // stream state is still a whole number of frames (frames are written
        // with one `write_all`), so later senders can keep using it.
        let mut stream = self
            .stream
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // The peer may already be gone; workers just drop the result then.
        let _ = stream.write_all(&frame).and_then(|_| stream.flush());
    }
}

struct Shared {
    config: ServerConfig,
    scheduler: Scheduler<Job>,
    stats: ServerStats,
    cache: Arc<ResultCache>,
    shutdown: AtomicBool,
    /// Read-half clones of open connections, shut down to unblock their
    /// threads when the server stops.
    conn_streams: Mutex<HashMap<u64, TcpStream>>,
    handler_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn stats_snapshot(&self) -> StatsSnapshot {
        let s = &self.stats;
        let cache = self.cache.stats();
        let mut fields = vec![
            (
                "connections_accepted".into(),
                s.connections_accepted.load(Ordering::Relaxed),
            ),
            (
                "connections_refused".into(),
                s.connections_refused.load(Ordering::Relaxed),
            ),
            (
                "connections_open".into(),
                s.connections_open.load(Ordering::Relaxed),
            ),
            ("requests".into(), s.requests.load(Ordering::Relaxed)),
            ("requests_ok".into(), s.requests_ok.load(Ordering::Relaxed)),
            (
                "requests_error".into(),
                s.requests_error.load(Ordering::Relaxed),
            ),
            (
                "requests_overloaded".into(),
                s.requests_overloaded.load(Ordering::Relaxed),
            ),
            (
                "gates_applied".into(),
                s.gates_applied.load(Ordering::Relaxed),
            ),
            (
                "shots_sampled".into(),
                s.shots_sampled.load(Ordering::Relaxed),
            ),
            (
                "sessions_opened".into(),
                s.sessions_opened.load(Ordering::Relaxed),
            ),
            ("queue_depth".into(), self.scheduler.queued() as u64),
        ];
        fields.push(("cache_hits".into(), cache.hits));
        fields.push(("cache_misses".into(), cache.misses));
        fields.push(("cache_insertions".into(), cache.insertions));
        fields.push(("cache_evictions".into(), cache.evictions));
        fields.push(("cache_entries".into(), cache.entries as u64));
        fields.push(("cache_bytes".into(), cache.bytes as u64));
        StatsSnapshot { fields }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) without accepting
    /// anything yet.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let per_conn = config
            .per_conn_queue
            .unwrap_or_else(|| (config.queue_depth / 4).max(1));
        let cache = config
            .result_cache
            .clone()
            .unwrap_or_else(|| Arc::clone(ResultCache::global()));
        let shared = Arc::new(Shared {
            scheduler: Scheduler::new(config.queue_depth, per_conn),
            stats: ServerStats::default(),
            cache,
            shutdown: AtomicBool::new(false),
            conn_streams: Mutex::new(HashMap::new()),
            handler_threads: Mutex::new(Vec::new()),
            config,
        });
        Ok(Self { listener, shared })
    }

    /// The bound address (the concrete port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the calling thread, returning only when the
    /// listener fails.  Workers are spawned first.  This is what the
    /// `sliq-serve` binary calls.
    pub fn run(self) -> io::Result<()> {
        let handle = self.spawn()?;
        for worker in handle.worker_threads {
            let _ = worker.join();
        }
        if let Some(accept) = handle.accept_thread {
            let _ = accept.join();
        }
        Ok(())
    }

    /// Spawns the accept loop and worker pool and returns a handle for
    /// tests and in-process load generators.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let worker_threads = (0..self.shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                thread::Builder::new()
                    .name(format!("sliq-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let accept_shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let accept_thread = thread::Builder::new()
            .name("sliq-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(ServerHandle {
            addr,
            shared: self.shared,
            accept_thread: Some(accept_thread),
            worker_threads,
        })
    }
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time snapshot of the server counters (same fields as the
    /// stats endpoint).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Stops accepting, sheds the queue tail into workers, closes open
    /// connections, and joins every thread.  In-flight runs finish and
    /// their responses are written before workers exit.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection to ourselves.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        // Close open connections so their handler threads stop reading.
        // A panicked handler may have poisoned either registry mutex;
        // shutdown must still complete, so recover the inner value — the
        // registries are only ever mutated with the lock held, so they are
        // structurally intact regardless of where the panic landed.
        for (_, stream) in self
            .shared
            .conn_streams
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .drain()
        {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handlers: Vec<_> = self
            .shared
            .handler_threads
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .drain(..)
            .collect();
        for handler in handlers {
            let _ = handler.join();
        }
        // Workers drain whatever is still queued, then see None and exit.
        self.shared.scheduler.shutdown();
        for worker in self.worker_threads.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Connection cleanup that runs even when the handler thread panics
/// (e.g. on a request that trips a bug in parsing or execution): the
/// open-connection gauge, the stream-clone registry, and the scheduler
/// must not leak per panic, or `max_connections` panics would wedge the
/// accept loop into refusing everything forever.
struct ConnGuard {
    conn_id: u64,
    shared: Arc<Shared>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        // Never panic in drop (it would abort): recover poisoned mutexes.
        let mut streams = self
            .shared
            .conn_streams
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        streams.remove(&self.conn_id);
        drop(streams);
        self.shared
            .stats
            .connections_open
            .fetch_sub(1, Ordering::SeqCst);
        // Queued jobs of a gone connection would only waste workers;
        // drop them.
        let _ = self.shared.scheduler.purge(self.conn_id);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut next_conn_id: u64 = 1;
    for incoming in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        let open = shared.stats.connections_open.load(Ordering::SeqCst);
        if open >= shared.config.max_connections as u64 {
            shared
                .stats
                .connections_refused
                .fetch_add(1, Ordering::Relaxed);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let conn_id = next_conn_id;
        next_conn_id += 1;
        shared
            .stats
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        shared.stats.connections_open.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conn_streams
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .insert(conn_id, clone);
        }
        let conn_shared = Arc::clone(shared);
        let handler = thread::Builder::new()
            .name(format!("sliq-serve-conn-{conn_id}"))
            .spawn(move || {
                let _guard = ConnGuard {
                    conn_id,
                    shared: Arc::clone(&conn_shared),
                };
                connection_loop(conn_id, stream, &conn_shared);
            })
            .expect("spawn connection thread");
        // Reap finished handlers while appending the new one, so a
        // long-running server accepting many short connections does not
        // accumulate join handles without bound.  Joining a finished
        // thread never blocks; a panicked handler yields Err, which the
        // ConnGuard already cleaned up after.
        let mut handlers = shared
            .handler_threads
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut live = Vec::with_capacity(handlers.len() + 1);
        for h in handlers.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                live.push(h);
            }
        }
        live.push(handler);
        *handlers = live;
    }
}

fn connection_loop(conn_id: u64, stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(ConnWriter {
            stream: Mutex::new(BufWriter::new(clone)),
        }),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let (request_id, request) = match protocol::read_request(
            &mut reader,
            shared.config.max_frame_bytes,
            &shared.config.parse_limits,
        ) {
            Ok(decoded) => decoded,
            Err(WireError::Closed) | Err(WireError::Io(_)) => return,
            Err(error) => {
                // Protocol violation: report it (request id 0 — the frame
                // may be too mangled to know the real one) and hang up,
                // since framing can no longer be trusted.
                let code = match &error {
                    WireError::Version(_) => codes::UNSUPPORTED_VERSION,
                    WireError::FrameTooLarge { .. } => codes::FRAME_TOO_LARGE,
                    _ => codes::MALFORMED,
                };
                shared.stats.requests_error.fetch_add(1, Ordering::Relaxed);
                writer.send(
                    0,
                    &Response::Error {
                        code,
                        message: error.to_string(),
                    },
                );
                return;
            }
        };
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            Request::Ping => writer.send(request_id, &Response::Pong),
            Request::Stats => {
                writer.send(request_id, &Response::Stats(shared.stats_snapshot()));
            }
            Request::RunQasm { options, source } => {
                match qasm::parse_with_limits(&source, shared.config.parse_limits) {
                    Ok(circuit) => admit(conn_id, &writer, request_id, options, circuit, shared),
                    Err(parse_error) => {
                        shared.stats.requests_error.fetch_add(1, Ordering::Relaxed);
                        writer.send(
                            request_id,
                            &Response::Error {
                                code: codes::PARSE,
                                message: parse_error.to_string(),
                            },
                        );
                    }
                }
            }
            Request::RunGates { options, circuit } => {
                admit(conn_id, &writer, request_id, options, circuit, shared);
            }
        }
    }
}

/// Validates and queues a run request, answering rejections inline so no
/// worker slot is spent on work that is known to fail.
fn admit(
    conn_id: u64,
    writer: &Arc<ConnWriter>,
    request_id: u32,
    options: RunOptions,
    circuit: Circuit,
    shared: &Arc<Shared>,
) {
    let reject = |error: ExecError| {
        shared.stats.requests_error.fetch_add(1, Ordering::Relaxed);
        writer.send(
            request_id,
            &Response::Error {
                code: error.wire_code(),
                message: error.to_string(),
            },
        );
    };
    if let Err(circuit_error) = circuit.validate() {
        reject(ExecError::from(circuit_error));
        return;
    }
    let backend = options.backend.resolve(&circuit);
    if let Err(error) = options.backend.check_circuit(&circuit) {
        reject(error);
        return;
    }
    let max_bytes = shared.config.budget_for(&options.tenant);
    if let Err(error) = backend.check_capacity(circuit.num_qubits(), max_bytes) {
        reject(error);
        return;
    }
    if options.shots > 0 && circuit.num_qubits() > 64 {
        // Sampling packs an outcome into a u64; fail at admission instead
        // of after a full (wasted) run.
        reject(ExecError::Unsupported {
            backend: backend.name(),
            what: format!(
                "sampling {} qubits (outcomes are 64-bit words)",
                circuit.num_qubits()
            ),
        });
        return;
    }
    // The sampler holds one 8-byte draw per shot: bound that buffer by the
    // cap that already bounds a request's bytes.
    let draw_bytes = options.shots.saturating_mul(8);
    if draw_bytes > shared.config.max_frame_bytes as u64 {
        reject(ExecError::CapacityExceeded {
            backend: backend.name(),
            resource: CapacityResource::Bytes {
                used: usize::try_from(draw_bytes).unwrap_or(usize::MAX),
                limit: shared.config.max_frame_bytes,
            },
        });
        return;
    }
    let job = Job {
        writer: Arc::clone(writer),
        request_id,
        options,
        circuit,
        backend,
        max_bytes,
    };
    if let Err((job, refusal)) = shared.scheduler.submit(conn_id, job) {
        shared
            .stats
            .requests_overloaded
            .fetch_add(1, Ordering::Relaxed);
        let message = match refusal {
            Refusal::QueueFull { capacity } => {
                format!("admission queue full (depth {capacity}); retry later")
            }
            Refusal::ConnectionFull { capacity } => format!(
                "connection already holds its queue share ({capacity}); drain responses first"
            ),
            Refusal::ShuttingDown => "server is shutting down".into(),
        };
        job.writer
            .send(job.request_id, &Response::Overloaded { message });
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.scheduler.next() {
        execute(shared, job);
    }
}

/// Runs one admitted job on a fresh session and writes the response.
fn execute(shared: &Arc<Shared>, job: Job) {
    let mut config = SessionConfig::with_backend(job.backend)
        .auto_reorder(shared.config.auto_reorder)
        // One request seed drives both the batched sampler and the
        // mid-circuit measurement stream, so a remote dynamic run is fully
        // reproducible from (circuit, seed).
        .measurement_seed(job.options.seed);
    if let Some(bytes) = job.max_bytes {
        config = config.max_bytes(bytes);
    }
    let fail = |error: ExecError| {
        shared.stats.requests_error.fetch_add(1, Ordering::Relaxed);
        job.writer.send(
            job.request_id,
            &Response::Error {
                code: error.wire_code(),
                message: error.to_string(),
            },
        );
    };
    let mut session = match Session::for_circuit(&job.circuit, config) {
        Ok(session) => session,
        Err(error) => return fail(error),
    };
    if shared.config.use_result_cache {
        session.attach_result_cache(Arc::clone(&shared.cache));
    }
    shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
    let run = match session.run(&job.circuit) {
        Ok(run) => run,
        Err(error) => return fail(error),
    };
    let histogram = if job.options.shots > 0 {
        match session.sample(job.options.shots, job.options.seed) {
            Ok(sample) => Some(WireHistogram {
                shots: sample.shots,
                sample_micros: sample.elapsed.as_micros() as u64,
                counts: sample
                    .histogram
                    .counts()
                    .iter()
                    .map(|(&outcome, &count)| (outcome, count))
                    .collect(),
            }),
            Err(error) => return fail(error),
        }
    } else {
        None
    };
    shared
        .stats
        .gates_applied
        .fetch_add(run.gates_applied as u64, Ordering::Relaxed);
    shared
        .stats
        .shots_sampled
        .fetch_add(job.options.shots, Ordering::Relaxed);
    shared.stats.requests_ok.fetch_add(1, Ordering::Relaxed);
    job.writer.send(
        job.request_id,
        &Response::Run(RunOutcome {
            backend: run.backend,
            gates_applied: run.gates_applied as u64,
            run_micros: run.elapsed.as_micros() as u64,
            total_probability: run.total_probability,
            live_nodes: run.stats.live_nodes.map(|n| n as u64),
            peak_memory_mib: run.stats.memory_mib,
            histogram,
            readout: run.readout,
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connection handler that panics poisons the shared registry
    /// mutexes.  Shutdown must still drain them and join every thread —
    /// a wedged `shutdown()` here turns one buggy request into a stuck
    /// server that can never be stopped cleanly.
    #[test]
    fn shutdown_completes_after_a_handler_panic_poisons_the_registries() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default().workers(1)).unwrap();
        let handle = server.spawn().unwrap();
        // Keep a live connection open so shutdown() has streams to drain.
        let conn = TcpStream::connect(handle.addr()).unwrap();
        // Simulate a handler panicking while holding each registry mutex.
        let shared = Arc::clone(&handle.shared);
        for poisoner in [
            thread::spawn({
                let shared = Arc::clone(&shared);
                move || {
                    let _guard = shared.conn_streams.lock().unwrap();
                    panic!("deliberate poison");
                }
            }),
            thread::spawn({
                let shared = Arc::clone(&shared);
                move || {
                    let _guard = shared.handler_threads.lock().unwrap();
                    panic!("deliberate poison");
                }
            }),
        ] {
            assert!(poisoner.join().is_err(), "poisoner must panic");
        }
        assert!(
            shared.conn_streams.lock().is_err(),
            "mutex must be poisoned"
        );
        assert!(
            shared.handler_threads.lock().is_err(),
            "mutex must be poisoned"
        );
        // The fix under test: shutdown recovers the poisoned registries
        // instead of panicking (and thereby leaking every thread).
        handle.shutdown();
        drop(conn);
    }
}
