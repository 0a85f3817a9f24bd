//! The serving benchmark: an in-process `sliq-serve` instance under a
//! fleet of client threads replaying a skewed circuit mix over real
//! sockets, so the number that comes out prices the whole serving path —
//! framing, admission, the fair queue, session construction, simulation,
//! sampling, and the response — not just the kernel.
//!
//! Two servers are measured with the same request sequence: one with the
//! result cache disabled (the cold pass) and one with a fresh shared cache
//! (a warming pass that populates it, then a warm pass where every request
//! hits).  The warm/cold throughput ratio prices what the result cache buys
//! under production-shaped traffic; [`SERVE_GATE`] bounds it and checks
//! that the warm pass really was served from the cache.

use crate::report::{Bound, Check, Report};
use crate::runner::bench_smoke_env;
use crate::tables::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sliq_circuit::Circuit;
use sliq_exec::{ResultCache, ResultCacheStats};
use sliq_serve::{Client, ClientError, RunOptions, Server, ServerConfig, ServerHandle};
use sliq_workloads::{algorithms, random};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Latency percentiles of one pass, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latencies {
    /// Median request latency.
    pub p50_ms: f64,
    /// 99th-percentile request latency.
    pub p99_ms: f64,
    /// Worst request latency.
    pub max_ms: f64,
}

/// One measured pass of the client fleet.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassReport {
    /// Wall-clock seconds from first send to last response.
    pub secs: f64,
    /// Requests answered with a run result.
    pub ok: u64,
    /// Requests shed with an overloaded response.
    pub overloaded: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Latency percentiles over the answered requests.
    pub latency: Latencies,
}

impl PassReport {
    /// Completed requests per wall-clock second.
    pub fn req_per_sec(&self) -> f64 {
        self.ok as f64 / self.secs.max(1e-9)
    }
}

/// The serving benchmark's result.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client sends per pass.
    pub requests_per_client: usize,
    /// Shots sampled per request.
    pub shots: u64,
    /// Server worker threads ([`sliq_bdd::default_threads`]: `SLIQ_THREADS`
    /// or the available cores).
    pub workers: usize,
    /// The population: `(name, qubits, request share)` by popularity rank.
    pub population: Vec<(String, usize, f64)>,
    /// The pass against the cache-disabled server.
    pub cold: PassReport,
    /// First pass against the cached server (populates the cache).
    pub warming: PassReport,
    /// Second pass against the cached server (every request hits).
    pub warm: PassReport,
    /// Cache counters after the warm pass.
    pub cache: ResultCacheStats,
    /// Cache hits during the warm pass alone.
    pub warm_hits: u64,
}

impl ServeReport {
    /// Sessions opened per second under cold (uncached) serving — every
    /// completed request opens exactly one session server-side, so this is
    /// the cold pass's completed-request rate.
    pub fn sessions_per_sec(&self) -> f64 {
        self.cold.req_per_sec()
    }

    /// `warm req/s ÷ cold req/s`: the serving-throughput multiplier the
    /// shared result cache buys on this mix.
    pub fn warm_speedup(&self) -> f64 {
        self.warm.req_per_sec() / self.cold.req_per_sec().max(1e-9)
    }

    /// The report as written to `BENCH_serve.json`.  The headline latency
    /// fields are the cold (uncached) pass's; the warm percentiles ride
    /// along under their own names.
    pub fn to_report(&self) -> Report {
        let (cold, warming, warm) = (&self.cold, &self.warming, &self.warm);
        let fields = vec![
            ("clients", self.clients.into()),
            ("requests_per_client", self.requests_per_client.into()),
            ("shots", self.shots.into()),
            ("workers", self.workers.into()),
            ("population", self.population.len().into()),
            ("sessions_per_sec", self.sessions_per_sec().into()),
            ("cold_secs", cold.secs.into()),
            ("cold_rps", cold.req_per_sec().into()),
            ("cold_ok", cold.ok.into()),
            ("cold_overloaded", cold.overloaded.into()),
            ("cold_errors", cold.errors.into()),
            ("warming_secs", warming.secs.into()),
            ("warming_rps", warming.req_per_sec().into()),
            ("warming_ok", warming.ok.into()),
            ("warming_overloaded", warming.overloaded.into()),
            ("warming_errors", warming.errors.into()),
            ("warm_secs", warm.secs.into()),
            ("warm_rps", warm.req_per_sec().into()),
            ("warm_ok", warm.ok.into()),
            ("warm_overloaded", warm.overloaded.into()),
            ("warm_errors", warm.errors.into()),
            ("p50_ms", cold.latency.p50_ms.into()),
            ("p99_ms", cold.latency.p99_ms.into()),
            ("warm_p50_ms", warm.latency.p50_ms.into()),
            ("warm_p99_ms", warm.latency.p99_ms.into()),
            ("warm_speedup", self.warm_speedup().into()),
            (
                "warm_hits_per_request",
                (self.warm_hits as f64 / warm.ok as f64).into(),
            ),
            ("cache_hits", self.cache.hits.into()),
            ("cache_misses", self.cache.misses.into()),
            ("cache_hit_rate", self.cache.hit_rate().into()),
        ];
        Report {
            fields,
            rows: Vec::new(),
        }
    }
}

/// The serving gate (`tables -- serve --baseline <path>`).  Wall-clock
/// throughput on shared CI runners is noisy, so it checks shape, not
/// speed:
/// * every pass completes with no error and a real cold p99;
/// * the warm pass beats the cold pass, and its speedup stays above 20 %
///   of the baseline's;
/// * every warm request is served from the cache: two hits per request,
///   one for the run and one for the sample.  This one is deterministic,
///   and does not shrink as cold serving gets faster.
pub const SERVE_GATE: &[Check] = &[
    Check("cold_ok", Bound::AtLeast(1.0)),
    // 1 µs: the p99 is present and nonzero.
    Check("p99_ms", Bound::AtLeast(0.001)),
    Check("cold_errors", Bound::AtMost(0.0)),
    Check("warming_errors", Bound::AtMost(0.0)),
    Check("warm_errors", Bound::AtMost(0.0)),
    Check("warm_speedup", Bound::AtLeast(1.0)),
    Check("warm_speedup", Bound::AtLeastBaseline(0.2)),
    Check("warm_hits_per_request", Bound::AtLeast(2.0)),
    Check("warm_hits_per_request", Bound::AtMost(2.0)),
];

/// The benchmark's circuit population.
fn population() -> Vec<(String, Circuit)> {
    vec![
        (
            "random_clifford_t(12,s1)".into(),
            random::random_clifford_t(12, 1),
        ),
        (
            "random_clifford_t(12,s2)".into(),
            random::random_clifford_t(12, 2),
        ),
        ("ghz(16)".into(), algorithms::ghz(16)),
        (
            "bv_ones(14)".into(),
            algorithms::bernstein_vazirani_all_ones(14),
        ),
        (
            "random_clifford_t(12,s3)".into(),
            random::random_clifford_t(12, 3),
        ),
        (
            "random_clifford_t(12,s4)".into(),
            random::random_clifford_t(12, 4),
        ),
    ]
}

/// Zipf-ish rank sequence: rank `r` drawn with weight `1/(r+1)`.
fn skewed_sequence(len: usize, ranks: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..ranks).map(|rank| 1.0 / (rank as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let mut x = rng.gen_range(0.0..total);
            for (rank, w) in weights.iter().enumerate() {
                if x < *w {
                    return rank;
                }
                x -= w;
            }
            ranks - 1
        })
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Replays the per-client sequences against `addr` from `clients` threads
/// (one connection each, one request outstanding at a time) and aggregates
/// throughput and latency.
fn run_pass(
    addr: SocketAddr,
    circuits: &Arc<Vec<Circuit>>,
    sequences: &[Vec<usize>],
    shots: u64,
) -> PassReport {
    let start = Instant::now();
    let threads: Vec<_> = sequences
        .iter()
        .map(|sequence| {
            let sequence = sequence.clone();
            let circuits = Arc::clone(circuits);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect to bench server");
                let mut latencies_ms = Vec::with_capacity(sequence.len());
                let (mut ok, mut overloaded, mut errors) = (0u64, 0u64, 0u64);
                for &rank in &sequence {
                    let sent = Instant::now();
                    let result = client.run_circuit(
                        &circuits[rank],
                        RunOptions {
                            shots,
                            seed: 2021,
                            ..RunOptions::default()
                        },
                    );
                    match result {
                        Ok(_) => {
                            ok += 1;
                            latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        }
                        Err(ClientError::Overloaded { .. }) => overloaded += 1,
                        Err(_) => errors += 1,
                    }
                }
                (latencies_ms, ok, overloaded, errors)
            })
        })
        .collect();
    let mut all_ms = Vec::new();
    let mut report = PassReport::default();
    for thread in threads {
        let (latencies_ms, ok, overloaded, errors) = thread.join().expect("client thread");
        all_ms.extend(latencies_ms);
        report.ok += ok;
        report.overloaded += overloaded;
        report.errors += errors;
    }
    report.secs = start.elapsed().as_secs_f64();
    all_ms.sort_by(|a, b| a.total_cmp(b));
    report.latency = Latencies {
        p50_ms: percentile(&all_ms, 50.0),
        p99_ms: percentile(&all_ms, 99.0),
        max_ms: all_ms.last().copied().unwrap_or(0.0),
    };
    report
}

/// Runs the serving benchmark: spawn a server, point a client fleet at it,
/// measure cold / warming / warm passes.
pub fn serve_report(scale: Scale) -> ServeReport {
    let (clients, requests_per_client, shots) = if bench_smoke_env() {
        (4, 12, 256u64)
    } else {
        match scale {
            Scale::Quick => (8, 25, 1024),
            Scale::Full => (8, 100, 4096),
        }
    };
    let workers = sliq_bdd::default_threads();
    let pool = population();
    let circuits: Arc<Vec<Circuit>> =
        Arc::new(pool.iter().map(|(_, circuit)| circuit.clone()).collect());
    let sequences: Vec<Vec<usize>> = (0..clients)
        .map(|client| skewed_sequence(requests_per_client, circuits.len(), 2021 + client as u64))
        .collect();
    // Synchronous clients hold one request each, so a queue as deep as the
    // fleet never sheds; the depth is about bounding memory, not pacing.
    let base_config = || {
        ServerConfig::default()
            .workers(workers)
            .queue_depth((clients * 2).max(8))
            .per_conn_queue(2)
            .max_connections(clients + 4)
    };

    let cold_server = Server::bind("127.0.0.1:0", base_config().result_cache(false))
        .expect("bind cold bench server")
        .spawn()
        .expect("spawn cold bench server");
    let cold = run_pass(cold_server.addr(), &circuits, &sequences, shots);
    cold_server.shutdown();

    let cache = ResultCache::shared(64 * 1024 * 1024);
    let warm_server: ServerHandle = Server::bind(
        "127.0.0.1:0",
        base_config().with_result_cache(Arc::clone(&cache)),
    )
    .expect("bind warm bench server")
    .spawn()
    .expect("spawn warm bench server");
    let warming = run_pass(warm_server.addr(), &circuits, &sequences, shots);
    let hits_before_warm = cache.stats().hits;
    let warm = run_pass(warm_server.addr(), &circuits, &sequences, shots);
    warm_server.shutdown();
    let cache_stats = cache.stats();

    let shares: Vec<f64> = {
        let mut counts = vec![0usize; circuits.len()];
        for sequence in &sequences {
            for &rank in sequence {
                counts[rank] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        counts
            .into_iter()
            .map(|c| c as f64 / total.max(1) as f64)
            .collect()
    };
    ServeReport {
        clients,
        requests_per_client,
        shots,
        workers,
        population: pool
            .into_iter()
            .zip(shares)
            .map(|((name, circuit), share)| (name, circuit.num_qubits(), share))
            .collect(),
        cold,
        warming,
        warm,
        warm_hits: cache_stats.hits - hits_before_warm,
        cache: cache_stats,
    }
}

/// Formats the serving benchmark.
pub fn format_serve(report: &ServeReport) -> String {
    let mut out = String::new();
    out.push_str("SERVE: concurrent TCP serving, skewed mix, cold vs warm cache\n");
    out.push_str(&format!(
        "  {} clients x {} requests, {} shots/request, {} workers\n",
        report.clients, report.requests_per_client, report.shots, report.workers
    ));
    out.push_str(&format!(
        "  population ({} circuits, Zipf-ish shares):\n",
        report.population.len()
    ));
    for (name, qubits, share) in &report.population {
        out.push_str(&format!(
            "    {name:<26} {qubits:>3} qubits  {:>5.1}% of requests\n",
            100.0 * share
        ));
    }
    for (label, pass) in [
        ("cold   ", &report.cold),
        ("warming", &report.warming),
        ("warm   ", &report.warm),
    ] {
        out.push_str(&format!(
            "  {label} {:>8.2} req/s  p50 {:>7.3} ms  p99 {:>7.3} ms  max {:>7.3} ms  ({} ok, {} shed, {} err)\n",
            pass.req_per_sec(),
            pass.latency.p50_ms,
            pass.latency.p99_ms,
            pass.latency.max_ms,
            pass.ok,
            pass.overloaded,
            pass.errors
        ));
    }
    out.push_str(&format!(
        "  sessions {:>8.2} /s (cold)   warm speedup {:.1}x\n",
        report.sessions_per_sec(),
        report.warm_speedup()
    ));
    out.push_str(&format!(
        "  cache: hits {}  misses {}  hit-rate {:.1}%  entries {}  bytes {}\n",
        report.cache.hits,
        report.cache.misses,
        100.0 * report.cache.hit_rate(),
        report.cache.entries,
        report.cache.bytes
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_sequence_is_deterministic_and_head_heavy() {
        let a = skewed_sequence(200, 6, 7);
        let b = skewed_sequence(200, 6, 7);
        assert_eq!(a, b);
        let head = a.iter().filter(|&&rank| rank == 0).count();
        let tail = a.iter().filter(|&&rank| rank == 5).count();
        assert!(head > tail, "rank 0 ({head}) must outdraw rank 5 ({tail})");
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let ms: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&ms, 50.0), 51.0);
        assert_eq!(percentile(&ms, 99.0), 99.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
