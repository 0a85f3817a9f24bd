//! Integration tests for the `tables -- serve` benchmark: at smoke scale the
//! report must pass its own gate against itself (every warm request served
//! from the cache), and (gated behind `SLIQ_PERF_TEST=1`, release profile)
//! the warm pass must beat the cold pass by at least the 10× acceptance bar
//! on the skewed request mix.

use sliq_bench::report::{baseline_value, gate};
use sliq_bench::serve::SERVE_GATE;
use sliq_bench::{format_serve, serve_report, Scale};
use std::sync::Mutex;

/// Serialises the tests in this file: both poke the process-global
/// `SLIQ_BENCH_SMOKE` variable that selects the benchmark's request count.
static ENV_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn smoke_serve_report_passes_its_gate() {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::set_var("SLIQ_BENCH_SMOKE", "1");
    let report = serve_report(Scale::Quick);

    assert_eq!((report.clients, report.requests_per_client), (4, 12));
    assert_eq!(report.shots, 256, "smoke scale samples 256 shots");
    for pass in [&report.cold, &report.warming, &report.warm] {
        assert_eq!(pass.ok, 48, "{pass:?}");
    }
    let total_share: f64 = report.population.iter().map(|(_, _, share)| share).sum();
    assert!(
        (total_share - 1.0).abs() < 1e-9,
        "population shares must sum to 1, got {total_share}"
    );
    // Every warm request hits twice, once for the run and once for the
    // sample; nothing is evicted from the 64 MiB cache by six circuits.
    assert_eq!(report.warm_hits, 2 * report.warm.ok);
    assert_eq!(report.cache.evictions, 0);

    let written = report.to_report();
    let json = written.to_json();
    assert_eq!(baseline_value(&json, "warm_hits_per_request"), Some(2.0));
    if let Err(lines) = gate(&written, &json, SERVE_GATE) {
        panic!("the report fails its gate against itself:\n{lines}");
    }

    let rendered = format_serve(&report);
    for needle in ["SERVE", "cold", "warming", "warm speedup", "hit-rate"] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }
}

/// Gated acceptance (`SLIQ_PERF_TEST=1`, release profile): on the skewed
/// Zipf-ish mix the warm requests/s must exceed the cold requests/s by at
/// least 10×.
#[test]
fn perf_warm_rps_is_10x_cold() {
    if std::env::var_os("SLIQ_PERF_TEST").is_none() {
        eprintln!("skipped (set SLIQ_PERF_TEST=1 to run the wall-clock acceptance test)");
        return;
    }
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::remove_var("SLIQ_BENCH_SMOKE");
    let report = serve_report(Scale::Quick);
    let speedup = report.warm_speedup();
    assert!(
        speedup >= 10.0,
        "warm serving must be >= 10x cold: cold {:.1} req/s vs warm {:.1} req/s = {speedup:.1}x",
        report.cold.req_per_sec(),
        report.warm.req_per_sec()
    );
}
