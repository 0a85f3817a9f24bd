//! Command-line harness that regenerates the paper's evaluation tables.
//!
//! ```text
//! cargo run -p sliq-bench --release --bin tables -- [table3|table4|table5|table6|accuracy|ablation|sample|kernel|memory|serve|all]
//!                                                   [--full] [--timeout <secs>] [--max-nodes <n>] [--max-bytes <n>]
//!                                                   [--reorder] [--json] [--baseline <path>]
//! ```
//!
//! By default a quick, laptop-sized sweep is run; `--full` uses sizes closer
//! to the paper's regime (expect several minutes).  `--json` writes the
//! `kernel`, `memory` and `serve` reports to `BENCH_<report>.json`, and
//! `--baseline` gates the `memory` and `serve` reports against a committed
//! snapshot (exit 1 on failure).  An unknown report name exits 2.

use sliq_bench::report::{gate, Check, Report};
use sliq_bench::serve::{format_serve, serve_report, SERVE_GATE};
use sliq_bench::tables::{
    accuracy_rows, bitwidth_rows, format_accuracy, format_bitwidth, format_memory, format_sample,
    format_table3, format_table4, format_table5, format_table6, memory_report, memory_rows,
    sample_rows, table3_rows, table4_rows, table5_rows, table6_rows, Scale, MEMORY_GATE,
};
use sliq_bench::{kernel_stats_report, run_case, Backend, CaseLimits, CaseResult, CaseStatus};
use std::time::Duration;

/// Every report the binary knows, in the order `all` runs them.
const REPORTS: [&str; 11] = [
    "table3", "table4", "table5", "table6", "accuracy", "ablation", "sample", "kernel", "memory",
    "serve", "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = Scale::Quick;
    let mut limits = CaseLimits::default();
    let mut json = false;
    let mut baseline: Option<String> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--json" => json = true,
            "--timeout" => {
                if let Some(v) = iter.next().and_then(|s| s.parse::<u64>().ok()) {
                    limits.timeout = Duration::from_secs(v);
                }
            }
            "--max-nodes" => {
                if let Some(v) = iter.next().and_then(|s| s.parse::<usize>().ok()) {
                    limits.max_nodes = v;
                }
            }
            "--max-bytes" => {
                if let Some(v) = iter.next().and_then(|s| s.parse::<usize>().ok()) {
                    limits.max_bytes = Some(v);
                }
            }
            "--baseline" => {
                baseline = iter.next().cloned();
            }
            "--reorder" => limits.auto_reorder = true,
            other => which.push(other.to_string()),
        }
    }
    if let Some(unknown) = which
        .iter()
        .find(|w| !REPORTS.iter().any(|r| w.eq_ignore_ascii_case(r)))
    {
        eprintln!(
            "unknown report {unknown:?}; choose from {}",
            REPORTS.join(", ")
        );
        std::process::exit(2);
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    let wants = |name: &str| {
        which
            .iter()
            .any(|w| w.eq_ignore_ascii_case(name) || w.eq_ignore_ascii_case("all"))
    };
    let baseline = baseline.as_deref();

    println!(
        "# SliQ table reproduction — scale: {:?}, per-case timeout: {:?}, node limit: {}",
        scale, limits.timeout, limits.max_nodes
    );
    println!();

    if wants("table3") {
        let rows = table3_rows(scale, limits);
        println!("{}", format_table3(&rows));
    }
    if wants("table4") {
        let rows = table4_rows(scale, limits);
        println!("{}", format_table4(&rows));
    }
    if wants("table5") {
        let rows = table5_rows(scale, limits);
        println!("{}", format_table5(&rows));
    }
    if wants("table6") {
        let rows = table6_rows(scale, limits);
        println!("{}", format_table6(&rows));
    }
    if wants("accuracy") {
        let rows = accuracy_rows(scale);
        println!("{}", format_accuracy(&rows));
    }
    if wants("ablation") {
        let rows = bitwidth_rows(scale);
        println!("{}", format_bitwidth(&rows));
    }
    if wants("sample") {
        let rows = sample_rows(scale, limits);
        println!("{}", format_sample(&rows));
    }
    if wants("kernel") {
        let report = kernel_report(limits);
        emit("kernel", &report, json, None, &[]);
    }
    if wants("serve") {
        let report = serve_report(scale);
        println!("{}", format_serve(&report));
        emit("serve", &report.to_report(), json, baseline, SERVE_GATE);
    }
    if wants("memory") {
        let rows = memory_rows(scale, limits);
        println!("{}", format_memory(&rows));
        emit("memory", &memory_report(&rows), json, baseline, MEMORY_GATE);
    }
}

/// With `json`, writes `report` to `BENCH_<name>.json`.  With a baseline
/// path, exits 1 unless every check passes against the committed baseline.
fn emit(name: &str, report: &Report, json: bool, baseline: Option<&str>, checks: &[Check]) {
    if json {
        let path = format!("BENCH_{name}.json");
        match std::fs::write(&path, report.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    let Some(path) = baseline else {
        return;
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{name} baseline check: cannot read {path}: {e}");
        std::process::exit(1);
    });
    match gate(report, &text, checks) {
        Ok(lines) => println!("{name} baseline check against {path}: passed\n{lines}"),
        Err(lines) => {
            eprintln!("{name} baseline check against {path}: FAILED\n{lines}");
            std::process::exit(1);
        }
    }
}

/// Median wall-clock seconds of `iterations` completed runs of `circuit`
/// under `limits`, with the last run's result; no median if a run fails.
fn median_case(
    circuit: &sliq_circuit::Circuit,
    limits: CaseLimits,
    iterations: usize,
) -> (Option<f64>, CaseResult) {
    let mut times = Vec::with_capacity(iterations);
    loop {
        let result = run_case(Backend::BitSlice, circuit, limits);
        if result.status != CaseStatus::Completed {
            return (None, result);
        }
        times.push(result.seconds);
        if times.len() == iterations {
            times.sort_by(f64::total_cmp);
            return (Some(times[iterations / 2]), result);
        }
    }
}

/// Runs representative bit-sliced cases and prints the BDD kernel's
/// per-cache hit/miss/eviction counters (plus reorder statistics when
/// `--reorder` / `SLIQ_AUTO_REORDER` enabled automatic sifting).  Returns
/// the medians for `BENCH_kernel.json`.
fn kernel_report(limits: CaseLimits) -> Report {
    let iterations = if sliq_bench::bench_smoke_env() { 1 } else { 3 };
    let cases = [
        ("ghz(64)", sliq_workloads::algorithms::ghz(64)),
        (
            "random_clifford_t(16)",
            sliq_workloads::random::random_clifford_t(16, 1),
        ),
        (
            "random_clifford_t(20)",
            sliq_workloads::random::random_clifford_t(20, 1),
        ),
    ];
    println!("## BDD kernel cache statistics (bit-sliced backend)");
    println!("(median of {iterations} run(s) per case)");
    let mut report = Report {
        fields: vec![("iterations", iterations.into())],
        rows: Vec::new(),
    };
    for (name, circuit) in &cases {
        let (median_seconds, result) = median_case(circuit, limits, iterations);
        let time_cell = result.time_cell();
        match median_seconds {
            Some(median) => println!("{name}: {time_cell} (median {median:.4}s)"),
            None => println!("{name}: {time_cell}"),
        }
        match &result.bdd_stats {
            Some(stats) => print!("{}", kernel_stats_report(stats)),
            None => println!("  (no kernel statistics reported)"),
        }
        let reorder_micros = result.bdd_stats.map(|s| s.reorder_micros as f64);
        report.rows.push(vec![
            ("name", (*name).into()),
            ("status", time_cell.into()),
            ("median_seconds", median_seconds.into()),
            ("reorder_micros", reorder_micros.into()),
        ]);
    }
    report
}
