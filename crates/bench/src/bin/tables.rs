//! Command-line harness that regenerates the paper's evaluation tables.
//!
//! ```text
//! cargo run -p sliq-bench --release --bin tables -- [table3|table4|table5|table6|accuracy|ablation|sample|kernel|cache|memory|serve|all]
//!                                                   [--full] [--timeout <secs>] [--max-nodes <n>] [--max-bytes <n>]
//!                                                   [--reorder] [--cache] [--json] [--baseline <path>]
//! ```
//!
//! By default a quick, laptop-sized sweep is run; `--full` uses sizes closer
//! to the paper's regime (expect several minutes).

use sliq_bench::serve::{format_serve, serve_report, ServeReport};
use sliq_bench::tables::{
    accuracy_rows, bitwidth_rows, cache_report, format_accuracy, format_bitwidth, format_cache,
    format_memory, format_sample, format_table3, format_table4, format_table5, format_table6,
    memory_geomean_bytes_per_node, memory_rows, sample_rows, table3_rows, table4_rows, table5_rows,
    table6_rows, CacheReport, MemoryRow, Scale,
};
use sliq_bench::CaseLimits;
use std::time::Duration;

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
            "--cache" => limits.use_result_cache = true,
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    let wants = |name: &str| {
        which
            .iter()
            .any(|w| w.eq_ignore_ascii_case(name) || w.eq_ignore_ascii_case("all"))
    };

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
        print_kernel_report(limits, json);
    }
    if wants("cache") {
        let report = cache_report(scale, limits);
        println!("{}", format_cache(&report));
        if json {
            let path = "BENCH_cache.json";
            std::fs::write(path, cache_report_json(&report))
                .unwrap_or_else(|e| eprintln!("failed to write {path}: {e}"));
            println!("wrote {path}");
        }
    }
    if wants("serve") {
        let report = serve_report(scale);
        println!("{}", format_serve(&report));
        if json {
            let path = "BENCH_serve.json";
            std::fs::write(path, serve_report_json(&report))
                .unwrap_or_else(|e| eprintln!("failed to write {path}: {e}"));
            println!("wrote {path}");
        }
        if let Some(baseline_path) = &baseline {
            check_serve_baseline(&report, baseline_path);
        }
    }
    if wants("memory") {
        let rows = memory_rows(scale, limits);
        println!("{}", format_memory(&rows));
        if json {
            let path = "BENCH_memory.json";
            std::fs::write(path, memory_rows_json(&rows))
                .unwrap_or_else(|e| eprintln!("failed to write {path}: {e}"));
            println!("wrote {path}");
        }
        if let Some(baseline_path) = &baseline {
            check_memory_baseline(&rows, baseline_path);
        }
    }
}

/// Hand-rolled JSON for the serving benchmark (no serde in the workspace).
fn serve_report_json(report: &ServeReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"clients\": {},\n", report.clients));
    out.push_str(&format!(
        "  \"requests_per_client\": {},\n",
        report.requests_per_client
    ));
    out.push_str(&format!("  \"shots\": {},\n", report.shots));
    out.push_str(&format!("  \"workers\": {},\n", report.workers));
    out.push_str(&format!("  \"population\": {},\n", report.population.len()));
    out.push_str(&format!(
        "  \"sessions_per_sec\": {:.3},\n",
        report.sessions_per_sec()
    ));
    for (label, pass) in [
        ("cold", &report.cold),
        ("warming", &report.warming),
        ("warm", &report.warm),
    ] {
        out.push_str(&format!("  \"{label}_secs\": {:.6},\n", pass.secs));
        out.push_str(&format!("  \"{label}_rps\": {:.3},\n", pass.req_per_sec()));
        out.push_str(&format!("  \"{label}_ok\": {},\n", pass.ok));
        out.push_str(&format!("  \"{label}_overloaded\": {},\n", pass.overloaded));
        out.push_str(&format!("  \"{label}_errors\": {},\n", pass.errors));
    }
    // The headline latency fields are the cold (uncached) pass; warm
    // percentiles ride along under their own names.
    out.push_str(&format!(
        "  \"p50_ms\": {:.4},\n",
        report.cold.latency.p50_ms
    ));
    out.push_str(&format!(
        "  \"p99_ms\": {:.4},\n",
        report.cold.latency.p99_ms
    ));
    out.push_str(&format!(
        "  \"warm_p50_ms\": {:.4},\n",
        report.warm.latency.p50_ms
    ));
    out.push_str(&format!(
        "  \"warm_p99_ms\": {:.4},\n",
        report.warm.latency.p99_ms
    ));
    out.push_str(&format!(
        "  \"warm_speedup\": {:.3},\n",
        report.warm_speedup()
    ));
    out.push_str(&format!("  \"cache_hits\": {},\n", report.cache.hits));
    out.push_str(&format!("  \"cache_misses\": {},\n", report.cache.misses));
    out.push_str(&format!(
        "  \"cache_hit_rate\": {:.6}\n",
        report.cache.hit_rate()
    ));
    out.push_str("}\n");
    out
}

/// Gates the serving benchmark against a committed baseline
/// `BENCH_serve_t<threads>.json`.  Wall-clock serving throughput on shared
/// CI runners is far noisier than bytes/node, so the gate checks shape,
/// not speed: the server must complete every request (sessions/s > 0 and a
/// real p99), the warm pass must still beat the cold pass, and the cache's
/// warm-speedup multiplier must not collapse below 20% of the baseline's.
fn check_serve_baseline(report: &ServeReport, baseline_path: &str) {
    if report.sessions_per_sec() <= 0.0 || report.cold.ok == 0 {
        eprintln!("serve baseline check FAILED: no sessions completed");
        std::process::exit(1);
    }
    if report.cold.latency.p99_ms <= 0.0 || report.cold.latency.p99_ms.is_nan() {
        eprintln!("serve baseline check FAILED: p99 latency is missing or zero");
        std::process::exit(1);
    }
    if report.cold.errors + report.warming.errors + report.warm.errors > 0 {
        eprintln!("serve baseline check FAILED: requests errored under load");
        std::process::exit(1);
    }
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("serve baseline check: cannot read {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    let Some(reference_speedup) = json_f64_field(&text, "warm_speedup") else {
        eprintln!("serve baseline check: {baseline_path} has no warm_speedup");
        std::process::exit(1);
    };
    let speedup = report.warm_speedup();
    println!(
        "serve baseline check: warm speedup {speedup:.2}x vs baseline {reference_speedup:.2}x, \
         sessions {:.1}/s, cold p99 {:.3} ms",
        report.sessions_per_sec(),
        report.cold.latency.p99_ms
    );
    if speedup < 1.0 {
        eprintln!(
            "serve baseline check FAILED: warm pass ({:.2} req/s) no faster than cold ({:.2} req/s)",
            report.warm.req_per_sec(),
            report.cold.req_per_sec()
        );
        std::process::exit(1);
    }
    if speedup < 0.2 * reference_speedup {
        eprintln!(
            "serve baseline check FAILED: warm speedup {speedup:.2}x collapsed below 20% of the \
             baseline's {reference_speedup:.2}x"
        );
        std::process::exit(1);
    }
}

/// Compares the sweep's geomean bytes/node against a committed baseline
/// `BENCH_memory.json` and exits nonzero on a >10% regression (the CI
/// bench-smoke gate).  Improvements and small noise pass silently.
fn check_memory_baseline(rows: &[MemoryRow], baseline_path: &str) {
    let Some(current) = memory_geomean_bytes_per_node(rows) else {
        eprintln!("memory baseline check: no completed rows to compare");
        std::process::exit(1);
    };
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("memory baseline check: cannot read {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    let Some(reference) = json_f64_field(&text, "geomean_bytes_per_node") else {
        eprintln!("memory baseline check: {baseline_path} has no geomean_bytes_per_node");
        std::process::exit(1);
    };
    let ratio = current / reference;
    println!(
        "memory baseline check: geomean bytes/node {current:.2} vs baseline {reference:.2} ({:+.1}%)",
        100.0 * (ratio - 1.0)
    );
    if ratio > 1.10 {
        eprintln!(
            "memory baseline check FAILED: bytes/node regressed by {:.1}% (> 10% allowed)",
            100.0 * (ratio - 1.0)
        );
        std::process::exit(1);
    }
}

/// Pulls `"field": <number>` out of hand-rolled JSON (the workspace
/// deliberately has no serde dependency; our own writer emits one field per
/// line, which is all this needs to parse).
fn json_f64_field(text: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    for line in text.lines() {
        if let Some(pos) = line.find(&needle) {
            let rest = line[pos + needle.len()..].trim().trim_end_matches(',');
            if let Ok(v) = rest.parse::<f64>() {
                return Some(v);
            }
        }
    }
    None
}

/// Hand-rolled JSON for the memory sweep rows.
fn memory_rows_json(rows: &[MemoryRow]) -> String {
    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".to_string()
        }
    }
    let mut out = String::from("{\n");
    match memory_geomean_bytes_per_node(rows) {
        Some(geomean) => {
            out.push_str(&format!("  \"geomean_bytes_per_node\": {geomean:.3},\n"));
        }
        None => out.push_str("  \"geomean_bytes_per_node\": null,\n"),
    }
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"qubits\": {}, \"gates\": {}, \"status\": \"{}\", \
             \"seconds\": {}, \"allocated_nodes\": {}, \"bytes_per_node\": {}, \
             \"legacy_bytes_per_node\": {}, \"reduction_pct\": {}, \"peak_bytes\": {}, \
             \"peak_nodes\": {}, \"chunks_reclaimed\": {}}}{}\n",
            row.name,
            row.qubits,
            row.gates,
            row.status,
            num(row.seconds),
            row.allocated_nodes,
            num(row.bytes_per_node),
            num(row.legacy_bytes_per_node),
            num(row.reduction_pct),
            row.peak_bytes,
            row.peak_nodes,
            row.chunks_reclaimed,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Hand-rolled JSON for the result-cache benchmark (no serde in the
/// workspace): hit rate, cold/warm requests per second, bytes, evictions.
fn cache_report_json(report: &CacheReport) -> String {
    let s = &report.stats;
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"requests\": {},\n", report.requests));
    out.push_str(&format!("  \"shots\": {},\n", report.shots));
    out.push_str(&format!("  \"population\": {},\n", report.population.len()));
    out.push_str(&format!("  \"cold_secs\": {:.6},\n", report.cold_secs));
    out.push_str(&format!(
        "  \"warming_secs\": {:.6},\n",
        report.warming_secs
    ));
    out.push_str(&format!("  \"warm_secs\": {:.6},\n", report.warm_secs));
    out.push_str(&format!("  \"cold_rps\": {:.3},\n", report.cold_rps()));
    out.push_str(&format!("  \"warm_rps\": {:.3},\n", report.warm_rps()));
    out.push_str(&format!(
        "  \"warm_speedup\": {:.3},\n",
        report.warm_speedup()
    ));
    out.push_str(&format!("  \"hit_rate\": {:.6},\n", s.hit_rate()));
    out.push_str(&format!("  \"hits\": {},\n", s.hits));
    out.push_str(&format!("  \"misses\": {},\n", s.misses));
    out.push_str(&format!("  \"entries\": {},\n", s.entries));
    out.push_str(&format!("  \"bytes\": {},\n", s.bytes));
    out.push_str(&format!("  \"capacity_bytes\": {},\n", s.capacity_bytes));
    out.push_str(&format!("  \"evictions\": {}\n", s.evictions));
    out.push_str("}\n");
    out
}

/// One kernel-report case: its median wall-clock time and kernel counters.
struct KernelRow {
    name: &'static str,
    median_seconds: Option<f64>,
    /// Kernel counters from the last run.
    stats: Option<sliq_bdd::ManagerStats>,
    /// Status cell of the last run ("TO", "MO", seconds…).
    time_cell: String,
}

/// Median wall-clock seconds of `iterations` completed runs of `circuit`
/// under `limits`; `(None, last result)` if any run fails to complete.
fn median_case(
    circuit: &sliq_circuit::Circuit,
    limits: CaseLimits,
    iterations: usize,
) -> (Option<f64>, sliq_bench::CaseResult) {
    use sliq_bench::{run_case, Backend, CaseStatus};
    let mut times = Vec::with_capacity(iterations);
    let mut last = None;
    for _ in 0..iterations {
        let result = run_case(Backend::BitSlice, circuit, limits);
        let completed = result.status == CaseStatus::Completed;
        times.push(result.seconds);
        let failed = !completed;
        last = Some(result);
        if failed {
            return (None, last.unwrap());
        }
    }
    times.sort_by(|a, b| a.total_cmp(b));
    (Some(times[times.len() / 2]), last.unwrap())
}

/// Runs representative bit-sliced cases and prints the BDD kernel's
/// per-cache hit/miss/eviction counters (plus reorder statistics when
/// `--reorder` / `SLIQ_AUTO_REORDER` enabled automatic sifting).  With
/// `--json`, the medians also land in `BENCH_kernel.json` for CI trend
/// tracking.
fn print_kernel_report(limits: CaseLimits, json: bool) {
    use sliq_bench::kernel_stats_report;
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
    let mut rows = Vec::new();
    for (name, circuit) in &cases {
        let (median_seconds, result) = median_case(circuit, limits, iterations);
        let row = KernelRow {
            name,
            median_seconds,
            stats: result.bdd_stats,
            time_cell: result.time_cell(),
        };
        match row.median_seconds {
            Some(median) => println!("{name}: {} (median {median:.4}s)", row.time_cell),
            None => println!("{name}: {}", row.time_cell),
        }
        match &row.stats {
            Some(stats) => print!("{}", kernel_stats_report(stats)),
            None => println!("  (no kernel statistics reported)"),
        }
        rows.push(row);
    }
    // The serving-layer counters above the kernel: with `--cache` the cases
    // attach the process-wide result cache (repeat iterations then hit), and
    // its totals surface here next to the BDD op-cache rates.
    let cache_stats = sliq_exec::ResultCache::global().stats();
    if limits.use_result_cache || cache_stats.hits + cache_stats.misses > 0 {
        println!(
            "result cache (global): hits {}  misses {}  hit-rate {:.1}%  entries {}  bytes {}  evictions {}",
            cache_stats.hits,
            cache_stats.misses,
            100.0 * cache_stats.hit_rate(),
            cache_stats.entries,
            cache_stats.bytes,
            cache_stats.evictions
        );
    } else {
        println!("result cache (global): not attached (pass --cache to enable)");
    }
    if json {
        let path = "BENCH_kernel.json";
        std::fs::write(path, kernel_rows_json(&rows, iterations))
            .unwrap_or_else(|e| eprintln!("failed to write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// Hand-rolled JSON for the kernel rows (the workspace deliberately has no
/// serde dependency): numbers or `null`, names are static identifiers.
fn kernel_rows_json(rows: &[KernelRow], iterations: usize) -> String {
    fn num(v: Option<f64>) -> String {
        match v {
            Some(v) if v.is_finite() => format!("{v:.6}"),
            _ => "null".to_string(),
        }
    }
    let mut out = format!("{{\n  \"iterations\": {iterations},\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let reorder_micros = match &row.stats {
            Some(s) => s.reorder_micros.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"status\": \"{}\", \"median_seconds\": {}, \
             \"reorder_micros\": {}}}{}\n",
            row.name,
            row.time_cell,
            num(row.median_seconds),
            reorder_micros,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
