//! `sliqbench`: the repository benchmark.
//!
//! ```text
//! sliqbench --workload batch_paper|serve_cold|serve_hot --seed N
//!           --seconds S --trace 0|1 --serve-bin PATH
//! sliqbench --record-reference
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer metrics, writes its spans to
//! `.bench_out/`, and reports its own overhead against an untraced pass.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only
//! when every output check passed.  See `sliqbench/README.md` for the
//! workloads, the metrics and the layer each one belongs to.

mod batch;
mod procfs;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Settings that silently change a workload; a run refuses to start with
/// any of them in its environment.
const PINNED_ENV: [&str; 4] = [
    "SLIQ_THREADS",
    "SLIQ_AUTO_REORDER",
    "SLIQ_RESULT_CACHE_MB",
    "SLIQ_BENCH_SMOKE",
];

/// A seed kept out of benchmark tuning, for confirming claims.
const HELD_OUT_SEED: u64 = 20_261_016;

/// The whole-run guard: a run still going this long after `--seconds` is
/// aborted and counts as failed.  The margin covers set-up, the last round
/// overrunning the deadline, and the output checks.
const RUN_MARGIN: Duration = Duration::from_secs(125);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Seconds-long sizes; only the self-tests use them.
    Tiny,
}

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// The shipped `sliq-serve` binary; `None` (the self-tests, which
    /// build no binary) serves in-process.
    pub serve_bin: Option<PathBuf>,
    pub out_dir: Option<PathBuf>,
}

impl RunConfig {
    #[cfg(test)]
    pub fn for_test(scale: Scale, trace: bool) -> Self {
        Self {
            workload: "test".into(),
            seed: 1,
            seconds: 0.4,
            trace,
            scale,
            serve_bin: None,
            out_dir: None,
        }
    }

    /// Writes the spans of a traced run to
    /// `.bench_out/trace-<workload>-seed<seed>.jsonl`.
    pub fn write_trace(&self, tracers: &[&trace::Tracer]) -> Result<(), String> {
        let Some(dir) = &self.out_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-seed{}.jsonl", self.workload, self.seed));
        let _ = std::fs::remove_file(&path);
        for (thread, tracer) in tracers.iter().enumerate() {
            tracer
                .write(&path, thread)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        eprintln!("spans written to {}", path.display());
        Ok(())
    }
}

/// Named metrics with units, in the order they were pushed.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_owned(name.to_string(), value, unit);
    }

    pub fn push_owned(&mut self, name: String, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no infinity: a latency that includes a failed
                // request reads as the largest finite number.
                let value = if value.is_finite() { *value } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sliqbench --workload batch_paper|serve_cold|serve_hot --seed N --seconds S \
         --trace 0|1 --serve-bin PATH\n       sliqbench --record-reference"
    );
    ExitCode::from(2)
}

/// The first line of a command's standard output, or `unknown`.  Git is
/// kept from searching above the working directory.
fn command_line(program: &str, args: &[&str]) -> String {
    let parent = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", parent)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return usage(),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value())),
            "--record-reference" => {
                return match batch::record_reference() {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("sliqbench: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(serve_bin)) =
        (workload, seed, seconds, trace, serve_bin)
    else {
        return usage();
    };
    let set: Vec<&str> = PINNED_ENV
        .into_iter()
        .filter(|name| std::env::var_os(name).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "sliqbench: refusing to run with {} set: it changes the workload",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let mix = match workload.as_str() {
        "batch_paper" => None,
        "serve_cold" => Some(serve::Mix::Cold),
        "serve_hot" => Some(serve::Mix::Hot),
        _ => return usage(),
    };
    let config = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        serve_bin: Some(serve_bin),
        out_dir: Some(PathBuf::from(".bench_out")),
    };

    // The whole-run guard: abort the process (and the server it started)
    // rather than let a stuck run go on burning cores.
    let limit = Duration::from_secs_f64(seconds) + RUN_MARGIN;
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("sliqbench: run exceeded {limit:?}; aborting");
        let pid = serve::SERVER_PID.load(Ordering::SeqCst);
        if pid != 0 {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        std::process::exit(3);
    });

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {seed}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {seconds}, \"trace\": {trace}, \"nproc\": {nproc}, \
         \"kernel_threads\": {}, \"server_workers\": {}, \"git_commit\": \"{}\", \
         \"rustc\": \"{}\"}}}}",
        config.workload,
        sliq_bdd::pool::default_threads(),
        sliq_serve::ServerConfig::default().workers,
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
    );

    let result = match mix {
        None => batch::run(&config),
        Some(mix) => serve::run(&config, mix),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("sliqbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    for (name, value, unit) in &outcome.metrics.entries {
        println!("{name} = {value:.6} {unit}");
    }
    println!(
        "failed_frac = {:.6} ({} of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let correct = outcome.failed == 0 && outcome.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
