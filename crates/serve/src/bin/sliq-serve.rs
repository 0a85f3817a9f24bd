//! The `sliq-serve` binary: bind a TCP simulation service and run until
//! the process is killed.
//!
//! ```text
//! sliq-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!            [--max-bytes BYTES] [--tenant NAME=BYTES]... [--no-cache]
//!            [--auto-reorder]
//! ```

use sliq_serve::{Server, ServerConfig};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: sliq-serve [--addr HOST:PORT] [--workers N] [--queue N]\n\
         \x20                 [--max-bytes BYTES] [--tenant NAME=BYTES]... [--no-cache]\n\
         \x20                 [--auto-reorder]\n\
         \n\
         Serve simulation requests over the sliq wire protocol (see PROTOCOL.md).\n\
         \n\
         \x20 --addr HOST:PORT     listen address (default 127.0.0.1:7878)\n\
         \x20 --workers N          simulation worker threads (default: available cores)\n\
         \x20 --queue N            admission queue depth (default 64)\n\
         \x20 --max-bytes BYTES    default per-tenant byte budget\n\
         \x20 --tenant NAME=BYTES  explicit byte budget for one tenant (repeatable)\n\
         \x20 --no-cache           do not attach the shared result cache\n\
         \x20 --auto-reorder       enable automatic variable reordering"
    );
    std::process::exit(2)
}

fn parse_number(value: Option<String>, flag: &str) -> usize {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("sliq-serve: {flag} needs a number");
            usage()
        }
    }
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(value) => addr = value,
                None => usage(),
            },
            "--workers" => config = config.workers(parse_number(args.next(), "--workers")),
            "--queue" => config = config.queue_depth(parse_number(args.next(), "--queue")),
            "--max-bytes" => {
                config = config.default_max_bytes(parse_number(args.next(), "--max-bytes"));
            }
            "--tenant" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match spec.split_once('=').and_then(|(name, bytes)| {
                    bytes.parse::<usize>().ok().map(|b| (name.to_string(), b))
                }) {
                    Some((name, bytes)) => config = config.tenant_budget(name, bytes),
                    None => {
                        eprintln!("sliq-serve: --tenant wants NAME=BYTES, got {spec:?}");
                        usage()
                    }
                }
            }
            "--no-cache" => config = config.result_cache(false),
            "--auto-reorder" => config = config.auto_reorder(true),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("sliq-serve: unknown flag {other:?}");
                usage()
            }
        }
    }
    let workers = config.workers;
    let queue = config.queue_depth;
    let server = match Server::bind(&addr, config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("sliq-serve: cannot bind {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(local) => {
            eprintln!("sliq-serve: listening on {local} ({workers} workers, queue depth {queue})")
        }
        Err(_) => eprintln!("sliq-serve: listening on {addr}"),
    }
    if let Err(error) = server.run() {
        eprintln!("sliq-serve: server failed: {error}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
