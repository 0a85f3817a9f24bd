//! The default width of session-level parallelism.
//!
//! A [`crate::Manager`] has a single owner, so the kernel itself never
//! fans out.  Parallelism comes from independent sessions running side by
//! side, and [`default_threads`] is how many of them a front-end runs at
//! once by default (the `sliq-serve` worker count).  It lives here because
//! the repository benchmark (`sliqbench/`) reads it under this path; the
//! next change to the benchmark can move it next to the server.

/// The default number of side-by-side sessions: the `SLIQ_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(value) = std::env::var("SLIQ_THREADS") {
        if let Ok(parsed) = value.trim().parse::<usize>() {
            if parsed >= 1 {
                return parsed;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_threads_is_positive() {
        assert!(super::default_threads() >= 1);
    }
}
