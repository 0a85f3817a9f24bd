//! Process counters read from `/proc/<pid>`: CPU time, peak resident
//! memory, threads and involuntary context switches.

use std::fs;

/// `USER_HZ`, the unit of the CPU times in `/proc/<pid>/stat`; the kernel
/// fixes it at 100 on every architecture it exports to user space.
const TICKS_PER_SEC: f64 = 100.0;

#[derive(Debug, Default, Clone, Copy)]
pub struct ProcSample {
    /// User plus system CPU seconds of every thread, live or exited.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) in MiB.
    pub peak_rss_mib: f64,
    /// Threads alive now.
    pub threads: u64,
    /// Involuntary context switches summed over the live threads.
    pub ctx_switches_invol: u64,
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
}

pub fn sample(pid: u32) -> std::io::Result<ProcSample> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name, which may hold spaces;
    // utime and stime are fields 14 and 15 of the whole line.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .unwrap_or_default();
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let cpu_s = (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC;
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    let mut ctx_switches_invol = 0;
    if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            if let Ok(task_status) = fs::read_to_string(task.path().join("status")) {
                ctx_switches_invol +=
                    status_field(&task_status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
            }
        }
    }
    Ok(ProcSample {
        cpu_s,
        peak_rss_mib: status_field(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0,
        threads: status_field(&status, "Threads:").unwrap_or(0),
        ctx_switches_invol,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_this_process() {
        let sample = super::sample(std::process::id()).expect("procfs is mounted");
        assert!(sample.peak_rss_mib > 0.0);
        assert!(sample.threads >= 1);
    }
}
