//! Readings of this process's own resource use from procfs.

/// `sysconf(_SC_CLK_TCK)` on Linux: the unit of `utime`/`stime`.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// CPU time (user + system, all threads) this process has used so far,
/// in seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("the benchmark needs procfs");
    // The command name is parenthesised and may hold spaces, so count
    // fields after its closing parenthesis: utime and stime are fields 14
    // and 15 of the line, 12th and 13th after the name.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i].parse::<u64>().expect("utime and stime are tick counts") as f64
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SEC
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("the benchmark needs procfs");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("status has a VmHWM line in kB");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn readings_parse() {
        assert!(super::cpu_seconds() >= 0.0);
        assert!(super::peak_rss_mib() > 0.0);
    }
}
