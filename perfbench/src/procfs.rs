//! Process CPU time and peak memory from `/proc/self` (Linux).

use std::io;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux architecture).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of every thread this process has run,
/// including threads that already exited.
pub fn cpu_s() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    parse_cpu_s(&stat).ok_or_else(|| io::Error::other("unparseable /proc/self/stat"))
}

fn parse_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces; fields after it are
    // plain. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_follow_a_command_name_with_spaces() {
        let stat = "42 (a b) S 1 42 42 0 -1 4194560 100 0 0 0 250 31 0 0 20 0 3 0";
        assert_eq!(parse_cpu_s(stat), Some(2.81));
    }

    #[test]
    fn own_process_reports_memory_and_cpu() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(cpu_s().expect("stat") >= 0.0);
    }
}
