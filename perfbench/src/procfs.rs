//! Process and host facts from `/proc`: peak resident set size, CPU time,
//! and the host description recorded with every result.

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`). The kernel
/// fixes it at 100 for user space on every mainstream architecture,
/// independent of the internal tick rate.
const USER_HZ: f64 = 100.0;

/// `VmHWM` (peak resident set size) from a `/proc/self/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// User + system CPU seconds from a `/proc/self/stat` line. The command
/// name (field 2) is parenthesized and may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_s(&stat).expect("utime/stime in /proc/self/stat")
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host description printed with every result, as one JSON object.
pub fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\"source_fnv\":\"{}\"}}",
        nproc(),
        cpu.replace(['"', '\\'], ""),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_SOURCE_FNV"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_from_status() {
        let status = "Name:\tperfbench\nVmPeak:\t  100 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn parses_cpu_time_from_stat_with_awkward_command_names() {
        let tail = "R 1 1 1 0 -1 4194304 83 0 0 0 250 50 0 0 20 0 3 0 219985 2703360 321";
        assert_eq!(
            parse_stat_cpu_s(&format!("42 (perfbench) {tail}")),
            Some(3.0)
        );
        assert_eq!(
            parse_stat_cpu_s(&format!("42 (a) b (c)) {tail}")),
            Some(3.0)
        );
        assert_eq!(parse_stat_cpu_s("42 (perfbench) R 1 2"), None);
        assert_eq!(parse_stat_cpu_s("no parens here"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_s() >= 0.0);
        assert!(host_json().contains("\"nproc\":"));
    }
}
