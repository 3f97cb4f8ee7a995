//! Peak memory and CPU time of this process, read from `/proc`.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on the Linux architectures this runs on).
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// User plus system CPU time in clock ticks from `/proc/<pid>/stat`
/// (fields 14 and 15). The command name in field 2 may hold spaces and
/// parentheses, so the fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field 14 is index 11.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|t| t as f64 / CLOCK_TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None, "unknown unit is not guessed");
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let stat = "4242 (perf (bench) x) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 37 0 0 20 0 3";
        assert_eq!(parse_cpu_ticks(stat), Some(287));
        assert_eq!(parse_cpu_ticks("4242 (short) R 1"), None);
        assert_eq!(parse_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn this_process_reports_memory_and_cpu() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
    }
}
