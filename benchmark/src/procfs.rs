//! Process accounting read from `/proc/self` as text: CPU time, minor page
//! faults, thread count and peak resident set. No `libc`, no `unsafe`, no
//! allocator hook — the kernel's own counters, parsed from three small files.
//! Off Linux every reader returns `None` and the metrics report 0.

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`. Linux has
/// fixed `USER_HZ` at 100 on every architecture since 2.6; without `libc`
/// `sysconf(_SC_CLK_TCK)` cannot be asked, so the constant is assumed.
const USER_HZ: f64 = 100.0;

/// Counters from one read of `/proc/self/stat` and
/// `/proc/thread-self/schedstat`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcStat {
    /// Seconds on a CPU, user and kernel together, from `schedstat`: the
    /// scheduler's nanosecond clock. (`stat` counts in 10 ms ticks — too
    /// coarse for a sub-second iteration; it only provides the split below.)
    pub on_cpu_s: f64,
    /// User-mode CPU seconds (all threads), in ticks of 10 ms.
    pub user_s: f64,
    /// Kernel-mode CPU seconds (all threads), in ticks of 10 ms.
    pub sys_s: f64,
    /// Minor page faults (no disk I/O: fresh or recycled pages mapped in).
    pub minor_faults: u64,
    /// Threads in the process.
    pub threads: u64,
}

impl ProcStat {
    /// Kernel share of the tick-counted CPU time (0 when no tick fell).
    pub fn sys_share(&self) -> f64 {
        let total = self.user_s + self.sys_s;
        if total == 0.0 {
            0.0
        } else {
            self.sys_s / total
        }
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            on_cpu_s: self.on_cpu_s - earlier.on_cpu_s,
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            threads: self.threads,
        }
    }
}

/// Parses the single line of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is the executable name in parentheses and may
/// itself contain spaces and parentheses, so fields are counted from the
/// *last* `)`: after it come `state` (field 3), …, `minflt` (10), `utime`
/// (14), `stime` (15), `num_threads` (20).
pub fn parse_stat(line: &str) -> Option<ProcStat> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // fields[0] is field 3 of the file.
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        on_cpu_s: 0.0,
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
        threads: field(20)?,
    })
}

/// Parses `VmHWM` (peak resident set, "high water mark") out of
/// `/proc/<pid>/status`, in MiB. The kernel prints it in kB (= KiB).
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Parses a `schedstat` file (`<ns on cpu> <ns waiting> <timeslices>`) into
/// seconds on a CPU. The file is per task: `stat()` reads the calling
/// thread's, which for the benchmark's one client is the whole process.
pub fn parse_schedstat(line: &str) -> Option<f64> {
    let ns: u64 = line.split_ascii_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// This process's counters now; `None` off Linux. Without `schedstat` (a
/// kernel built without scheduler statistics) CPU time falls back to ticks.
pub fn stat() -> Option<ProcStat> {
    let mut s = parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)?;
    s.on_cpu_s = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| parse_schedstat(&t))
        .unwrap_or(s.user_s + s.sys_s);
    Some(s)
}

/// This process's peak resident set so far, in MiB; `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (drc bench) x) R 1 4242 4242 0 -1 4194304 \
        1130000 0 3 0 321 123 0 0 20 0 1 0 5000 1000000 2000 18446744073709551615 \
        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_fields_are_counted_after_the_last_parenthesis() {
        let s = parse_stat(STAT).expect("parses");
        assert_eq!(s.minor_faults, 1_130_000);
        assert_eq!(s.user_s, 3.21);
        assert_eq!(s.sys_s, 1.23);
        assert_eq!(s.threads, 1);
        assert!((s.sys_share() - 1.23 / 4.44).abs() < 1e-12);
        assert_eq!(ProcStat::default().sys_share(), 0.0);
    }

    #[test]
    fn schedstat_is_nanoseconds_on_cpu() {
        assert_eq!(parse_schedstat("496066460 86000 17\n"), Some(0.49606646));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn stat_rejects_truncated_input() {
        assert_eq!(parse_stat("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis"), None);
    }

    #[test]
    fn since_subtracts_counters() {
        let a = parse_stat(STAT).unwrap();
        let mut b = a;
        b.user_s += 1.5;
        b.on_cpu_s += 1.75;
        b.minor_faults += 10;
        let d = b.since(&a);
        assert_eq!(d.user_s, 1.5);
        assert_eq!(d.on_cpu_s, 1.75);
        assert_eq!(d.sys_s, 0.0);
        assert_eq!(d.minor_faults, 10);
    }

    #[test]
    fn vm_hwm_is_converted_from_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  524288 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(512.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_proc_files_parse() {
        let s = stat().expect("/proc/self/stat parses");
        assert!(s.threads >= 1);
        assert!(peak_rss_mib().expect("VmHWM present") > 0.0);
    }
}
