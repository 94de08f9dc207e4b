//! Host readings from procfs: peak resident memory and process CPU time.

use std::fs;

/// Peak resident set size (`VmHWM`) in MiB, or `None` when procfs is
/// unreadable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of the whole process so far, in seconds,
/// from fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields after it are
    // plain numbers, counted from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // Linux reports these in USER_HZ ticks, fixed at 100 for user space.
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn procfs_readings_are_positive() {
        assert!(super::peak_rss_mb().unwrap() > 0.0);
        let before = super::cpu_seconds().unwrap();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(super::cpu_seconds().unwrap() >= before);
    }
}
