//! CPU time and peak memory of a process, read from `/proc`.

use std::io;

/// Clock ticks per second of the `utime`/`stime` fields. Linux fixes
/// this `USER_HZ` at 100 for every userspace-visible interface.
pub const TICKS_PER_S: f64 = 100.0;

/// User + system CPU ticks of all threads (live and exited) from the
/// text of `/proc/<pid>/stat`. The command name may contain spaces and
/// parentheses, so fields are counted after its last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

fn read(pid: Option<u32>, file: &str) -> io::Result<String> {
    let who = pid.map_or("self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{who}/{file}"))
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unparsable /proc {what}"),
    )
}

/// CPU seconds (user + system) used so far by `pid` (`None` = this
/// process).
pub fn cpu_s(pid: Option<u32>) -> io::Result<f64> {
    let ticks = parse_stat_ticks(&read(pid, "stat")?).ok_or_else(|| malformed("stat"))?;
    Ok(ticks as f64 / TICKS_PER_S)
}

/// Peak resident set of `pid` (`None` = this process), in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> io::Result<f64> {
    let kb = parse_vm_hwm_kb(&read(pid, "status")?).ok_or_else(|| malformed("status"))?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_skip_a_hostile_command_name() {
        let stat = "4242 (pas) serve) S 1 4242 1 0 -1 4194304 82 0 0 0 \
                    1234 567 0 0 20 0 9 0 158449 2703360 327";
        assert_eq!(parse_stat_ticks(stat), Some(1234 + 567));
        assert_eq!(parse_stat_ticks("4242 (pas) S 1"), None);
        assert_eq!(parse_stat_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_in_kb() {
        let status = "Name:\tpas\nVmPeak:\t  9000 kB\nVmHWM:\t    1576 kB\nVmRSS:\t 1500 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1576));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("Name:\tpas\n"), None);
    }

    #[test]
    fn own_process_reads() {
        assert!(cpu_s(None).unwrap() >= 0.0);
        assert!(peak_rss_mb(None).unwrap() > 0.0);
    }
}
