//! Process facts from `/proc/self/status`: peak resident memory and the
//! CPUs the process may run on.

fn status_field(status: &str, key: &str) -> Option<String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().trim_end_matches("kB").trim().to_string())
}

fn status() -> String {
    std::fs::read_to_string("/proc/self/status").unwrap_or_default()
}

/// Peak resident set size of the process so far (`VmHWM`), in MB.
pub fn high_water_mb() -> f64 {
    status_field(&status(), "VmHWM:")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0) as f64
        / 1024.0
}

/// CPUs this process may run on — what `nproc` prints.
pub fn allowed_cpus() -> usize {
    let Some(list) = status_field(&status(), "Cpus_allowed_list:") else {
        return 0;
    };
    list.split(',')
        .map(|range| match range.split_once('-') {
            Some((a, b)) => match (a.trim().parse::<usize>(), b.trim().parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => 1,
        })
        .sum()
}
