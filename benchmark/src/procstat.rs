//! Process accounting read from `/proc/self`: CPU time split, faults and
//! the resident-set high-water mark. Linux only, like the sandbox.

/// Kernel clock ticks per second (`_SC_CLK_TCK`); 100 on every Linux
/// configuration this runs on.
const TICKS_PER_S: f64 = 100.0;

/// Cumulative CPU seconds and minor faults of this process, all threads.
#[derive(Clone, Copy, Default, Debug)]
pub struct ProcUsage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl ProcUsage {
    /// Reads `/proc/self/stat`; zeros when it cannot be read.
    pub fn now() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return Self::default();
        };
        // The command name (field 2) may hold spaces; fields are counted
        // from the closing parenthesis. After it: state is field 3.
        let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
            return Self::default();
        };
        let f: Vec<&str> = rest.split_whitespace().collect();
        let num =
            |field: usize| -> f64 { f.get(field - 3).and_then(|s| s.parse().ok()).unwrap_or(0.0) };
        Self {
            minor_faults: num(10) as u64,
            user_s: num(14) / TICKS_PER_S,
            sys_s: num(15) / TICKS_PER_S,
        }
    }

    /// `self - earlier`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// `VmHWM` of this process in MiB; 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}
