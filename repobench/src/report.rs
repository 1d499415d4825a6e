//! Named metrics, the result line, and the host the run was taken on.

use std::fmt::Write as _;
use std::path::Path;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (0 for a single measurement or a count).
    pub samples: usize,
}

/// An ordered set of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric measured from `samples` values.
    pub fn add_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Adds a single measurement or an exact count.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.add_n(name, value, unit, 0);
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.0 {
            let _ = write!(s, "  {:<40} {:>14.4} {:<8}", m.name, m.value, m.unit);
            if m.samples > 0 {
                let _ = write!(s, " (n={})", m.samples);
            }
            s.push('\n');
        }
        s
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with all its digits; non-finite values become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// Where and on what a result was measured.
#[derive(Clone, Debug)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// Commit of the checkout, when it is a git work tree.
    pub git_sha: String,
}

impl Host {
    /// Probes the current host; `root` is the checkout.
    pub fn probe(root: &Path) -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc,
            cpu,
            git_sha: git_sha(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The host as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": \"{}\", \"git_sha\": \"{}\"}}",
            self.nproc,
            self.cpu.replace(['"', '\\'], ""),
            self.git_sha
        )
    }
}

/// Reads `HEAD` from `root/.git` without leaving the checkout.
fn git_sha(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(r)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == r).then(|| sha.to_string())
    })
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Peak resident set of this process since the last
/// [`reset_peak_rss`] (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resets the peak resident set to the current one and returns the
/// current one (`VmRSS`), MiB. A later [`peak_rss_mb`] minus this value
/// is the peak growth after the reset.
pub fn reset_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))?;
    Ok(status_mb("VmRSS:"))
}
