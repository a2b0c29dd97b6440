//! Turning what a run measured into named metrics, and writing them out.

use oasis::sim::Histogram;
use oasis_json::Json;

use crate::drive::{Outcome, Sample};
use crate::reference::HostSpeed;
use crate::workload::Op;

/// Length of the segments whose per-segment values give each metric's
/// within-run spread.
pub const SEGMENT_NS: u64 = 5_000_000_000;

/// Exact nearest-rank percentile of nanosecond samples, in microseconds.
/// `None` when there are no samples.
pub fn percentile_us(samples_ns: &[u64], q: f64) -> Option<f64> {
    let mut hist = Histogram::new();
    for &ns in samples_ns {
        hist.record(ns);
    }
    hist.quantile(q).map(|ns| ns as f64 / 1e3)
}

/// Median of a few floats (set-up times). Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The value as the clock read it, where `value` is relative to the
    /// host-speed reference.
    pub raw: Option<f64>,
    /// Samples behind the value, where it is a statistic of samples.
    pub samples: Option<u64>,
    /// Smallest and largest per-segment value (per set-up, for
    /// `setup_s`): the within-run spread `compare` holds the bound to.
    pub spread: Option<(f64, f64)>,
}

impl Metric {
    pub fn plain(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            raw: None,
            samples: None,
            spread: None,
        }
    }

    /// The form the driver reads: `{"value": .., "unit": ".."}`.
    pub fn to_driver_json(&self) -> Json {
        Json::obj(vec![
            ("value", Json::F64(self.value)),
            ("unit", Json::str(self.unit)),
        ])
    }

    /// The form kept in the result file.
    fn to_file_json(&self) -> Json {
        let mut fields = vec![
            ("value", Json::F64(self.value)),
            ("unit", Json::str(self.unit)),
        ];
        if let Some(raw) = self.raw {
            fields.push(("raw", Json::F64(raw)));
        }
        if let Some(n) = self.samples {
            fields.push(("samples", Json::U64(n)));
        }
        if let Some((min, max)) = self.spread {
            fields.push(("segment_min", Json::F64(min)));
            fields.push(("segment_max", Json::F64(max)));
        }
        Json::obj(fields)
    }
}

fn min_max(values: impl Iterator<Item = f64>) -> Option<(f64, f64)> {
    values.fold(None, |acc, v| match acc {
        None => Some((v, v)),
        Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
    })
}

/// Splits samples into [`SEGMENT_NS`] segments of the measured interval.
/// A trailing part shorter than a segment joins the last one.
fn segments(samples: &[Sample], measured_ns: u64) -> Vec<Vec<Sample>> {
    let count = (measured_ns / SEGMENT_NS).max(1) as usize;
    let mut out = vec![Vec::new(); count];
    for s in samples {
        let idx = ((s.at_ns / SEGMENT_NS) as usize).min(count - 1);
        out[idx].push(*s);
    }
    out
}

/// Correctly answered timed operations a second; with `host`, each counts
/// for as many as the reference-speed host would have completed in its
/// place.
pub fn ops_per_s(outcome: &Outcome, host: Option<&HostSpeed>) -> f64 {
    let completed: f64 = outcome
        .samples
        .iter()
        .flatten()
        .map(|s| host.map_or(1.0, |h| h.slowdown(s.at_ns)))
        .sum();
    completed / outcome.elapsed.as_secs_f64()
}

fn latencies(samples: &[Sample]) -> Vec<u64> {
    samples.iter().map(|s| s.latency_ns).collect()
}

/// The latency and throughput metrics of a timed run: `ops_per_s`, then
/// `<op>_p50_us` and `<op>_p95_us` for each operation, exact over the
/// whole run, each with its per-segment minimum and maximum.
///
/// With `host`, every sample is first put relative to the host-speed
/// reference of its own second (see [`crate::reference`]): a latency is
/// divided by the host's slowdown then, an operation counts for as many as
/// the reference-speed host would have completed in its place. The values
/// the clock read are kept as each metric's `raw`.
pub fn run_metrics(outcome: &Outcome, host: Option<&HostSpeed>) -> Vec<Metric> {
    let measured_ns = outcome.elapsed.as_nanos() as u64;
    let seconds = outcome.elapsed.as_secs_f64();
    let slowdown = |s: &Sample| host.map_or(1.0, |h| h.slowdown(s.at_ns));
    let mut metrics = Vec::new();

    let all: Vec<Sample> = outcome.samples.iter().flatten().copied().collect();
    let per_segment = segments(&all, measured_ns);
    let segment_s = seconds / per_segment.len() as f64;
    metrics.push(Metric {
        name: "ops_per_s".into(),
        unit: "1/s",
        value: ops_per_s(outcome, host),
        raw: host.map(|_| ops_per_s(outcome, None)),
        samples: Some(outcome.timed_ops()),
        spread: min_max(
            per_segment
                .iter()
                .map(|s| s.iter().map(slowdown).sum::<f64>() / segment_s),
        ),
    });

    for op in Op::ALL {
        let samples = &outcome.samples[op.idx()];
        let relative: Vec<Sample> = samples
            .iter()
            .map(|s| Sample {
                at_ns: s.at_ns,
                latency_ns: (s.latency_ns as f64 / slowdown(s)).round() as u64,
            })
            .collect();
        let per_segment = segments(&relative, measured_ns);
        for (suffix, q) in [("p50", 0.5), ("p95", 0.95)] {
            metrics.push(Metric {
                name: format!("{}_{suffix}_us", op.name()),
                unit: "us",
                // An operation that never succeeded has no latency; the
                // run is already incorrect, 0 keeps the report whole.
                value: percentile_us(&latencies(&relative), q).unwrap_or(0.0),
                raw: host.and_then(|_| percentile_us(&latencies(samples), q)),
                samples: Some(samples.len() as u64),
                spread: min_max(
                    per_segment
                        .iter()
                        .filter_map(|s| percentile_us(&latencies(s), q)),
                ),
            });
        }
    }
    metrics
}

/// `setup_s`: the median of the set-ups made for this run, each as
/// `(seconds, raw seconds)`. The raw median is kept where the two differ.
pub fn setup_metric(setups: &[(f64, f64)]) -> Metric {
    let seconds: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let raw: Vec<f64> = setups.iter().map(|s| s.1).collect();
    Metric {
        name: "setup_s".into(),
        unit: "s",
        value: median(&seconds),
        raw: (seconds != raw).then(|| median(&raw)),
        samples: Some(setups.len() as u64),
        spread: min_max(seconds.iter().copied()),
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`); 0 if absent.
pub fn proc_status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Where a result came from; the header every result file carries.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub workload: &'static str,
    pub commit: String,
    pub nproc: usize,
    /// Which CPUs the clients and the deployment were pinned to.
    pub placement: String,
    pub seed: u64,
    pub clients: usize,
    pub measured_s: f64,
    pub command: String,
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Everything one `run` of one workload produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub provenance: Provenance,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Empty when the layer pass was not asked for.
    pub per_layer: Vec<Metric>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result file: provenance header, correctness, both metric sets.
    pub fn to_file_json(&self) -> Json {
        let p = &self.provenance;
        let metrics = |list: &[Metric]| {
            Json::Obj(
                list.iter()
                    .map(|m| (m.name.clone(), m.to_file_json()))
                    .collect(),
            )
        };
        Json::obj(vec![
            (
                "provenance",
                Json::obj(vec![
                    ("workload", Json::str(p.workload)),
                    ("commit", Json::str(p.commit.clone())),
                    ("nproc", Json::U64(p.nproc as u64)),
                    ("placement", Json::str(p.placement.clone())),
                    ("seed", Json::U64(p.seed)),
                    ("clients", Json::U64(p.clients as u64)),
                    ("measured_s", Json::F64(p.measured_s)),
                    ("command", Json::str(p.command.clone())),
                ]),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("failed_share", Json::F64(self.failed_share())),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
        ])
    }

    /// The single line the driver reads, carrying `metrics`.
    pub fn driver_line(&self, metrics: &[&Metric]) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.to_driver_json()))
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Every metric by name with its unit, for a person.
    pub fn print_table(&self) {
        let p = &self.provenance;
        println!(
            "\n=== {} (seed {}, {} clients, {:.1} s measured, commit {}, nproc {}, {}) ===",
            p.workload, p.seed, p.clients, p.measured_s, p.commit, p.nproc, p.placement
        );
        println!(
            "attempted {}  failed {}  failed_share {:.6}",
            self.attempted,
            self.failed,
            self.failed_share()
        );
        for failure in &self.failures {
            println!("  FAILED {failure}");
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let samples = m.samples.map_or(String::new(), |n| format!("  n={n}"));
            let raw = m.raw.map_or(String::new(), |raw| format!("  raw {raw:.3}"));
            let spread = m.spread.map_or(String::new(), |(lo, hi)| {
                format!("  segments {lo:.3}..{hi:.3}")
            });
            println!(
                "{:<44} {:>14.4} {:<6}{raw}{samples}{spread}",
                m.name, m.value, m.unit
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        // 1..=100 µs: nearest-rank p50 is the 50th value, p95 the 95th.
        let samples: Vec<u64> = (1..=100).rev().map(|us| us * 1_000).collect();
        assert_eq!(percentile_us(&samples, 0.5), Some(50.0));
        assert_eq!(percentile_us(&samples, 0.95), Some(95.0));
        assert_eq!(percentile_us(&samples, 1.0), Some(100.0));
        // No 1/64 quantisation: neighbouring nanoseconds stay apart.
        assert_eq!(
            percentile_us(&[1_000_001, 1_000_002, 1_000_003], 0.5),
            Some(1_000.002)
        );
        assert_eq!(percentile_us(&[], 0.5), None);
    }

    #[test]
    fn a_slow_host_cancels_out_of_relative_metrics_and_stays_in_raw() {
        use crate::reference::REFERENCE_RTT_NS;
        use std::time::Duration;
        // The host runs the reference at half speed for the whole second;
        // ten logins take 200 µs each on the clock.
        let sample = |i: u64, latency_ns: u64| Sample {
            at_ns: i * 1_000_000,
            latency_ns,
        };
        let mut outcome = Outcome {
            elapsed: Duration::from_secs(1),
            reference: (0..10)
                .map(|i| sample(i, 2 * REFERENCE_RTT_NS as u64))
                .collect(),
            ..Outcome::default()
        };
        outcome.samples[Op::Login.idx()] = (0..10).map(|i| sample(i, 200_000)).collect();
        let host = HostSpeed::of(&outcome.reference);
        let find = |metrics: &[Metric], name: &str| {
            metrics.iter().find(|m| m.name == name).cloned().unwrap()
        };

        let relative = run_metrics(&outcome, host.as_ref());
        let login = find(&relative, "login_p50_us");
        assert_eq!((login.value, login.raw), (100.0, Some(200.0)));
        let ops = find(&relative, "ops_per_s");
        assert_eq!((ops.value, ops.raw), (20.0, Some(10.0)));

        let clock = run_metrics(&outcome, None);
        let login = find(&clock, "login_p50_us");
        assert_eq!((login.value, login.raw), (200.0, None));
        assert_eq!(find(&clock, "ops_per_s").value, 10.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn segments_keep_every_sample_and_the_tail_joins_the_last() {
        let sample = |at_s: f64| Sample {
            at_ns: (at_s * 1e9) as u64,
            latency_ns: 1,
        };
        let samples = [sample(0.1), sample(4.9), sample(5.1), sample(11.0)];
        let split = segments(&samples, 11_500_000_000);
        assert_eq!(split.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 2]);
        // A run shorter than one segment is one segment.
        assert_eq!(segments(&samples, 300_000_000).len(), 1);
    }
}
