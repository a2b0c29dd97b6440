//! `e2e compare <a> <b>`: applies the bounds of `BENCHMARK.json` to two
//! result files (or two directories of them) and says, per workload and
//! end-to-end metric, whether the second is worse than the first.

use std::path::{Path, PathBuf};

use oasis_json::Json;

use crate::workload::Workload;

/// `setup_s` may also worsen by this much absolute before it counts: a
/// quarter of a 40 ms set-up is inside scheduler noise.
const SETUP_SLACK_S: f64 = 0.05;
/// `failed_share` has an absolute bound; its parent value is 0.
const FAILED_SHARE_BOUND: f64 = 0.001;

/// One end-to-end metric's regression bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the parent's value by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The within-run spread is wider than the bound, so the two values
    /// cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric as read back from a result file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// Per-segment minimum and maximum, when the file has them.
    pub spread: Option<(f64, f64)>,
}

impl Reading {
    fn relative_spread(&self) -> f64 {
        match self.spread {
            Some((lo, hi)) if self.value != 0.0 => (hi - lo) / self.value.abs(),
            _ => 0.0,
        }
    }
}

/// How much worse `change` is than `parent`, as a share of `parent`
/// (negative when it is better), and the verdict under `bound`.
pub fn judge(bound: &Bound, parent: Reading, change: Reading) -> (f64, Verdict) {
    let worse_by = if bound.higher_is_better {
        parent.value - change.value
    } else {
        change.value - parent.value
    };
    let delta = if parent.value == 0.0 {
        0.0
    } else {
        worse_by / parent.value.abs()
    };
    let mut allowed = bound.bound * parent.value.abs();
    if bound.name == "setup_s" {
        allowed = allowed.max(SETUP_SLACK_S);
    }
    let spread = parent.relative_spread().max(change.relative_spread());
    if spread > bound.bound {
        // Still decidable when every segment of the change reads better
        // than every segment of the parent.
        let clearly_better = match (parent.spread, change.spread) {
            (Some((p_lo, p_hi)), Some((c_lo, c_hi))) => {
                if bound.higher_is_better {
                    c_lo > p_hi
                } else {
                    c_hi < p_lo
                }
            }
            _ => false,
        };
        if !clearly_better {
            return (delta, Verdict::Unresolved);
        }
    }
    if worse_by > allowed {
        (delta, Verdict::Worse)
    } else {
        (delta, Verdict::Ok)
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads the `end_to_end` bounds out of `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let json = read_json(path)?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no `end_to_end` list", path.display()))?;
    list.iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .ok_or_else(|| format!("{}: metric without `{key}`", path.display()))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?
                    .as_f64()
                    .ok_or_else(|| format!("{}: `bound` is not a number", path.display()))?,
            })
        })
        .collect()
}

fn reading(result: &Json, metric: &str) -> Option<Reading> {
    let m = result.get("end_to_end")?.get(metric)?;
    let spread = match (
        m.get("segment_min").and_then(Json::as_f64),
        m.get("segment_max").and_then(Json::as_f64),
    ) {
        (Some(lo), Some(hi)) => Some((lo, hi)),
        _ => None,
    };
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        spread,
    })
}

/// The result files to compare: a single pair, or every workload present
/// in both directories.
fn pairs(a: &Path, b: &Path) -> Result<Vec<(PathBuf, PathBuf)>, String> {
    if !a.is_dir() && !b.is_dir() {
        return Ok(vec![(a.to_path_buf(), b.to_path_buf())]);
    }
    if !(a.is_dir() && b.is_dir()) {
        return Err("compare takes two files or two directories".into());
    }
    let found: Vec<_> = Workload::ALL
        .iter()
        .map(|w| format!("{}.json", w.name()))
        .map(|file| (a.join(&file), b.join(&file)))
        .filter(|(pa, pb)| pa.is_file() && pb.is_file())
        .collect();
    if found.is_empty() {
        return Err("the two directories share no <workload>.json".into());
    }
    Ok(found)
}

/// Prints one row per workload × metric; `Ok(true)` when no row is
/// `worse`.
pub fn compare(a: &Path, b: &Path, bounds_file: &Path) -> Result<bool, String> {
    let bounds = load_bounds(bounds_file)?;
    let mut all_ok = true;
    println!(
        "{:<15} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "parent", "change", "delta", "bound"
    );
    for (path_a, path_b) in pairs(a, b)? {
        let (ja, jb) = (read_json(&path_a)?, read_json(&path_b)?);
        let workload = ja
            .get("provenance")
            .and_then(|p| p.get("workload"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let mut row = |metric: &str,
                       parent: f64,
                       change: f64,
                       delta: f64,
                       bound: f64,
                       v: Verdict| {
            all_ok &= v != Verdict::Worse;
            let (delta, bound) = (delta * 100.0, bound * 100.0);
            println!(
                "{workload:<15} {metric:<20} {parent:>14.4} {change:>14.4} {delta:>+8.1}% {bound:>6.1}%  {}",
                v.as_str()
            );
        };
        for bound in &bounds {
            let (Some(parent), Some(change)) =
                (reading(&ja, &bound.name), reading(&jb, &bound.name))
            else {
                return Err(format!(
                    "`{}` is missing from {} or {}",
                    bound.name,
                    path_a.display(),
                    path_b.display()
                ));
            };
            let (delta, verdict) = judge(bound, parent, change);
            row(
                &bound.name,
                parent.value,
                change.value,
                delta,
                bound.bound,
                verdict,
            );
        }
        let share = |j: &Json| j.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0);
        let (fa, fb) = (share(&ja), share(&jb));
        let verdict = if fb - fa > FAILED_SHARE_BOUND {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
        row("failed_share", fa, fb, fb - fa, FAILED_SHARE_BOUND, verdict);
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(name: &str, bound: f64) -> Bound {
        Bound {
            name: name.into(),
            higher_is_better: false,
            bound,
        }
    }

    fn steady(value: f64) -> Reading {
        Reading {
            value,
            spread: Some((value * 0.99, value * 1.01)),
        }
    }

    #[test]
    fn lower_is_better_metric_is_worse_only_past_its_bound() {
        let b = lower("login_p50_us", 0.10);
        assert_eq!(judge(&b, steady(100.0), steady(109.0)).1, Verdict::Ok);
        assert_eq!(judge(&b, steady(100.0), steady(111.0)).1, Verdict::Worse);
        // Getting better is never worse, however far.
        assert_eq!(judge(&b, steady(100.0), steady(10.0)).1, Verdict::Ok);
        let (delta, _) = judge(&b, steady(100.0), steady(111.0));
        assert!((delta - 0.11).abs() < 1e-9);
    }

    #[test]
    fn higher_is_better_metric_flips_the_direction() {
        let b = Bound {
            name: "ops_per_s".into(),
            higher_is_better: true,
            bound: 0.10,
        };
        assert_eq!(judge(&b, steady(1000.0), steady(880.0)).1, Verdict::Worse);
        assert_eq!(judge(&b, steady(1000.0), steady(950.0)).1, Verdict::Ok);
        assert_eq!(judge(&b, steady(1000.0), steady(2000.0)).1, Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_clearly_better() {
        let b = lower("revoke_p95_us", 0.10);
        let noisy = |value: f64| Reading {
            value,
            spread: Some((value * 0.8, value * 1.2)),
        };
        assert_eq!(judge(&b, noisy(100.0), noisy(130.0)).1, Verdict::Unresolved);
        assert_eq!(judge(&b, noisy(100.0), noisy(100.0)).1, Verdict::Unresolved);
        // Every segment of the change (max 60) beats every segment of the
        // parent (min 80).
        assert_eq!(judge(&b, noisy(100.0), noisy(50.0)).1, Verdict::Ok);
    }

    #[test]
    fn setup_gets_fifty_milliseconds_of_slack() {
        let b = lower("setup_s", 0.25);
        let once = |value: f64| Reading {
            value,
            spread: None,
        };
        // 40 ms -> 80 ms is +100 % but inside the absolute slack.
        assert_eq!(judge(&b, once(0.040), once(0.080)).1, Verdict::Ok);
        assert_eq!(judge(&b, once(0.040), once(0.095)).1, Verdict::Worse);
        // On a long set-up the relative bound is the wider one.
        assert_eq!(judge(&b, once(1.0), once(1.2)).1, Verdict::Ok);
        assert_eq!(judge(&b, once(1.0), once(1.3)).1, Verdict::Worse);
    }
}
