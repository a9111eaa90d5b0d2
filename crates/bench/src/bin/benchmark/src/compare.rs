//! `benchmark compare BASE.json... -- CHANGE.json...`: judges each
//! workload × end-to-end metric of a change against its parent by the
//! metric's direction and bound.
//!
//! Each file is one benchmark run written with `--out`; the files of a
//! side are that side's repeated runs. Listing the two sides in the order
//! the runs alternated pairs them up for the claim rule.

use crate::spec::Spec;
use crate::stats::{median, quartiles, spread};
use reap_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;

/// How a change moved one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the claim rule, or every change run beats every parent run.
    Improved,
    /// Not worse by more than the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Whether `a` reads strictly better than `b`.
fn better(a: f64, b: f64, higher_is_better: bool) -> bool {
    if higher_is_better {
        a > b
    } else {
        a < b
    }
}

/// The claim rule: at least ten pairs `(base[i], change[i])`, the change
/// wins at least nine tenths of them (ties count for neither), and the
/// medians differ, in the change's favour, by more than the parent's
/// inter-quartile range.
pub fn claim(base: &[f64], change: &[f64], higher_is_better: bool) -> bool {
    let pairs = base.len().min(change.len());
    if pairs < 10 {
        return false;
    }
    let wins = base
        .iter()
        .zip(change)
        .filter(|(&b, &c)| better(c, b, higher_is_better))
        .count();
    let (q1, q3) = quartiles(base);
    let (mb, mc) = (median(base), median(change));
    10 * wins >= 9 * pairs && better(mc, mb, higher_is_better) && (mc - mb).abs() > q3 - q1
}

/// Judges one workload × metric.
pub fn verdict(base: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (mb, mc) = (median(base), median(change));
    if spread(base).max(spread(change)) > bound {
        let all_better = change
            .iter()
            .all(|&c| base.iter().all(|&b| better(c, b, higher_is_better)));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worse = if higher_is_better {
        (mb - mc) / mb
    } else {
        (mc - mb) / mb
    };
    if worse > bound {
        Verdict::Regressed
    } else if claim(base, change, higher_is_better) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Workload → metric → values, one per run file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_side(paths: &[String], runs: &mut Runs) -> Result<(), String> {
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let Some(Value::Arr(workloads)) = root.get("workloads") else {
            return Err(format!("{path}: not a benchmark results file"));
        };
        for w in workloads {
            let name = w.get("name").and_then(Value::as_str).unwrap_or_default();
            let Some(Value::Obj(metrics)) = w.get("metrics") else {
                continue;
            };
            for (metric, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    runs.entry(name.to_owned())
                        .or_default()
                        .entry(metric.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(())
}

/// Runs `benchmark compare`; returns the exit code: 1 when any metric
/// regressed, else 0.
///
/// # Errors
///
/// Bad usage or unreadable result files.
pub fn run(args: &[String], spec: &Spec) -> Result<i32, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: benchmark compare BASE.json... -- CHANGE.json...")?;
    let (base_paths, change_paths) = (&args[..split], &args[split + 1..]);
    if base_paths.is_empty() || change_paths.is_empty() {
        return Err("both sides need at least one results file".to_owned());
    }
    let (mut base, mut change) = (Runs::new(), Runs::new());
    load_side(base_paths, &mut base)?;
    load_side(change_paths, &mut change)?;

    println!(
        "{:<13} {:<32} {:>15} {:>15} {:>8} {:>7}  verdict",
        "workload", "metric", "base median", "change median", "change", "bound"
    );
    let mut regressed = false;
    for (workload, metrics) in &base {
        for m in &spec.end_to_end {
            let (Some(b), Some(c)) = (
                metrics.get(&m.name),
                change.get(workload).and_then(|cm| cm.get(&m.name)),
            ) else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(b, c, m.higher_is_better, bound);
            regressed |= v == Verdict::Regressed;
            let (mb, mc) = (median(b), median(c));
            println!(
                "{:<13} {:<32} {:>15.6e} {:>15.6e} {:>+7.2}% {:>6.1}%  {v} ({} vs {} runs)",
                workload,
                format!("{} [{}]", m.name, m.unit),
                mb,
                mc,
                100.0 * (mc - mb) / mb,
                100.0 * bound,
                b.len(),
                c.len(),
            );
        }
    }
    Ok(i32::from(regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: &[f64]) -> Vec<f64> {
        jitter.iter().map(|j| center * (1.0 + j)).collect()
    }

    const JITTER: [f64; 10] = [
        0.0, 0.01, -0.01, 0.005, -0.005, 0.002, -0.002, 0.008, -0.008, 0.0,
    ];

    #[test]
    fn same_code_is_unchanged() {
        let base = around(1.0, &JITTER);
        let change = around(1.003, &JITTER);
        assert_eq!(verdict(&base, &change, false, 0.05), Verdict::Unchanged);
    }

    #[test]
    fn worse_by_more_than_the_bound_regresses_in_either_direction() {
        let base = around(1.0, &JITTER);
        assert_eq!(
            verdict(&base, &around(1.2, &JITTER), false, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &around(0.8, &JITTER), true, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = around(
            1.0,
            &[0.0, 0.3, -0.3, 0.2, -0.2, 0.1, -0.1, 0.25, -0.25, 0.0],
        );
        let tight = around(1.0, &JITTER);
        assert_eq!(verdict(&tight, &noisy, false, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &tight, false, 0.05), Verdict::Unresolved);
        // … unless every change run beats every parent run.
        let far = around(0.1, &JITTER);
        assert_eq!(verdict(&noisy, &far, false, 0.05), Verdict::Improved);
    }

    #[test]
    fn the_claim_rule_needs_ten_pairs_nine_wins_and_a_gap_over_the_iqr() {
        let base = around(1.0, &JITTER);
        let faster = around(0.9, &JITTER);
        assert!(claim(&base, &faster, false));
        assert_eq!(verdict(&base, &faster, false, 0.05), Verdict::Improved);
        assert!(!claim(&base[..9], &faster[..9], false), "only nine pairs");
        assert!(!claim(&base, &faster, true), "wrong direction");

        // Two lost pairs out of ten: 8/10 < 9/10.
        let mut two_losses = faster.clone();
        two_losses[0] = 2.0;
        two_losses[1] = 2.0;
        assert!(!claim(&base, &two_losses, false));

        // Wins every pair, but by less than the parent's IQR.
        let base = vec![1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9];
        let nudged: Vec<f64> = base.iter().map(|b| b - 0.01).collect();
        assert!(!claim(&base, &nudged, false));
    }
}
