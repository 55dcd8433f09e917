//! `im-benchmark compare <a.json> <b.json>` — apply the regression bounds.
//!
//! Each file is a `results.json` holding one or more runs per workload. For
//! every end-to-end metric × workload the verdict is `better`, `same`,
//! `worse` or `unresolved`: medians are compared against the metric's bound,
//! and a pairing whose own run-to-run spread (interquartile range ÷ median)
//! exceeds the bound on either side is unresolved, not unchanged.

use std::path::Path;

use serde::Value;

use crate::metrics::{Better, END_TO_END};
use crate::report::read_json;
use crate::stats::median;
use crate::workloads::{Res, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range ÷ median, by the same inclusive-free quartile method
/// as Python's `statistics.quantiles(values, n=4)`; `0` below four values,
/// where no spread can be stated.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, linear interpolation.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (quantile(3) - quantile(1)) / median(&v).abs()
}

/// Judge `b` against baseline `a`.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (base, new) = (median(a), median(b));
    // Positive = worse, as a share of the baseline.
    let worse_by = match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn runs<'a>(doc: &'a Value, workload: &str) -> &'a [Value] {
    match doc.get("end_to_end").and_then(|g| g.get(workload)) {
        Some(Value::Array(runs)) => runs,
        _ => &[],
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| number(r.get("metrics")?.get(metric)?.get("value")))
        .collect()
}

fn failures(runs: &[Value]) -> (u64, u64) {
    runs.iter().fold((0, 0), |(failed, attempted), r| {
        (
            failed + number(r.get("ops_failed")).unwrap_or(0.0) as u64,
            attempted + number(r.get("ops_attempted")).unwrap_or(0.0) as u64,
        )
    })
}

/// Print the comparison; returns whether any pairing is `worse` or
/// `unresolved` (the A/A acceptance run wants neither).
pub fn run(a: &Path, b: &Path) -> Res<bool> {
    let (doc_a, doc_b) = (read_json(a)?, read_json(b)?);
    let mut flagged = false;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "change", "a iqr", "b iqr"
    );
    for workload in WORKLOADS {
        let (runs_a, runs_b) = (runs(&doc_a, workload), runs(&doc_b, workload));
        if runs_a.is_empty() || runs_b.is_empty() {
            continue;
        }
        for spec in END_TO_END {
            let (va, vb) = (values(runs_a, spec.name), values(runs_b, spec.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, spec.better, spec.bound);
            flagged |= matches!(verdict, Verdict::Worse | Verdict::Unresolved);
            println!(
                "{:<16} {:<24} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {} (bound {:.0}%, n={}/{})",
                workload,
                spec.name,
                median(&va),
                median(&vb),
                100.0 * (median(&vb) - median(&va)) / median(&va).abs(),
                100.0 * spread(&va),
                100.0 * spread(&vb),
                verdict.label(),
                100.0 * spec.bound,
                va.len(),
                vb.len(),
            );
        }
        let (fa, fb) = (failures(runs_a), failures(runs_b));
        if fa != fb && (fa.0 > 0 || fb.0 > 0) {
            flagged |= fb.0 * fa.1.max(1) > fa.0 * fb.1.max(1);
            println!(
                "{workload:<16} ops_failed/ops_attempted  {}/{} -> {}/{}",
                fa.0, fa.1, fb.0, fb.1
            );
        }
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |m: f64| vec![m * 0.99, m, m, m * 1.01, m];
        assert_eq!(
            judge(&steady(100.0), &steady(105.0), Better::Lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            judge(&steady(100.0), &steady(115.0), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady(100.0), &steady(80.0), Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&steady(100.0), &steady(80.0), Better::Higher, 0.10),
            Verdict::Worse
        );
        let noisy = vec![60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &steady(100.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // A single run per side has no spread to object to.
        assert_eq!(
            judge(&[100.0], &[100.5], Better::Lower, 0.10),
            Verdict::Same
        );
    }
}
