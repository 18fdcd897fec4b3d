//! `compare`: judge a change against its parent from two result logs of
//! alternating runs, per workload and end-to-end metric.
//!
//! The rule: a metric improved when the change wins at least nine tenths
//! of the pairs (ties count for neither) and the medians differ by more
//! than the parent's own quartile spread. Otherwise it is no worse when
//! the change's median is within the metric's bound of the parent's;
//! worse when it is beyond it. When either side's spread exceeds the
//! bound the metric is unresolved, unless every run of one side reads
//! better than every run of the other.

use std::fmt;

use crate::record::{Better, Json, MetricDef, ALL_WORKLOADS, END_TO_END, NAMED};
use crate::stats::quartiles;

/// Pairs a comparison needs per workload.
pub const MIN_PAIRS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse (within bound)",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved (spread exceeds bound)",
        })
    }
}

/// Whether `a` reads better than `b`.
fn better(dir: Better, a: f64, b: f64) -> bool {
    match dir {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Spread of a side: quartile distance as a share of its median.
fn spread(v: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(v);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Judge paired runs (`parent[i]` ran next to `change[i]`).
pub fn verdict(parent: &[f64], change: &[f64], dir: Better, bound: f64) -> (Verdict, usize) {
    let n = parent.len().min(change.len());
    let (parent, change) = (&parent[..n], &change[..n]);
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(dir, **c, **p))
        .count();
    let (pq1, pmed, pq3) = quartiles(parent);
    let (_, cmed, _) = quartiles(change);
    let gain = match dir {
        Better::Lower => pmed - cmed,
        Better::Higher => cmed - pmed,
    };
    if wins * 10 >= n * 9 && gain > pq3 - pq1 {
        return (Verdict::Improved, wins);
    }
    if spread(parent).max(spread(change)) > bound {
        let all = |a: &[f64], b: &[f64]| a.iter().all(|x| b.iter().all(|y| better(dir, *x, *y)));
        let v = if all(change, parent) {
            Verdict::Improved
        } else if all(parent, change) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
        return (v, wins);
    }
    let worse_by = if pmed == 0.0 {
        if gain < 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        -gain / pmed.abs()
    };
    let v = if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::NoWorse
    };
    (v, wins)
}

/// Untraced result records of one workload, in log order.
fn records<'a>(log: &'a [Json], workload: &str) -> Vec<&'a Json> {
    log.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
        .collect()
}

fn value(r: &Json, d: &MetricDef) -> Option<f64> {
    ["metrics", "named"].iter().find_map(|section| {
        r.get(section)?
            .get(d.name)?
            .get("value")
            .and_then(Json::as_f64)
    })
}

pub fn parse_log(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The comparison table; `Err` when a workload has too few pairs.
pub fn compare(parent: &[Json], change: &[Json]) -> Result<String, String> {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<20} {:>6}  {:>30}  {:>30}  {:>6}  verdict (bound)\n",
        "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    ));
    let mut compared = 0;
    for workload in ALL_WORKLOADS {
        let (p, c) = (records(parent, workload), records(change, workload));
        if p.is_empty() && c.is_empty() {
            continue;
        }
        let n = p.len().min(c.len());
        if n < MIN_PAIRS {
            return Err(format!(
                "{workload}: {n} parent/change pairs; compare needs at least {MIN_PAIRS}"
            ));
        }
        compared += 1;
        for d in END_TO_END.iter().chain(NAMED.iter()) {
            let pv: Vec<f64> = p[..n].iter().filter_map(|r| value(r, d)).collect();
            let cv: Vec<f64> = c[..n].iter().filter_map(|r| value(r, d)).collect();
            if pv.len() != n || cv.len() != n {
                continue;
            }
            let (v, wins) = verdict(&pv, &cv, d.better, d.bound);
            let (pq1, pm, pq3) = quartiles(&pv);
            let (cq1, cm, cq3) = quartiles(&cv);
            out.push_str(&format!(
                "{workload:<12} {:<20} {:>6}  {:>30}  {:>30}  {:>6}  {v} ({})\n",
                d.name,
                d.unit,
                format!("{pm:.4} [{pq1:.4}, {pq3:.4}]"),
                format!("{cm:.4} [{cq1:.4}, {cq3:.4}]"),
                format!("{wins}/{n}"),
                d.bound
            ));
        }
    }
    if compared == 0 {
        return Err("no workload has untraced results in both logs".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let parent = ten(100.0, 0.5);
        let change = ten(80.0, 0.5);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            (Verdict::Improved, 10)
        );
        assert_eq!(
            verdict(&change, &parent, Better::Higher, 0.1),
            (Verdict::Improved, 10)
        );
    }

    #[test]
    fn small_loss_within_bound_is_no_worse_and_large_loss_is_worse() {
        let parent = ten(100.0, 0.5);
        assert_eq!(
            verdict(&parent, &ten(103.0, 0.5), Better::Lower, 0.1).0,
            Verdict::NoWorse
        );
        assert_eq!(
            verdict(&parent, &ten(120.0, 0.5), Better::Lower, 0.1).0,
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let parent: Vec<f64> = ten(50.0, 12.0);
        let change: Vec<f64> = ten(56.0, 12.0);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_needs_ten_pairs() {
        let rec = |v: f64| {
            Json::parse(&format!(
                r#"{{"workload": "build", "trace": 0, "metrics": {{"latency_p50_us": {{"value": {v}, "unit": "us"}}}}, "named": {{}}}}"#
            ))
            .unwrap()
        };
        let few: Vec<Json> = (0..9).map(|i| rec(100.0 + i as f64)).collect();
        assert!(compare(&few, &few).is_err());
        let p: Vec<Json> = (0..10).map(|i| rec(100.0 + i as f64 * 0.1)).collect();
        let c: Vec<Json> = (0..10).map(|i| rec(90.0 + i as f64 * 0.1)).collect();
        let table = compare(&p, &c).unwrap();
        assert!(table.contains("latency_p50_us"), "{table}");
        assert!(table.contains("improved"), "{table}");
    }
}
