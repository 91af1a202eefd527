//! `ledger --compare A.json… -- B.json…`: the choosing-metrics §8 rule
//! applied to every metric × workload of two sets of ledger files (A the
//! parent, B the change; file i of each side forms pair i, so alternate
//! the runs).

use crate::metrics::{table, MetricDef};
use crate::stats::quartiles;
use mstacks_serve::jsonin::{self, Value};
use std::collections::BTreeMap;

/// Workload → metric → value, as one ledger file records them.
pub type Run = BTreeMap<String, BTreeMap<String, f64>>;

fn load(path: &str) -> Result<Run, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_run(&text))
        .map_err(|e| format!("{path}: {e}"))
}

/// Reads the metric values of one ledger file (`--out`).
pub fn parse_run(text: &str) -> Result<Run, String> {
    let v = jsonin::parse(text)?;
    let Some(Value::Obj(workloads)) = v.get("workloads") else {
        return Err("no `workloads` object".into());
    };
    let mut run = Run::new();
    for (w, body) in workloads {
        let Some(Value::Obj(metrics)) = body.get("metrics") else {
            return Err(format!("`{w}` has no metrics"));
        };
        let m = metrics
            .iter()
            .filter_map(|(name, m)| {
                m.get("value")
                    .and_then(Value::as_f64)
                    .map(|x| (name.clone(), x))
            })
            .collect();
        run.insert(w.clone(), m);
    }
    Ok(run)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    NoChange,
    Regression,
    Unresolved,
    /// No bound to judge against (per-layer metrics) and no gain.
    NoBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NoChange => "no-change",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// Both sides' quartiles, B's wins over A pair by pair, and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Judged {
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// B gains when it wins at least nine tenths of the pairs (ties count
/// for neither) and the medians differ by more than A's quartile
/// distance. Otherwise B regresses when its median is worse than A's by
/// more than `bound`; the result is unresolved when either side's spread
/// exceeds the bound, unless every B run beats every A run.
pub fn judge(a: &[f64], b: &[f64], def: &MetricDef) -> Judged {
    let better = |x: f64, y: f64| if def.lower_is_better { x < y } else { x > y };
    let (qa, qb) = (quartiles(a), quartiles(b));
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let gain = pairs > 0
        && wins * 10 >= pairs * 9
        && better(qb.1, qa.1)
        && (qb.1 - qa.1).abs() > qa.2 - qa.0;
    let verdict = match def.bound {
        _ if gain => Verdict::Gain,
        None => Verdict::NoBound,
        Some(bound) => {
            let worse = if def.lower_is_better {
                qb.1 - qa.1
            } else {
                qa.1 - qb.1
            } / qa.1.abs();
            let spread = |q: (f64, f64, f64)| (q.2 - q.0) / q.1.abs();
            let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
            if worse > bound {
                Verdict::Regression
            } else if (spread(qa) > bound || spread(qb) > bound) && !all_better {
                Verdict::Unresolved
            } else {
                Verdict::NoChange
            }
        }
    };
    Judged {
        a: qa,
        b: qb,
        wins,
        pairs,
        verdict,
    }
}

/// Prints the comparison table; returns an error for unreadable input.
pub fn run(a_paths: &[String], b_paths: &[String]) -> Result<(), String> {
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("--compare needs files on both sides of `--`".into());
    }
    let a: Vec<Run> = a_paths.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let b: Vec<Run> = b_paths.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let t = table();
    println!(
        "{:<8} {:<42} {:>30} {:>30} {:>6}  verdict (bound)",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins"
    );
    for w in &t.workloads {
        for def in t.end_to_end.iter().chain(&t.per_layer) {
            let values = |side: &[Run]| -> Vec<f64> {
                side.iter()
                    .filter_map(|r| r.get(w).and_then(|m| m.get(&def.name)).copied())
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let j = judge(&va, &vb, def);
            let q = |q: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", q.1, q.0, q.2);
            println!(
                "{w:<8} {:<42} {:>30} {:>30} {:>6}  {}{}",
                format!("{} ({})", def.name, def.unit),
                q(j.a),
                q(j.b),
                format!("{}/{}", j.wins, j.pairs),
                j.verdict.label(),
                def.bound
                    .map_or(String::new(), |b| format!(" ({:+.0}%)", b * 100.0)),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency() -> MetricDef {
        MetricDef {
            name: "op_p50_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: Some(0.05),
        }
    }

    const A: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 100.2, 99.6, 100.8, 99.9, 100.1, 100.4,
    ];

    #[test]
    fn nine_wins_in_ten_with_a_gap_beyond_the_iqr_is_a_gain() {
        let mut b: Vec<f64> = A.iter().map(|x| x - 3.0).collect();
        b[0] = A[0] + 1.0;
        let j = judge(&A, &b, &latency());
        assert_eq!((j.wins, j.pairs, j.verdict), (9, 10, Verdict::Gain));
    }

    #[test]
    fn eight_wins_in_ten_is_not_a_gain() {
        let mut b: Vec<f64> = A.iter().map(|x| x - 3.0).collect();
        b[0] = A[0] + 1.0;
        b[1] = A[1];
        let j = judge(&A, &b, &latency());
        assert_eq!(j.wins, 8, "a tie counts for neither side");
        assert_eq!(j.verdict, Verdict::NoChange);
    }

    #[test]
    fn worse_beyond_the_bound_regresses_and_wide_spread_is_unresolved() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.08).collect();
        assert_eq!(judge(&A, &b, &latency()).verdict, Verdict::Regression);
        let noisy: Vec<f64> = A
            .iter()
            .enumerate()
            .map(|(i, x)| x * if i % 2 == 0 { 0.9 } else { 1.12 })
            .collect();
        assert_eq!(judge(&A, &noisy, &latency()).verdict, Verdict::Unresolved);
        let mut unbounded = latency();
        unbounded.bound = None;
        assert_eq!(judge(&A, &b, &unbounded).verdict, Verdict::NoBound);
    }
}
