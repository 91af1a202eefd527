//! The metric table, run outcomes and their JSON forms.
//!
//! `BENCHMARK.json` at the repository root is the single source of metric
//! names, units, directions and regression bounds; it is compiled into
//! the binary and parsed with the service's own JSON reader.

use mstacks_serve::jsonin::{self, Value};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// One metric row of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Relative regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug)]
pub struct Table {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Table {
    /// The metrics a run reports: end-to-end untraced, per-layer traced.
    pub fn reported(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| parse_table(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

fn parse_table(text: &str) -> Result<Table, String> {
    let v = jsonin::parse(text)?;
    let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
        v.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("`{key}` missing"))?
            .iter()
            .map(|m| {
                let s = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
                Ok(MetricDef {
                    name: s("name").ok_or("metric without name")?,
                    unit: s("unit").ok_or("metric without unit")?,
                    lower_is_better: s("better").as_deref() == Some("lower"),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Table {
        run_seconds: v
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("`run_seconds` missing")?,
        workloads: v
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("`workloads` missing")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect(),
        end_to_end: defs("end_to_end")?,
        per_layer: defs("per_layer")?,
    })
}

/// What one child process (one workload, one phase) measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    /// Run facts for the fingerprint (op counts, shard count).
    pub info: Vec<(String, String)>,
    /// The first few failure messages, for stderr.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// The child → parent line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\":{}", num(*v)))
            .collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"info\":{}}}",
            self.attempted,
            self.failed,
            metrics.join(","),
            string_map(&self.info)
        )
    }

    pub fn from_json(text: &str) -> Result<Outcome, String> {
        let v = jsonin::parse(text)?;
        let count = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or(format!("`{k}` missing"))
        };
        let members = |k: &str| match v.get(k) {
            Some(Value::Obj(m)) => Ok(m.clone()),
            _ => Err(format!("`{k}` missing")),
        };
        Ok(Outcome {
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: members("metrics")?
                .into_iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|x| (k, x))
                        .ok_or("non-numeric metric".to_string())
                })
                .collect::<Result<_, _>>()?,
            info: members("info")?
                .into_iter()
                .map(|(k, v)| (k, v.as_str().unwrap_or_default().to_string()))
                .collect(),
            errors: Vec::new(),
        })
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"k":"v",…}` with minimal escaping (keys and values are plain ASCII).
pub fn string_map(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{}\":\"{}\"",
                k,
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// `{"name":{"value":v,"unit":"u"},…}` for the metrics in `defs`, or the
/// name of the first one missing.
pub fn metrics_json(defs: &[MetricDef], values: &[(String, f64)]) -> Result<String, String> {
    let mut s = String::from("{");
    for (i, d) in defs.iter().enumerate() {
        let v = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map(|&(_, v)| v)
            .filter(|v| v.is_finite())
            .ok_or_else(|| d.name.clone())?;
        let _ = write!(
            s,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            d.name,
            num(v),
            d.unit
        );
    }
    s.push('}');
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_has_the_contract_shape() {
        let t = table();
        assert!(t.run_seconds >= 1.0);
        assert_eq!(t.workloads, ["detail", "sampled", "corun", "serve"]);
        let setup = t
            .end_to_end
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert!(setup.lower_is_better && setup.unit == "s");
        let largest = t
            .end_to_end
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(t
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(t.per_layer.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn outcome_round_trips_through_the_service_parser() {
        let mut o = Outcome {
            attempted: 120,
            ..Outcome::default()
        };
        o.set("op_p50_ms", 141.234_567_891);
        o.info("ops", "mcf-bdw:40 \"q\"");
        o.fail("boom".into());
        let back = Outcome::from_json(&o.to_json()).expect("parses");
        assert_eq!((back.attempted, back.failed), (120, 1));
        assert_eq!(back.get("op_p50_ms"), Some(141.234_567_891));
        assert_eq!(back.info, o.info);
    }

    #[test]
    fn metrics_json_names_the_missing_metric() {
        let defs = &table().end_to_end;
        let err = metrics_json(defs, &[("setup_s".into(), 1.0)]).unwrap_err();
        assert_ne!(err, "setup_s");
        let all: Vec<(String, f64)> = defs.iter().map(|d| (d.name.clone(), 2.5)).collect();
        let json = metrics_json(defs, &all).expect("complete");
        assert!(jsonin::parse(&json).is_ok());
    }
}
