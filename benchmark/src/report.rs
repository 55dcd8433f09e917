//! Output: the one-line result the driver reads, and `results.json`.

use std::path::Path;

use serde::{Deserialize, Serialize, Value};

use crate::metrics::Metric;
use crate::workloads::Res;

/// The vendored `serde` data model as a (de)serialisable document.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

/// An object value from `(key, value)` pairs, in order.
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `{name: {"value", "unit"[, "n"]}}` — the driver's result line allows
/// exactly `value` and `unit`; `results.json` also keeps the sample count.
fn metrics_object(metrics: &[Metric], with_samples: bool) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ];
                if with_samples {
                    fields.push(("n", Value::U64(m.n as u64)));
                }
                (m.name.clone(), object(fields))
            })
            .collect(),
    )
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let doc = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", metrics_object(metrics, false)),
    ]);
    serde_json::to_string(&Json(doc)).expect("finite metrics serialise")
}

/// One workload's section of `results.json`.
#[must_use]
pub fn section(
    seed: u64,
    seconds: f64,
    scale: &str,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Value {
    object(vec![
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("fixture", Value::Str(scale.to_string())),
        ("correct", Value::Bool(correct)),
        ("ops_attempted", Value::U64(attempted)),
        ("ops_failed", Value::U64(failed)),
        ("metrics", metrics_object(metrics, true)),
    ])
}

/// Read a JSON document.
pub fn read_json(path: &Path) -> Res<Value> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str::<Json>(&text)
        .map(|j| j.0)
        .map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// Write a JSON document, pretty-printed.
pub fn write_json(path: &Path, doc: &Value) -> Res<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&Json(doc.clone())).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Insert or replace `key` in an object value.
pub fn upsert(doc: &mut Value, key: &str, value: Value) {
    if !matches!(doc, Value::Object(_)) {
        *doc = Value::Object(Vec::new());
    }
    let Value::Object(pairs) = doc else {
        unreachable!("just made an object")
    };
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = value,
        None => pairs.push((key.to_string(), value)),
    }
}

/// Append one run to `results.json`:
/// `{"host": {...}, "end_to_end": {workload: [run, ...]}, "per_layer": {workload: [run, ...]}}`.
pub fn append_run(path: &Path, traced: bool, workload: &str, run: Value) -> Res<()> {
    let mut doc = if path.exists() {
        read_json(path)?
    } else {
        Value::Object(Vec::new())
    };
    let threads = crate::affinity::start_cpus();
    upsert(
        &mut doc,
        "host",
        object(vec![
            ("nproc", Value::U64(threads as u64)),
            ("load_thread_cap", Value::U64(threads as u64)),
        ]),
    );
    let key = if traced { "per_layer" } else { "end_to_end" };
    let mut group = doc.get(key).cloned().unwrap_or(Value::Object(Vec::new()));
    let mut runs = match group.get(workload) {
        Some(Value::Array(runs)) => runs.clone(),
        _ => Vec::new(),
    };
    runs.push(run);
    upsert(&mut group, workload, Value::Array(runs));
    upsert(&mut doc, key, group);
    write_json(path, &doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[Metric::end_to_end("setup_s", 1.25, 3)]);
        assert!(!line.contains('\n'));
        let doc: Json = serde_json::from_str(&line).unwrap();
        let Value::Object(pairs) = &doc.0 else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.0.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value"), Some(&Value::F64(1.25)));
        assert_eq!(setup.get("unit"), Some(&Value::Str("s".into())));
    }

    #[test]
    fn appending_keeps_earlier_runs_and_other_workloads() {
        let path = crate::workloads::out_dir()
            .join("scratch")
            .join(format!("{}-append-test.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_run(&path, false, "a", Value::U64(1)).unwrap();
        append_run(&path, false, "b", Value::U64(2)).unwrap();
        append_run(&path, false, "a", Value::U64(3)).unwrap();
        append_run(&path, true, "a", Value::U64(4)).unwrap();
        let doc = read_json(&path).unwrap();
        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(
            e2e.get("a"),
            Some(&Value::Array(vec![Value::U64(1), Value::U64(3)]))
        );
        assert_eq!(e2e.get("b"), Some(&Value::Array(vec![Value::U64(2)])));
        assert_eq!(
            doc.get("per_layer").unwrap().get("a"),
            Some(&Value::Array(vec![Value::U64(4)]))
        );
        let _ = std::fs::remove_file(&path);
    }
}
