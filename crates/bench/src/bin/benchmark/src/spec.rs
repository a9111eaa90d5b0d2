//! `BENCHMARK.json`: the workloads and the metrics, with their units,
//! directions and bounds. The benchmark prints exactly the metrics it
//! lists and `benchmark compare` judges them by its bounds.

use reap_obs::json::{self, Value};
use std::path::Path;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `s` or `MiB`.
    pub unit: String,
    /// Direction of improvement.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed file.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// What a user of `reap` sees.
    pub end_to_end: Vec<Metric>,
    /// Single layers.
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Reads and parses `path`.
    ///
    /// # Errors
    ///
    /// A message naming the file and what is wrong with it.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the text of `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| match root.get(key) {
            Some(Value::Arr(items)) => Ok(items.as_slice()),
            _ => Err(format!("missing list \"{key}\"")),
        };
        let text_field = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("entry missing \"{key}\""))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = text_field(m, "better")?;
                    Ok(Metric {
                        name: text_field(m, "name")?,
                        unit: text_field(m, "unit")?,
                        higher_is_better: match better.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("unknown direction \"{other}\"")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn parses_directions_units_and_bounds() {
        let spec = Spec::parse(
            r#"{"workloads":[{"name":"a","why":"x"}],
                "end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}],
                "per_layer":[{"name":"hits","unit":"count","better":"higher"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads, vec!["a".to_owned()]);
        assert_eq!(spec.metric("wall_s").unwrap().bound, Some(0.1));
        assert!(!spec.metric("wall_s").unwrap().higher_is_better);
        assert!(spec.metric("hits").unwrap().higher_is_better);
        assert_eq!(spec.metric("hits").unwrap().bound, None);
        assert!(Spec::parse(r#"{"workloads":[]}"#).is_err());
    }

    #[test]
    fn the_repository_file_lists_these_workloads_with_bounded_end_to_end_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let spec = Spec::load(&path).unwrap();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
