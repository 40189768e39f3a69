//! `BENCHMARK.json`: the one place metric names, units, directions and
//! bounds are written down. The binary reads it rather than repeating it.

use serde_json::Value;
use std::path::Path;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit the binary must report it in.
    pub unit: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the binary uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Metrics an untraced run reports.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics a traced run reports.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads and checks `path`.
    ///
    /// # Errors
    ///
    /// A missing file, malformed JSON, or a metric entry without a name,
    /// unit or direction.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc =
            serde_json::from_str_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<Value>, String> {
            doc.get(key)
                .and_then(Value::as_array)
                .cloned()
                .ok_or_else(|| format!("{}: no `{key}` list", path.display()))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
                    Ok(MetricSpec {
                        name: field("name").ok_or(format!("{key}: metric without a name"))?,
                        unit: field("unit").ok_or(format!("{key}: metric without a unit"))?,
                        higher_is_better: match field("better").as_deref() {
                            Some("higher") => true,
                            Some("lower") => false,
                            _ => return Err(format!("{key}: `better` must be higher or lower")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declaration of `name`, in either list.
    pub fn find(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
