//! What a workload run hands back, and the one-line JSON result.
//!
//! Every workload prints the same metric names, those of
//! `BENCHMARK.json`: [`END_TO_END`] without tracing and [`PER_LAYER`]
//! with it. A workload reads each name on its own phases (see
//! `perfbench/METRICS.md`). Metrics a workload reports beyond the
//! schema go to the info line under `"detail"`.

use std::fmt::Write;

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fit_s", "s"),
    ("recs_per_s", "1/s"),
    ("rec_p50_us", "us"),
    ("rec_p99_us", "us"),
    ("delta_p50_ms", "ms"),
    ("delta_p90_ms", "ms"),
];

/// The per-layer metrics and their units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("netgen.generate_s", "s"),
    ("core.dependency_s", "s"),
    ("core.dep_tests", "count"),
    ("core.fit_market_ms_p50", "ms"),
    ("core.fit_market_ms_max", "ms"),
    ("core.keycol_built", "count"),
    ("core.keycol_shared", "count"),
    ("core.keycol_mb", "MiB"),
    ("core.vote_groups", "count"),
    ("core.recommend_us_p50.singular", "us"),
    ("core.recommend_us_p50.pairwise", "us"),
    ("core.rec_basis_local_vote_frac", "frac"),
    ("core.rec_basis_global_vote_frac", "frac"),
    ("core.rec_basis_group_majority_frac", "frac"),
    ("core.rec_basis_global_majority_frac", "frac"),
    ("core.rec_basis_default_frac", "frac"),
    ("model.apply_deltas_ms_p50", "ms"),
    ("model.arena_append_ms_p50", "ms"),
    ("core.apply_delta_ms_p50", "ms"),
    ("core.delta_params_untouched", "count"),
    ("core.delta_params_patched", "count"),
    ("core.delta_params_rebuilt", "count"),
    ("core.delta_incremental_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Whether a metric is end-to-end (reported by untraced runs) or
/// per-layer (reported by the traced run).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Level {
    EndToEnd,
    Layer,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub level: Level,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Run facts for the info line: key and JSON-encoded value.
    pub info: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; any one fails the run.
    pub errors: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Level::EndToEnd);
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(&name.into(), value, unit, Level::Layer);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, level: Level) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            level,
        });
    }

    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Records a gate violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The result line for `level`: every metric of its schema, in
    /// schema order. A schema metric that is missing, has another unit
    /// or is not a finite number is a benchmark bug and fails the run.
    pub fn result_line(&mut self, level: Level) -> String {
        let schema: &[(&str, &str)] = match level {
            Level::EndToEnd => &END_TO_END,
            Level::Layer => &PER_LAYER,
        };
        let mut metrics = String::new();
        for &(name, unit) in schema {
            let found = self
                .metrics
                .iter()
                .find(|m| m.level == level && m.name == name);
            let Some(m) = found else {
                self.errors.push(format!("metric {name} was not reported"));
                continue;
            };
            if m.unit != unit || !m.value.is_finite() {
                self.errors.push(format!(
                    "metric {name} reads {} {}; the schema wants a finite number in {unit}",
                    m.value, m.unit
                ));
                continue;
            }
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                m.value,
                quote(unit)
            );
        }
        let detail: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.level == level && !schema.iter().any(|&(n, _)| n == m.name))
            .map(|m| {
                let v = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    quote(&m.name),
                    quote(m.unit)
                )
            })
            .collect();
        self.info("detail", format!("{{{}}}", detail.join(", ")));
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }

    pub fn info_line(&self) -> String {
        let body: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{\"info\": {{{}}}}}", body.join(", "))
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(level: Level) -> Report {
        let mut r = Report::default();
        let schema: &[(&str, &str)] = match level {
            Level::EndToEnd => &END_TO_END,
            Level::Layer => &PER_LAYER,
        };
        for (i, &(name, unit)) in schema.iter().enumerate() {
            r.push(name, i as f64 + 0.5, unit, level);
        }
        r
    }

    #[test]
    fn result_line_prints_the_schema_and_moves_extras_to_detail() {
        let mut r = full(Level::EndToEnd);
        r.e2e("standup_carriers_per_s", 1600.25, "1/s");
        r.layer("core.loo_s", 1.25, "s");
        r.attempted = 3;
        let line = r.result_line(Level::EndToEnd);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, "
        ));
        assert!(!line.contains("standup") && !line.contains("core.loo_s"));
        let info = r.info_line();
        assert!(info.contains("\"standup_carriers_per_s\": {\"value\": 1600.25"));
        let v: serde_json::Value = serde_json::from_str(&line).expect("result line is JSON");
        let serde_json::Value::Map(metrics) = &v["metrics"] else {
            panic!("metrics is an object: {line}");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
    }

    #[test]
    fn a_missing_nan_or_misunited_schema_metric_fails_the_run() {
        for break_it in 0..3 {
            let mut r = full(Level::Layer);
            let m = &mut r.metrics[4];
            match break_it {
                0 => m.name = "renamed".to_string(),
                1 => m.value = f64::NAN,
                _ => m.unit = "s",
            }
            let line = r.result_line(Level::Layer);
            assert!(line.starts_with("{\"correct\": false"), "{line}");
            assert!(!line.contains("core.fit_market_ms_max"));
        }
    }

    /// The schema is the manifest's: same names, units and order.
    #[test]
    fn schema_matches_the_manifest() {
        let text = include_str!("../../BENCHMARK.json");
        let manifest: serde_json::Value = serde_json::from_str(text).expect("manifest is JSON");
        for (key, schema) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let serde_json::Value::Seq(list) = &manifest[key] else {
                panic!("{key} is a list");
            };
            let listed: Vec<(String, String)> = list
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().into(),
                        m["unit"].as_str().unwrap().into(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = schema
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
