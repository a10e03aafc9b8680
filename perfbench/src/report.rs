//! The benchmark's output: a human-readable report followed by one JSON
//! result line.

use std::fmt::Write as _;

use mics_core::Json;

/// Section of `BENCHMARK.json` listing the end-to-end metrics, printed by
/// untraced runs (`--trace 0`) of every workload.
pub const END_TO_END: &str = "end_to_end";

/// Section of `BENCHMARK.json` listing the per-layer metrics, printed by
/// traced runs (`--trace 1`) of every workload.
pub const PER_LAYER: &str = "per_layer";

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`, in
/// order. That file is the one list of metric names and units.
pub fn declared(section: &str) -> Vec<(String, String)> {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let field = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .expect("metric entries have a name and a unit")
            .to_string()
    };
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// A workload's result: the metrics it measured plus its outcome counts.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Steps or queries attempted.
    pub attempted: u64,
    /// Attempts that failed, or that belong to a repetition whose
    /// correctness check failed.
    pub failed: u64,
    /// Names of the correctness checks that failed.
    pub failed_checks: Vec<String>,
}

impl Report {
    /// Record `value` under `name`, which `BENCHMARK.json` must declare.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            [END_TO_END, PER_LAYER].iter().any(|s| declared(s).iter().any(|(n, _)| n == name)),
            "metric {name} is not declared in BENCHMARK.json"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Record the outcome of a correctness check.
    pub fn check(&mut self, name: &str, ok: bool) {
        println!("check {name}: {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            self.failed_checks.push(name.to_string());
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The JSON result line for the metrics of `section` (`END_TO_END` or
    /// `PER_LAYER`); metrics of a layer this workload did not exercise are
    /// reported as 0.
    pub fn result_line(&self, section: &str) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed_checks.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in declared(section).iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: starts with a letter or digit,
    /// at most 64 characters of `[A-Za-z0-9_.-]`.
    pub fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_declared_metric_name_is_valid_and_unique() {
        let all: Vec<(String, String)> =
            declared(END_TO_END).into_iter().chain(declared(PER_LAYER)).collect();
        assert!(all.len() > 30, "both metric lists are read");
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty(), "{name} has no unit");
            assert_eq!(all.iter().filter(|(n, _)| n == name).count(), 1, "{name} declared twice");
        }
        assert!(declared(END_TO_END).iter().any(|(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn name_validity_rules() {
        assert!(valid_name("kernels.gflops"));
        assert!(valid_name("9-a_b.c"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_lists_every_requested_metric_with_its_unit() {
        let mut r = Report { attempted: 10, ..Report::default() };
        r.set("setup_s", 0.25);
        let line = r.result_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        for (name, _) in declared(END_TO_END) {
            assert!(line.contains(&format!("\"{name}\": {{")), "{name} missing");
        }
        r.check("demo", false);
        assert!(r.result_line(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn setting_an_undeclared_metric_panics() {
        Report::default().set("no.such_metric", 1.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
