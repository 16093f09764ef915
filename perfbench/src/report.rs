//! Named metrics with units, and their JSON and text forms.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `latency_p50_us`.
    pub name: String,
    /// The value as measured, all digits kept.
    pub value: f64,
    /// Unit, e.g. `us` or `1/s`.
    pub unit: &'static str,
    /// Why the value should not be read at face value (not applicable on
    /// this workload, too few samples, cut short by a stall), if it should
    /// not.
    pub caveat: Option<String>,
}

/// An ordered list of metrics; later pushes of a name replace earlier ones.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_with(name, value, unit, None);
    }

    /// Adds (or replaces) a metric that carries a caveat.
    pub fn push_with(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        caveat: Option<String>,
    ) {
        let value = if value.is_finite() { value } else { 0.0 };
        let metric = Metric {
            name: name.to_string(),
            value,
            unit,
            caveat,
        };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(slot) => *slot = metric,
            None => self.0.push(metric),
        }
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Adds `caveat` to every metric whose unit is a time or a rate.
    pub fn caveat_timings(&mut self, caveat: &str) {
        for m in &mut self.0 {
            if matches!(m.unit, "s" | "ms" | "us" | "ns" | "1/s" | "us_2x") {
                m.caveat.get_or_insert_with(|| caveat.to_string());
            }
        }
    }

    /// `{"name": {"value": v, "unit": u[, "caveat": c]}, ...}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
            if let Some(caveat) = &m.caveat {
                let _ = write!(out, ", \"caveat\": {}", json_str(caveat));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// One `# <section> <name> <value> <unit> [caveat]` line per metric.
    pub fn to_text(&self, section: &str) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = write!(
                out,
                "# {section:<6} {:<38} {:>16} {}",
                m.name,
                json_num(m.value),
                m.unit
            );
            if let Some(caveat) = &m.caveat {
                let _ = write!(out, "  ({caveat})");
            }
            out.push('\n');
        }
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
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

/// A JSON number with every digit of `v` (0 for a non-finite value).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_keeps_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.203_456_789), "1.203456789");
        assert_eq!(json_num(f64::NAN), "0");
        let mut m = Metrics::default();
        m.push("x", 1.5, "ms");
        m.push("x", 2.5, "ms");
        assert_eq!(m.to_json(), "{\"x\": {\"value\": 2.5, \"unit\": \"ms\"}}");
    }
}
