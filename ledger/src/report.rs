//! Metric names, units and the result line the benchmark prints.

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric named `name` in `unit`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`, every value with all its
/// digits (Rust's shortest round-trip form).
///
/// # Errors
///
/// A name or unit outside the allowed alphabet, a repeated name, or a
/// non-finite value.
pub fn metrics_object(metrics: &[Metric]) -> Result<String, String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(&m.name) || !valid_unit(m.unit) {
            return Err(format!(
                "invalid metric name/unit: {:?} [{}]",
                m.name, m.unit
            ));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            jstr(&m.name),
            m.value,
            jstr(m.unit)
        ));
    }
    Ok(format!("{{{}}}", fields.join(",")))
}

/// The final result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
///
/// # Errors
///
/// See [`metrics_object`].
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_object(metrics)?
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for ok in [
            "setup_s",
            "linalg.lu_factor_us.n800",
            "serve.handler_ms.dispatch118",
            "p50_ms",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "quote\"",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(3, 0, &[Metric::new("p50_ms", "ms", 1.25)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        let parsed = ed_serve::json::parse(&line).unwrap();
        assert_eq!(parsed.get("failed").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn bad_metrics_are_refused() {
        assert!(metrics_object(&[Metric::new("bad name", "ms", 1.0)]).is_err());
        assert!(metrics_object(&[Metric::new("x", "ms", f64::NAN)]).is_err());
        assert!(
            metrics_object(&[Metric::new("x", "ms", 1.0), Metric::new("x", "ms", 2.0)]).is_err()
        );
    }
}
