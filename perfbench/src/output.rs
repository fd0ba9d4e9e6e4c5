//! The result document: the one JSON line the benchmark ends with.

use qkd_api::Json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]`, starting with a letter or digit).
    pub name: &'static str,
    /// Unit (`ms`, `s`, `1/s`, `count`, …).
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// A metric name: 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Encodes the result document
/// `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`,
/// refusing malformed or repeated names and non-finite values.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut members = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(m.name) || !valid_unit(m.unit) {
            return Err(format!("malformed metric `{}` [{}]", m.name, m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric `{}` is not finite: {}", m.name, m.value));
        }
        if members.iter().any(|(name, _)| name == m.name) {
            return Err(format!("metric `{}` is reported twice", m.name));
        }
        members.push((
            m.name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::str(m.unit)),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::num(attempted)),
        ("failed".into(), Json::num(failed)),
        ("metrics".into(), Json::Obj(members)),
    ])
    .encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_use_the_metric_charset() {
        for ok in [
            "key_rate_bps",
            "privacy.amplify_ms_per_block",
            "p-99",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn document_has_exactly_the_contract_keys() {
        let line = render(
            true,
            12,
            1,
            &[
                Metric::new("latency_ms", "ms", 1.2034),
                Metric::new("setup_s", "s", 0.8127),
            ],
        )
        .unwrap();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(members) = &doc else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(12));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let latency = doc
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .unwrap();
        assert_eq!(latency.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(latency.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn bad_metrics_are_refused() {
        let twice = [Metric::new("a", "s", 1.0), Metric::new("a", "s", 2.0)];
        assert!(render(true, 1, 0, &twice).is_err());
        assert!(render(true, 1, 0, &[Metric::new("a", "s", f64::NAN)]).is_err());
        assert!(render(true, 1, 0, &[Metric::new("a b", "s", 1.0)]).is_err());
        assert!(render(true, 1, 0, &[Metric::new("a", "m s", 1.0)]).is_err());
    }
}
