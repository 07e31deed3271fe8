//! The Chrome-trace validator: checks an exported trace against the rules
//! the Trace Event Format requires (and `docs/OBSERVABILITY.md`
//! documents), reading it with the shared [`emx_stats::json`] reader, and
//! returns counts the CLI prints.

use emx_stats::json::{parse_json, JsonValue};

/// What [`validate_chrome_trace`] found in a structurally valid file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Complete (`"X"`) slices.
    pub slices: usize,
    /// Counter (`"C"`) samples.
    pub counters: usize,
    /// Async begin/end (`"b"`/`"e"`) events.
    pub asyncs: usize,
    /// Instant (`"i"`) events.
    pub instants: usize,
    /// Metadata (`"M"`) records.
    pub metadata: usize,
    /// The `otherData.digest` stamp.
    pub digest: String,
}

/// Validate a Chrome-trace JSON document against the rules the exporters
/// guarantee (see `docs/OBSERVABILITY.md`): parses as JSON; has a
/// `traceEvents` array whose entries are objects with a string `ph`, and
/// integer `pid`/`tid`; non-metadata events carry a numeric `ts`; `X`
/// slices carry a numeric `dur`; `b`/`e` asyncs carry `id` and `cat`; and
/// `otherData` stamps the `emx-trace/2` schema and a digest.
pub fn validate_chrome_trace(s: &str) -> Result<ChromeSummary, String> {
    let doc = parse_json(s)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut sum = ChromeSummary {
        events: events.len(),
        slices: 0,
        counters: 0,
        asyncs: 0,
        instants: 0,
        metadata: 0,
        digest: String::new(),
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        for k in ["pid", "tid"] {
            let n = ev
                .get(k)
                .and_then(JsonValue::as_num)
                .ok_or_else(|| format!("event {i}: missing {k}"))?;
            if n.fract() != 0.0 || n < 0.0 {
                return Err(format!("event {i}: non-integer {k}"));
            }
        }
        if ph != "M" && ev.get("ts").and_then(JsonValue::as_num).is_none() {
            return Err(format!("event {i}: missing ts"));
        }
        match ph {
            "X" => {
                if ev.get("dur").and_then(JsonValue::as_num).is_none() {
                    return Err(format!("event {i}: X slice missing dur"));
                }
                sum.slices += 1;
            }
            "C" => sum.counters += 1,
            "b" | "e" => {
                if ev.get("id").is_none() || ev.get("cat").is_none() {
                    return Err(format!("event {i}: async missing id/cat"));
                }
                sum.asyncs += 1;
            }
            "i" => sum.instants += 1,
            "M" => sum.metadata += 1,
            other => return Err(format!("event {i}: unknown ph '{other}'")),
        }
    }
    let other = doc.get("otherData").ok_or("missing otherData")?;
    let schema = other
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("otherData missing schema")?;
    if schema != emx_core::TRACE_SCHEMA {
        return Err(format!(
            "schema '{schema}' is not '{}'",
            emx_core::TRACE_SCHEMA
        ));
    }
    sum.digest = other
        .get("digest")
        .and_then(JsonValue::as_str)
        .ok_or("otherData missing digest")?
        .to_string();
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_requires_structure() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(
            validate_chrome_trace(r#"{"traceEvents":[{"ph":"X","pid":1,"tid":0,"ts":1}]}"#)
                .is_err()
        );
        let ok = format!(
            r#"{{"traceEvents":[{{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{{}}}},
                {{"ph":"X","name":"n","pid":1,"tid":0,"ts":0.5,"dur":1.0,"args":{{}}}}],
                "otherData":{{"schema":"{}","digest":"abc"}}}}"#,
            emx_core::TRACE_SCHEMA
        );
        let sum = validate_chrome_trace(&ok).unwrap();
        assert_eq!(
            (sum.slices, sum.metadata, sum.digest.as_str()),
            (1, 1, "abc")
        );
    }
}
