//! `check-bench-json` — validate a machine-readable bench report.
//!
//! Every bench binary emits (with `--json-out <path>`) one JSON document
//! in the `lobstore-bench-report/v1` schema; CI runs a small bench and
//! pushes its output through this validator so the schema cannot drift
//! silently. The checks are structural: schema tag, binary name, scale
//! block, one record per table row with string cells, string notes.
//! The full field-by-field reference lives in `docs/SCHEMAS.md`.

use std::path::Path;
use std::process::ExitCode;

use lobstore_obs::json::{self, Value};
use lobstore_obs::BENCH_REPORT_SCHEMA;

/// Validate `doc` as a `lobstore-bench-report/v1` document. Returns
/// every problem found (empty = valid).
pub fn validate(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let mut fail = |msg: String| problems.push(msg);

    match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s == BENCH_REPORT_SCHEMA => {}
        Some(s) => fail(format!("schema is {s:?}, expected {BENCH_REPORT_SCHEMA:?}")),
        None => fail("missing string field `schema`".to_string()),
    }
    match doc.get("bin").and_then(Value::as_str) {
        Some(b) if !b.is_empty() => {}
        _ => fail("missing non-empty string field `bin`".to_string()),
    }
    if doc.get("title").and_then(Value::as_str).is_none() {
        fail("missing string field `title`".to_string());
    }
    match doc.get("wall_clock_us").and_then(Value::as_u64) {
        Some(n) if n > 0 => {}
        _ => fail(
            "`wall_clock_us` must be a positive integer (microseconds of wall time)".to_string(),
        ),
    }

    match doc.get("scale") {
        Some(scale) => {
            for field in ["object_bytes", "ops", "mark_every"] {
                match scale.get(field).and_then(Value::as_u64) {
                    Some(n) if n > 0 => {}
                    _ => fail(format!("scale.{field} must be a positive integer")),
                }
            }
        }
        None => fail("missing object field `scale`".to_string()),
    }

    match doc.get("records").and_then(Value::as_arr) {
        Some(records) => {
            if records.is_empty() {
                fail("`records` is empty — the run produced no table rows".to_string());
            }
            for (i, rec) in records.iter().enumerate() {
                if rec.get("table").and_then(Value::as_u64).is_none() {
                    fail(format!("records[{i}].table must be an integer"));
                }
                if rec.get("title").and_then(Value::as_str).is_none() {
                    fail(format!("records[{i}].title must be a string"));
                }
                match rec.get("values").and_then(Value::as_obj) {
                    Some(values) if !values.is_empty() => {
                        for (k, v) in values {
                            if v.as_str().is_none() {
                                fail(format!("records[{i}].values[{k:?}] must be a string cell"));
                            }
                        }
                    }
                    _ => fail(format!("records[{i}].values must be a non-empty object")),
                }
            }
        }
        None => fail("missing array field `records`".to_string()),
    }

    match doc.get("notes").and_then(Value::as_arr) {
        Some(notes) => {
            for (i, n) in notes.iter().enumerate() {
                if n.as_str().is_none() {
                    fail(format!("notes[{i}] must be a string"));
                }
            }
        }
        None => fail("missing array field `notes`".to_string()),
    }

    problems
}

/// Entry point for `cargo run -p xtask -- check-bench-json <path>`.
/// Exit code 0 = valid, 1 = invalid document, 2 = cannot read or parse.
pub fn run(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check-bench-json: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("check-bench-json: {} is not JSON: {e:?}", path.display());
            return ExitCode::from(2);
        }
    };
    let problems = validate(&doc);
    if problems.is_empty() {
        let records = doc
            .get("records")
            .and_then(Value::as_arr)
            .map_or(0, <[Value]>::len);
        println!(
            "ok: {} is a valid {BENCH_REPORT_SCHEMA} report ({records} records)",
            path.display()
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("check-bench-json: {p}");
        }
        eprintln!(
            "check-bench-json: {} problem(s) in {} — schema reference: docs/SCHEMAS.md",
            problems.len(),
            path.display()
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_doc() -> Value {
        json::parse(
            r#"{
                "schema": "lobstore-bench-report/v1",
                "bin": "fig5",
                "title": "Figure 5",
                "wall_clock_us": 120000,
                "scale": {"object_bytes": 1048576, "ops": 1000, "mark_every": 200},
                "records": [
                    {"table": 0, "title": "", "values": {"append KB": "3", "ESM/1": "55.0"}}
                ],
                "notes": ["Note: shapes match §4.2."]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn valid_report_passes() {
        assert_eq!(validate(&valid_doc()), Vec::<String>::new());
    }

    #[test]
    fn wrong_schema_and_missing_fields_are_reported() {
        let doc = json::parse(r#"{"schema": "nope/v9"}"#).unwrap();
        let problems = validate(&doc);
        assert!(
            problems.iter().any(|p| p.contains("schema")),
            "{problems:?}"
        );
        assert!(problems.iter().any(|p| p.contains("`bin`")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("scale")), "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("records")),
            "{problems:?}"
        );
        assert!(problems.iter().any(|p| p.contains("notes")), "{problems:?}");
    }

    #[test]
    fn empty_records_and_non_string_cells_fail() {
        let doc = json::parse(
            r#"{
                "schema": "lobstore-bench-report/v1",
                "bin": "x",
                "title": "t",
                "wall_clock_us": 5,
                "scale": {"object_bytes": 1, "ops": 1, "mark_every": 1},
                "records": [{"table": 0, "title": "", "values": {"a": 3}}],
                "notes": []
            }"#,
        )
        .unwrap();
        let problems = validate(&doc);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("string cell"));
    }

    #[test]
    fn missing_wall_clock_fails() {
        let mut fields: Vec<(String, Value)> = match valid_doc() {
            Value::Obj(f) => f,
            _ => unreachable!(),
        };
        fields.retain(|(k, _)| k != "wall_clock_us");
        let problems = validate(&Value::Obj(fields.clone()));
        assert!(
            problems.iter().any(|p| p.contains("wall_clock_us")),
            "{problems:?}"
        );
        fields.push(("wall_clock_us".to_string(), Value::from(0u64)));
        let problems = validate(&Value::Obj(fields));
        assert!(
            problems.iter().any(|p| p.contains("wall_clock_us")),
            "{problems:?}"
        );
    }

    #[test]
    fn zero_scale_fails() {
        let doc = json::parse(
            r#"{
                "schema": "lobstore-bench-report/v1",
                "bin": "x",
                "title": "t",
                "wall_clock_us": 5,
                "scale": {"object_bytes": 0, "ops": 1, "mark_every": 1},
                "records": [{"table": 0, "title": "", "values": {"a": "b"}}],
                "notes": []
            }"#,
        )
        .unwrap();
        let problems = validate(&doc);
        assert!(
            problems.iter().any(|p| p.contains("scale.object_bytes")),
            "{problems:?}"
        );
    }
}
