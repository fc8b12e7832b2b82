//! Spans and events: structured records of logical operations.
//!
//! A [`Span`] brackets one operation (e.g. `op.esm.insert`). Ending it
//! always bumps the counter named after the span, so operation counts
//! are available even with no sink; the annotated JSON line is built and
//! emitted only when a sink is installed. Whether one is gets read once,
//! in [`Span::begin`], not once per field. Callers that want to skip
//! collecting expensive field values entirely can guard on
//! [`crate::sink_installed`]; a hot path that already holds a
//! [`crate::Counter`] for the span's name can bump that instead of
//! opening a span when nobody listens (`core`'s `OpObserver` does).
//!
//! An [`event`] is a span with no duration — one record, same pipeline.

use crate::json::Value;
use crate::metrics::counter_add;
use crate::sink::{sink_installed, with_sink};

/// An in-progress span. Create with [`Span::begin`], annotate with the
/// `field_*` methods, and finish with [`Span::end`] (dropping without
/// `end` still counts the span, but emits nothing).
pub struct Span {
    name: &'static str,
    fields: Vec<(String, Value)>,
    ended: bool,
    /// Was a sink installed when the span began? Fields are kept, and
    /// the record emitted, only then.
    recording: bool,
}

impl Span {
    /// Open a span named `name`. Names are static and dotted
    /// (`op.<scheme>.<operation>`), so the per-span counter needs no
    /// allocation.
    pub fn begin(name: &'static str) -> Span {
        Span {
            name,
            fields: Vec::new(),
            ended: false,
            recording: sink_installed(),
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Attach an integer field. No-op when no sink is installed.
    pub fn field_u64(&mut self, key: &str, v: u64) -> &mut Span {
        self.field(key, Value::from(v))
    }

    /// Attach a float field. No-op when no sink is installed.
    pub fn field_f64(&mut self, key: &str, v: f64) -> &mut Span {
        self.field(key, Value::Num(v))
    }

    /// Attach a string field. No-op when no sink is installed.
    pub fn field_str(&mut self, key: &str, v: &str) -> &mut Span {
        self.field(key, Value::from(v))
    }

    /// Attach an arbitrary JSON field. No-op when no sink is installed.
    pub fn field(&mut self, key: &str, v: Value) -> &mut Span {
        if self.recording {
            self.fields.push((key.to_string(), v));
        }
        self
    }

    /// Close the span: bump the `name` counter and, if a sink is
    /// installed, emit `{"type": "span", "name": ..., <fields>}`.
    pub fn end(mut self) {
        self.finish(true);
    }

    fn finish(&mut self, emit_record: bool) {
        if self.ended {
            return;
        }
        self.ended = true;
        counter_add(self.name, 1);
        if emit_record && self.recording {
            let mut members = Vec::with_capacity(self.fields.len() + 2);
            members.push(("type".to_string(), Value::from("span")));
            members.push(("name".to_string(), Value::from(self.name)));
            members.append(&mut self.fields);
            let line = Value::Obj(members).to_json();
            with_sink(|s| s.emit(&line));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // A dropped span (early return, error path) still counts, but
        // only an explicit `end` emits a record.
        self.finish(false);
    }
}

/// Emit a one-shot event: bump the `name` counter and, with a sink
/// installed, write `{"type": "event", "name": ..., <fields>}`.
/// `fields` is cloned only on the sink path.
pub fn event(name: &'static str, fields: &[(&str, Value)]) {
    counter_add(name, 1);
    if sink_installed() {
        let mut members = Vec::with_capacity(fields.len() + 2);
        members.push(("type".to_string(), Value::from("event")));
        members.push(("name".to_string(), Value::from(name)));
        for (k, v) in fields {
            members.push(((*k).to_string(), v.clone()));
        }
        let line = Value::Obj(members).to_json();
        with_sink(|s| s.emit(&line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::{counter_value, reset};
    use crate::sink::{install_sink, take_sink, MemorySink};

    #[test]
    fn span_counts_without_sink() {
        reset();
        let _ = take_sink();
        let mut s = Span::begin("op.test.read");
        s.field_u64("ignored", 1);
        assert!(s.fields.is_empty(), "fields skipped with no sink");
        s.end();
        assert_eq!(counter_value("op.test.read"), 1);
    }

    #[test]
    fn span_emits_json_with_sink() {
        reset();
        let sink = MemorySink::new();
        install_sink(Box::new(sink.clone()));
        let mut s = Span::begin("op.test.insert");
        s.field_u64("bytes", 42).field_str("scheme", "EOS");
        s.end();
        let _ = take_sink();
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        let v = json::parse(&lines[0]).unwrap();
        assert_eq!(v.get("type").and_then(json::Value::as_str), Some("span"));
        assert_eq!(
            v.get("name").and_then(json::Value::as_str),
            Some("op.test.insert")
        );
        assert_eq!(v.get("bytes").and_then(json::Value::as_u64), Some(42));
        assert_eq!(v.get("scheme").and_then(json::Value::as_str), Some("EOS"));
        assert_eq!(counter_value("op.test.insert"), 1);
    }

    #[test]
    fn dropped_span_counts_but_does_not_emit() {
        reset();
        let sink = MemorySink::new();
        install_sink(Box::new(sink.clone()));
        {
            let _s = Span::begin("op.test.dropped");
        }
        let _ = take_sink();
        assert_eq!(counter_value("op.test.dropped"), 1);
        assert!(sink.lines().is_empty());
    }

    #[test]
    fn events_flow_through_the_same_pipeline() {
        reset();
        let sink = MemorySink::new();
        install_sink(Box::new(sink.clone()));
        event("workload.mark", &[("ops", Value::from(2000u64))]);
        let _ = take_sink();
        event("workload.mark", &[("ops", Value::from(4000u64))]);
        assert_eq!(counter_value("workload.mark"), 2);
        let lines = sink.lines();
        assert_eq!(lines.len(), 1, "second event had no sink");
        let v = json::parse(&lines[0]).unwrap();
        assert_eq!(v.get("type").and_then(json::Value::as_str), Some("event"));
        assert_eq!(v.get("ops").and_then(json::Value::as_u64), Some(2000));
    }
}
