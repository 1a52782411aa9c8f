//! Unit coverage for the observability crate: span nesting and
//! aggregation, registry merge semantics, the JSON writer/parser pair
//! and report capture.
//!
//! Tests in one binary share the process-global registry and run
//! concurrently, so each test uses names unique to itself and compares
//! snapshots instead of calling `reset()`.

use rsn_obs::{
    counter_add, counter_get, gauge_set, json, metrics_snapshot, span_snapshot, timed, RunReport,
    Span,
};

#[test]
fn spans_nest_into_slash_paths_and_aggregate_calls() {
    {
        let root = Span::enter("t1_outer");
        assert_eq!(root.path(), "t1_outer");
        for _ in 0..3 {
            let child = root.child("inner");
            assert_eq!(child.path(), "t1_outer/inner");
            let grand = child.child("leaf");
            assert_eq!(grand.path(), "t1_outer/inner/leaf");
        }
    }
    let spans = span_snapshot();
    let outer = spans.get("t1_outer").expect("outer recorded");
    let inner = spans.get("t1_outer/inner").expect("inner recorded");
    let leaf = spans.get("t1_outer/inner/leaf").expect("leaf recorded");
    assert_eq!(outer.calls, 1);
    assert_eq!(inner.calls, 3);
    assert_eq!(leaf.calls, 3);
    // Wall-clock containment: the outer span was live for at least as
    // long as all inner spans together.
    assert!(outer.total_ns >= inner.total_ns);
    assert!(inner.total_ns >= leaf.total_ns);
}

#[test]
fn timed_returns_the_closure_result() {
    let v = timed("t2_work", || 6 * 7);
    assert_eq!(v, 42);
    assert_eq!(span_snapshot().get("t2_work").map(|s| s.calls), Some(1));
}

#[test]
fn sibling_spans_do_not_nest() {
    {
        let _a = Span::enter("t3_a");
    }
    {
        let _b = Span::enter("t3_b");
    }
    let spans = span_snapshot();
    assert!(spans.contains_key("t3_a"));
    assert!(spans.contains_key("t3_b"));
    assert!(
        !spans.contains_key("t3_a/t3_b"),
        "dropped span must pop the stack"
    );
}

#[test]
fn global_counters_accumulate_and_gauges_overwrite() {
    counter_add("t4.hits", 2);
    counter_add("t4.hits", 3);
    assert_eq!(counter_get("t4.hits"), 5);
    gauge_set("t4.temp", 1.5);
    gauge_set("t4.temp", 2.5);
    let snap = metrics_snapshot();
    assert_eq!(snap.gauges.get("t4.temp"), Some(&2.5));
    assert_eq!(snap.counters.get("t4.hits"), Some(&5));
}

#[test]
fn json_writer_and_parser_roundtrip() {
    let mut obj = json::Json::obj();
    obj.set(
        "name",
        json::Json::Str("quote \" slash \\ newline \n".into()),
    );
    obj.set("count", json::Json::Num(42.0));
    obj.set("ratio", json::Json::Num(0.125));
    obj.set("flag", json::Json::Bool(true));
    obj.set("nothing", json::Json::Null);
    obj.set(
        "list",
        json::Json::Arr(vec![json::Json::Num(1.0), json::Json::Str("two".into())]),
    );
    for text in [obj.to_string(), obj.to_string_pretty(2)] {
        let back = json::parse(&text).expect("parse");
        assert_eq!(back, obj, "roundtrip through {text:?}");
    }
    // Integral numbers print without a fraction.
    assert!(obj.to_string().contains("\"count\":42"));
}

#[test]
fn json_parser_rejects_garbage() {
    assert!(json::parse("{").is_err());
    assert!(json::parse("[1,]").is_err());
    assert!(json::parse("{\"a\":1} trailing").is_err());
    assert!(json::parse("\"unterminated").is_err());
}

#[test]
fn report_capture_serializes_counters_gauges_and_spans() {
    counter_add("t8.solves", 4);
    gauge_set("t8.load", 0.75);
    timed("t8_phase", || ());
    let report = RunReport::capture("unit");
    let parsed = json::parse(&report.to_json()).expect("report json parses");
    assert_eq!(
        parsed.get_path("name").and_then(|v| v.as_str()),
        Some("unit")
    );
    assert_eq!(
        parsed
            .get_path("counters/t8.solves")
            .and_then(|v| v.as_f64()),
        Some(4.0)
    );
    assert_eq!(
        parsed.get_path("gauges/t8.load").and_then(|v| v.as_f64()),
        Some(0.75)
    );
    let phase = parsed
        .get_path("spans")
        .and_then(|s| s.get("t8_phase"))
        .expect("span key");
    assert_eq!(phase.get("calls").and_then(|v| v.as_f64()), Some(1.0));
    assert!(phase.get("total_ms").and_then(|v| v.as_f64()).is_some());
}
