//! Edge-case coverage for the hand-rolled JSON model: string escaping,
//! nested structures and number round-tripping at the extremes the
//! registry actually produces (`u64` counters, negative and fractional
//! gauges).

use rsn_obs::json::{self, Json};

fn roundtrip(v: &Json) -> Json {
    json::parse(&v.to_string()).expect("writer output parses")
}

#[test]
fn escaped_strings_roundtrip() {
    for s in [
        "plain",
        "with \"quotes\" inside",
        "back\\slash",
        "line\nbreak\ttab\rreturn",
        "control \u{1} \u{1f} chars",
        "unicode: µs → 3·2^k 🧪",
        "",
    ] {
        let v = Json::Str(s.to_string());
        assert_eq!(roundtrip(&v), v, "{s:?}");
    }
    // Explicit escape forms the writer must produce.
    assert_eq!(Json::Str("a\"b".into()).to_string(), r#""a\"b""#);
    assert_eq!(Json::Str("a\\b".into()).to_string(), r#""a\\b""#);
    assert_eq!(Json::Str("\u{1}".into()).to_string(), "\"\\u0001\"");
}

#[test]
fn parser_handles_unicode_escapes() {
    let v = json::parse(r#""µs and A""#).expect("parses");
    assert_eq!(v.as_str(), Some("µs and A"));
}

#[test]
fn nested_arrays_roundtrip() {
    let v = json::parse("[[1, [2, [3, []]]], [], [[[]]]]").expect("parses");
    assert_eq!(roundtrip(&v), v);
    let inner = v.as_arr().unwrap()[0].as_arr().unwrap()[1]
        .as_arr()
        .unwrap();
    assert_eq!(inner[0].as_f64(), Some(2.0));
    // Arrays nested inside objects inside arrays.
    let mixed = json::parse(r#"[{"a": [1, {"b": []}]}]"#).expect("parses");
    assert_eq!(roundtrip(&mixed), mixed);
}

#[test]
fn u64_max_counter_survives_as_f64() {
    // Counters serialize through f64, so u64::MAX lands on the nearest
    // representable float (2^64). The wire value must parse back to
    // exactly that float — large magnitudes must not fall into the
    // integer-formatting fast path and truncate.
    let as_f64 = u64::MAX as f64;
    let v = Json::Num(as_f64);
    let text = v.to_string();
    let back = json::parse(&text).expect("parses");
    assert_eq!(back.as_f64(), Some(as_f64), "wire form {text}");
    // Values within f64's exact-integer range survive bit-exactly.
    for exact in [0u64, 1, (1 << 53) - 1] {
        let v = Json::Num(exact as f64);
        assert_eq!(roundtrip(&v).as_f64(), Some(exact as f64));
    }
}

#[test]
fn negative_and_fractional_gauges_roundtrip() {
    for g in [-1.0, -0.25, 0.1, 3.5e-9, -2.75e12, 1234.5678, f64::MIN] {
        let v = Json::Num(g);
        assert_eq!(roundtrip(&v).as_f64(), Some(g), "{g}");
    }
    // Non-finite gauges degrade to null rather than emitting invalid JSON.
    assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
}

#[test]
fn malformed_documents_are_rejected() {
    for bad in [
        "",
        "{",
        "[1, 2",
        "{\"a\" 1}",
        "\"unterminated",
        "[1] trailing",
        "{\"a\": 01x}",
    ] {
        assert!(json::parse(bad).is_err(), "{bad:?} should not parse");
    }
}

#[test]
fn megabyte_string_parses_in_linear_time() {
    // Parsing must stay linear in the string length: a quadratic parse of
    // this 1 MB value takes tens of seconds and a linear one milliseconds,
    // so 1 s leaves a debug build on a slow host plenty of room.
    let long: String = "abc µs \\\" 🧪 "
        .repeat(1 << 17)
        .chars()
        .take(1 << 20)
        .collect();
    let mut doc = Json::obj();
    doc.set("s", Json::Str(long.clone()));
    let text = doc.to_string();
    assert!(text.len() >= 1 << 20);
    let start = std::time::Instant::now();
    let parsed = json::parse(&text).expect("parses");
    let elapsed = start.elapsed();
    assert_eq!(parsed.get("s").and_then(Json::as_str), Some(long.as_str()));
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "parsing a 1 MB string took {elapsed:?}"
    );
}
