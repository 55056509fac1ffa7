//! A minimal JSON value model, parser and writer — just enough for the
//! self-contained repro artifacts (`DST_repro_*.json`) this crate emits
//! and replays. The implementation lives in `storm-telemetry` (shared
//! with the cluster checkpoint format); this module re-exports it under
//! the crate-local path the repro codec uses.

pub use storm_core::telemetry::json::{num, parse, render, Value};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_document() {
        let doc = Value::Obj(vec![
            ("name".into(), Value::Str("two-node \"launch\"".into())),
            ("seed".into(), num(u64::MAX)),
            ("delta".into(), num(-42)),
            (
                "ties".into(),
                Value::Arr(vec![num(0), num(3), Value::Null, Value::Bool(true)]),
            ),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        let text = render(&doc);
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        // 64-bit integers survive exactly (no f64 round-trip).
        assert_eq!(back.req_u64("seed").unwrap(), u64::MAX);
        assert_eq!(back.get("delta").unwrap().as_i64(), Some(-42));
        assert_eq!(back.req_str("name").unwrap(), "two-node \"launch\"");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , \"x\\n\\u0041\" ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_str(),
            Some("x\nA")
        );
        assert_eq!(v.get("b"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        let missing = Value::Obj(vec![]);
        assert!(missing.req_u64("absent").is_err());
    }
}
