//! The JSON-lines codec in `minnet::jsonl`: what it writes it reads
//! back exactly, and no line — however cut or mutated — makes the
//! reader panic, recurse without bound or take more than its fixed
//! member array.

use minnet::jsonl::{esc, Obj, MAX_MEMBERS};
use minnet::service::{JobSpec, Request, Response, ServiceStats};
use proptest::prelude::*;

/// One character of a class chosen by `class`: ASCII (controls, quotes
/// and backslashes included), the rest of the BMP, or beyond it.
fn pick(class: u8, x: u32) -> char {
    let code = match class {
        0 => x % 0x80,
        1 => [u32::from('"'), u32::from('\\'), 0x7f, x % 0x20][x as usize % 4],
        2 => 0x80 + x % (0x1_0000 - 0x80),
        _ => 0x1_0000 + x % (0x11_0000 - 0x1_0000),
    };
    // A surrogate code point is no `char`; fold it onto its BMP mirror.
    char::from_u32(code).unwrap_or_else(|| char::from_u32(code - 0x800).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn escaped_strings_read_back_exactly(
        chars in proptest::collection::vec((0u8..4, 0u32..0x11_0000), 0..48),
    ) {
        let s: String = chars.into_iter().map(|(class, x)| pick(class, x)).collect();
        let line = format!("{{\"s\":\"{}\",\"t\":\"{}\"}}", esc(&s), esc("after"));
        let o = Obj::parse(&line).expect("an escaped string is valid JSON");
        prop_assert_eq!(o.str("s").as_deref(), Some(s.as_str()));
        prop_assert_eq!(o.str("t").as_deref(), Some("after"));
    }

    // Strings holding quotes, backslashes and brackets, at every
    // alignment, must not move where a nested value ends.
    #[test]
    fn a_nested_value_ends_where_it_ends(
        chars in proptest::collection::vec((0u8..4, 0u32..0x11_0000), 0..48),
        pad in 0usize..16,
        cut in 0usize..48,
    ) {
        let s: String = chars.into_iter().map(|(class, x)| pick(class, x)).collect();
        let (s, t) = s.split_at(s.char_indices().nth(cut).map_or(s.len(), |(i, _)| i));
        let nested = format!(
            "[{{\"k\":\"{}\",\"]\":[]}},{}[\"{}\",{{}}]]",
            esc(s),
            " ".repeat(pad),
            esc(t)
        );
        let line = format!("{{{}\"a\":{nested},\"b\":1}}", " ".repeat(pad));
        let o = Obj::parse(&line).expect("valid JSON");
        prop_assert_eq!(o.raw("a"), Some(nested.as_str()));
        prop_assert_eq!(o.u64("b"), Some(1));
    }

    #[test]
    fn integers_and_bit_patterns_read_back_exactly(n in 0u64..u64::MAX, bits in 0u64..u64::MAX) {
        let line = format!("{{\"n\":{n},\"f\":\"{bits}\",\"a\":[\"{bits}\",\"{n}\"]}}");
        let o = Obj::parse(&line).unwrap();
        prop_assert_eq!(o.u64("n"), Some(n));
        prop_assert_eq!(o.bits("f").map(f64::to_bits), Some(bits));
        let array: Vec<u64> = o.bits_array("a").unwrap().into_iter().map(f64::to_bits).collect();
        prop_assert_eq!(array, vec![bits, n]);
    }
}

#[test]
fn extreme_integers_and_floats_round_trip() {
    let line = format!("{{\"max\":{}}}", u64::MAX);
    assert_eq!(Obj::parse(&line).unwrap().u64("max"), Some(u64::MAX));
    let quiet_nan_with_payload = f64::from_bits(0x7ff8_0000_dead_beef);
    let signalling_nan = f64::from_bits(0xfff0_0000_0000_0001);
    let floats = [
        quiet_nan_with_payload,
        signalling_nan,
        -0.0,
        0.0,
        f64::from_bits(1), // the smallest subnormal
        -f64::MIN_POSITIVE / 2.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for f in floats {
        let line = format!("{{\"f\":\"{}\"}}", f.to_bits());
        let back = Obj::parse(&line).unwrap().bits("f").unwrap();
        assert_eq!(back.to_bits(), f.to_bits(), "{f:?}");
    }
}

#[test]
fn raw_returns_a_nested_value_byte_for_byte() {
    let nested = "{ \"x\" : [1, {\"y\":\"]}\\\"\"}, [], -2.5e3] }";
    let line = format!("{{\"a\":1, \"r\" :{nested} ,\"b\":[[]]}}");
    let o = Obj::parse(&line).unwrap();
    assert_eq!(o.raw("r"), Some(nested));
    assert_eq!(o.raw("b"), Some("[[]]"));
    let r = o.obj("r").unwrap();
    assert_eq!(r.raw("x"), Some("[1, {\"y\":\"]}\\\"\"}, [], -2.5e3]"));
    assert!(o.obj("b").is_none(), "an array is no object");
}

/// Every line of the v1 checkpoint fixture and every pinned wire line.
fn corpus() -> Vec<String> {
    let mut lines: Vec<String> = include_str!("fixtures/replicated_curve_v1.ckpt.jsonl")
        .lines()
        .map(String::from)
        .collect();
    let spec = JobSpec {
        sizes: "fixed:32".into(),
        loads: vec![0.15, 0.3],
        ..JobSpec::default()
    };
    let requests = [
        Request::Submit {
            client: "c\"1".into(),
            spec,
        },
        Request::Wait {
            job_id: "abc123".into(),
            wait_ms: 2_500,
        },
        Request::Ping,
    ];
    lines.extend(requests.iter().map(Request::to_line));
    let responses = [
        Response::JobResult {
            job_id: "abc123".into(),
            result: format!("{{\"v\":1,\"points\":[{}]}}", lines[1]),
        },
        Response::Stats(ServiceStats::default()),
        Response::Error {
            kind: "config".into(),
            message: "bad \"thing\"\n".into(),
        },
    ];
    lines.extend(responses.iter().map(Response::to_line));
    lines
}

/// Read `line` every way the workspace reads one. Only panics matter.
fn read_every_way(line: &str) {
    if let Some(o) = Obj::parse(line) {
        for key in [
            "task",
            "report",
            "outcome",
            "result",
            "spec",
            "op",
            "status",
            "loads_bits",
        ] {
            let _ = (
                o.u64(key),
                o.str(key),
                o.bool(key),
                o.bits(key),
                o.bits_array(key),
            );
            if let Some(inner) = o.obj(key) {
                let _ = (inner.bits("offered_bits"), inner.bits_array("util_bits"));
                let _ = inner.obj("points");
            }
        }
    }
    let _ = (
        Request::parse(line),
        Response::parse(line),
        JobSpec::from_json(line),
    );
}

#[test]
fn no_cut_or_single_byte_mutation_panics_the_reader() {
    for line in corpus() {
        assert!(Obj::parse(&line).is_some(), "corpus line refused: {line}");
        let bytes = line.as_bytes();
        for cut in 0..bytes.len() {
            read_every_way(&line[..cut]);
        }
        for at in 0..bytes.len() {
            for b in 0u8..0x80 {
                let mut mutated = bytes.to_vec();
                mutated[at] = b;
                read_every_way(std::str::from_utf8(&mutated).unwrap());
            }
        }
    }
}

#[test]
fn a_flood_of_brackets_and_an_oversized_object_are_refused() {
    // The daemon's longest accepted line: 1 MiB.
    let flood = "[".repeat(1 << 20);
    assert!(Obj::parse(&flood).is_none());
    assert!(Obj::parse(&format!("{{\"a\":{flood}")).is_none());
    let deep_objects = "{\"a\":".repeat(1 << 17);
    assert!(Obj::parse(&deep_objects).is_none());
    assert!(Request::parse(&format!("{{\"op\":\"ping\",\"x\":{flood}}}")).is_none());

    let members = |n: usize| {
        let body: Vec<String> = (0..n).map(|i| format!("\"k{i}\":{i}")).collect();
        format!("{{{}}}", body.join(","))
    };
    let full = members(MAX_MEMBERS);
    assert_eq!(Obj::parse(&full).unwrap().u64("k31"), Some(31));
    assert!(Obj::parse(&members(MAX_MEMBERS + 1)).is_none());
}
