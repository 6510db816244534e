//! Property tests on the JSON module: render/parse round-trips at every
//! inline depth, the parser never panics on arbitrary or truncated input
//! and reports a typed error instead, and the committed result documents
//! re-render byte for byte.

use bounce_harness::json::{self, Json, ParseError};
use proptest::prelude::*;
use std::path::Path;

/// Characters that exercise every escape path of the renderer.
const STR_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '—',
    '𝄞',
];
const NUM_TOKENS: &[&str] = &[
    "0", "-0", "7", "-12", "3.250", "1.234e6", "5E-3", "1e+9", "0.000046",
];
/// Alphabet of the random-input corpus: JSON punctuation, escapes,
/// digits, letters, space and minus.
const NOISE: &[u8] = b"{}[]\":,\\u0123456789abcdefghijklmnopqrstuvwxyz -";

fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn string(rng: &mut TestRng) -> String {
    let len = below(rng, 8);
    (0..len)
        .map(|_| STR_CHARS[below(rng, STR_CHARS.len())])
        .collect()
}

fn tree(rng: &mut TestRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match below(rng, kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 => Json::Num(NUM_TOKENS[below(rng, NUM_TOKENS.len())].to_string()),
        3 => Json::Str(string(rng)),
        4 => Json::Arr((0..below(rng, 4)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..below(rng, 4))
                .map(|_| (string(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Random documents up to `depth` levels of containers.
struct Tree {
    depth: u32,
}

impl Strategy for Tree {
    type Value = Json;
    fn sample(&self, rng: &mut TestRng) -> Json {
        tree(rng, self.depth)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_then_parse_round_trips_at_every_inline_depth(v in Tree { depth: 5 }) {
        for d in 0..=6 {
            let text = json::render(&v, d);
            prop_assert_eq!(json::parse(&text), Ok(v.clone()), "inline depth {}: {}", d, text);
        }
    }

    #[test]
    fn random_input_never_panics(ix in collection::vec(0..NOISE.len(), 0..64)) {
        let text: String = ix.iter().map(|&i| NOISE[i] as char).collect();
        match json::parse(&text) {
            Ok(v) => prop_assert_eq!(json::parse(&json::render(&v, 1)), Ok(v)),
            Err(e) => prop_assert!(e.offset <= text.len(), "{e} in {text:?}"),
        }
    }

    #[test]
    fn every_prefix_of_a_document_parses_without_panicking(
        v in Tree { depth: 3 },
        d in 0usize..4,
    ) {
        let text = json::render(&v, d);
        let delimited = matches!(v, Json::Arr(_) | Json::Obj(_) | Json::Str(_));
        for (i, _) in text.char_indices() {
            let prefix = &text[..i];
            // A truncated container or string can never be complete.
            if json::parse(prefix).is_ok() && delimited {
                prop_assert_eq!(prefix.trim_end(), text.trim_end());
            }
        }
    }
}

/// The reason and byte offset `parse` reports for `text`.
fn err(text: &str) -> (&'static str, usize) {
    let e = json::parse(text).unwrap_err();
    (e.reason, e.offset)
}

#[test]
fn malformed_input_gives_typed_errors() {
    const END: &str = "unexpected end of input";
    const CHAR: &str = "unexpected character";
    assert_eq!(err(""), (END, 0));
    assert_eq!(err("[1, 2"), (END, 5));
    assert_eq!(err("{\"a\": \"b"), (END, 8));
    assert_eq!(err("[1,]"), (CHAR, 3));
    assert_eq!(err("[1 2]"), (CHAR, 3));
    assert_eq!(err("{\"a\" 1}"), (CHAR, 5));
    assert_eq!(err("{\"a\": 1,}"), (CHAR, 8));
    assert_eq!(err("nul"), (CHAR, 0));
    assert_eq!(err("NaN"), (CHAR, 0));
    assert_eq!(err("-"), ("malformed number", 1));
    assert_eq!(err("1."), ("malformed number", 2));
    assert_eq!(err("1e+"), ("malformed number", 3));
    assert_eq!(err("01"), ("trailing content", 1));
    assert_eq!(err("{} {}"), ("trailing content", 3));
    assert_eq!(err("\"a\u{1}\""), ("unescaped control character", 2));
    // Only the escapes `render` writes are decoded.
    for escape in [r#""\q""#, r#""\u12""#, r#""\/""#, r#""\t""#] {
        assert_eq!(err(escape), ("bad escape", 2), "{escape}");
    }
    assert_eq!(err(r#""\ud800""#).0, "bad escape", "lone surrogate");
    assert_eq!(
        json::parse(r#" ["𝄞 é\"\\\n\u0041\u001f", -0.5e-3, true, false, null] "#),
        Ok(Json::Arr(vec![
            Json::Str("𝄞 é\"\\\nA\u{1f}".into()),
            Json::Num("-0.5e-3".into()),
            Json::Bool(true),
            Json::Bool(false),
            Json::Null,
        ]))
    );
}

#[test]
fn non_finite_numbers_render_as_null() {
    assert_eq!(
        Json::num(1.5, |x| format!("{x:.3}")),
        Json::Num("1.500".into())
    );
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::num(x, |x| format!("{x:.3}")), Json::Null);
    }
}

#[test]
fn nesting_is_capped_at_128() {
    let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
    assert!(json::parse(&deep(128)).is_ok());
    assert_eq!(
        json::parse(&deep(129)),
        Err(ParseError {
            reason: "nesting deeper than 128",
            offset: 128
        })
    );
    let e = json::parse(&"[".repeat(1_000_000)).unwrap_err();
    assert_eq!(e.to_string(), "nesting deeper than 128 at byte 128");
}

#[test]
fn committed_documents_re_render_byte_for_byte() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (name, inline_depth) in [("VALIDATION.json", 2), ("CONFORM_COVERAGE.json", 3)] {
        let text = std::fs::read_to_string(results.join(name)).unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(json::render(&doc, inline_depth), text, "{name}");
    }
}
