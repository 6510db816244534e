//! The one JSON format module. Every document `repro` reads or writes —
//! `VALIDATION.json`, `CONFORM_COVERAGE.json`, `MANIFEST.json` and the
//! `repro sweep` output — is a [`Json`] tree written by [`render`] and
//! read back by [`parse`].
//!
//! Numbers keep their literal token, so the caller chooses the digits
//! (`{:.3}`, [`crate::report::fmt_f64`]) and the rendered bytes are
//! exactly those digits; [`Json::num`] writes a non-finite value as
//! `null`. The parser accepts the JSON grammar with the string escapes
//! [`render`] writes (`\"`, `\\`, `\n`, `\uXXXX`), caps nesting at
//! 128 containers so hostile input cannot exhaust the stack, and
//! reports every failure as a [`ParseError`].

use std::fmt;

/// A JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number as its literal token (e.g. `1.234e6`), which must be a
    /// valid JSON number: build floats with [`Json::num`].
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: `(key, value)` members in order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in the given order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The number `x` written by `token` (e.g. [`crate::report::fmt_f64`]),
    /// or `null` when `x` is NaN or infinite, which JSON cannot express.
    pub fn num(x: f64, token: impl FnOnce(f64) -> String) -> Json {
        if x.is_finite() {
            Json::Num(token(x))
        } else {
            Json::Null
        }
    }

    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(m) = self else { return None };
        m.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }
}

/// Render `v` as a document ending in a newline. Containers nested
/// fewer than `inline_depth` levels deep (the root is level 0) put one
/// child per line at two-space indent; deeper ones render on one line
/// as `{"k": v, ...}` or `[a, b]`.
pub fn render(v: &Json, inline_depth: usize) -> String {
    render_at(v, 0, inline_depth) + "\n"
}

fn render_at(v: &Json, depth: usize, inline_depth: usize) -> String {
    let child = |v: &Json| render_at(v, depth + 1, inline_depth);
    let (open, close, items): (_, _, Vec<String>) = match v {
        Json::Null => return "null".into(),
        Json::Bool(b) => return b.to_string(),
        Json::Num(token) => return token.clone(),
        Json::Str(s) => return quote(s),
        Json::Arr(a) => ('[', ']', a.iter().map(child).collect()),
        Json::Obj(m) => {
            let member = |(k, v): &(String, Json)| format!("{}: {}", quote(k), child(v));
            ('{', '}', m.iter().map(member).collect())
        }
    };
    if depth >= inline_depth {
        return format!("{open}{}{close}", items.join(", "));
    }
    let pad = "  ".repeat(depth);
    let lines: Vec<String> = items.iter().map(|i| format!("\n{pad}  {i}")).collect();
    format!("{open}{}\n{pad}{close}", lines.join(","))
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A [`parse`] failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong, e.g. `"nesting deeper than 128"`.
    pub reason: &'static str,
    /// Byte offset into the input where it went wrong.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

/// Parse one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut rest = text;
    let parsed = value(&mut rest, 0).and_then(|v| {
        ws(&mut rest);
        rest.is_empty().then_some(v).ok_or("trailing content")
    });
    let offset = text.len() - rest.len();
    parsed.map_err(|reason| ParseError { reason, offset })
}

/// Deepest container nesting [`parse`] accepts.
const MAX_DEPTH: usize = 128;
const END: &str = "unexpected end of input";
const BAD_ESCAPE: &str = "bad escape";

/// A parse step: on failure the cursor is left where it went wrong.
type Step<T> = Result<T, &'static str>;

fn ws(s: &mut &str) {
    *s = s.trim_start_matches([' ', '\t', '\n', '\r']);
}

/// Consume `prefix` if it comes next.
fn skip(s: &mut &str, prefix: &str) -> bool {
    s.strip_prefix(prefix).map(|rest| *s = rest).is_some()
}

/// Skip whitespace, then consume `prefix`.
fn expect(s: &mut &str, prefix: &str) -> Step<()> {
    ws(s);
    match (skip(s, prefix), s.is_empty()) {
        (true, _) => Ok(()),
        (false, true) => Err(END),
        (false, false) => Err("unexpected character"),
    }
}

/// A value nested inside `depth` containers.
fn value(s: &mut &str, depth: usize) -> Step<Json> {
    ws(s);
    if s.starts_with(['[', '{']) && depth == MAX_DEPTH {
        Err("nesting deeper than 128")
    } else if skip(s, "[") {
        seq(s, "]", |s| value(s, depth + 1)).map(Json::Arr)
    } else if skip(s, "{") {
        let member = |s: &mut &str| {
            let key = string(s)?;
            expect(s, ":")?;
            Ok((key, value(s, depth + 1)?))
        };
        seq(s, "}", member).map(Json::Obj)
    } else if s.starts_with('"') {
        string(s).map(Json::Str)
    } else if s.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
        number(s)
    } else if skip(s, "true") {
        Ok(Json::Bool(true))
    } else if skip(s, "false") {
        Ok(Json::Bool(false))
    } else {
        expect(s, "null").map(|()| Json::Null)
    }
}

/// The items of a container after its opening bracket, through `close`.
fn seq<T>(s: &mut &str, close: &str, mut item: impl FnMut(&mut &str) -> Step<T>) -> Step<Vec<T>> {
    let mut items = Vec::new();
    loop {
        ws(s);
        if skip(s, close) {
            return Ok(items);
        } else if !items.is_empty() {
            expect(s, ",")?;
        }
        items.push(item(s)?);
    }
}

fn number(s: &mut &str) -> Step<Json> {
    let start = *s;
    let digits = |s: &mut &str| {
        let rest = s.trim_start_matches(|c: char| c.is_ascii_digit());
        std::mem::replace(s, rest).len() > rest.len()
    };
    skip(s, "-");
    let int = skip(s, "0") || digits(s);
    let frac = !skip(s, ".") || digits(s);
    let exp = !(skip(s, "e") || skip(s, "E")) || {
        let _ = skip(s, "+") || skip(s, "-");
        digits(s)
    };
    if !(int && frac && exp) {
        return Err("malformed number");
    }
    Ok(Json::Num(start[..start.len() - s.len()].to_string()))
}

fn string(s: &mut &str) -> Step<String> {
    expect(s, "\"")?;
    let mut out = String::new();
    loop {
        let run = s.find(|c: char| c == '"' || c == '\\' || c < ' ');
        let (text, rest) = s.split_at(run.unwrap_or(s.len()));
        out.push_str(text);
        *s = rest;
        if skip(s, "\"") {
            return Ok(out);
        } else if s.is_empty() {
            return Err(END);
        } else if !skip(s, "\\") {
            return Err("unescaped control character");
        }
        out.push(escape(s)?);
    }
}

/// The character an escape (after its `\`) stands for. Only the escapes
/// [`render`] writes are accepted: `\"`, `\\`, `\n` and `\uXXXX`.
fn escape(s: &mut &str) -> Step<char> {
    for (tag, c) in [("\"", '"'), ("\\", '\\'), ("n", '\n')] {
        if skip(s, tag) {
            return Ok(c);
        }
    }
    let hex = s.strip_prefix('u').and_then(|r| r.get(..4));
    let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
    let code = u32::from_str_radix(hex.ok_or(BAD_ESCAPE)?, 16).expect("four hex digits");
    *s = &s[5..];
    // A surrogate half is not a character.
    char::from_u32(code).ok_or(BAD_ESCAPE)
}
