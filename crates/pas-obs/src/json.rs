//! The workspace's one JSON codec: a string escaper for the writers and
//! a small value walker for the readers.
//!
//! Every JSON document the workspace exchanges — sink rows, job
//! envelopes, dist control messages, metric history, Chrome traces,
//! profiles — is written by hand around [`quote`] /
//! [`escape_into`] and read back through [`Value`]. The walker borrows
//! the source text and builds no tree: [`Value::get`] scans an object's
//! *top-level* members, skipping each value whole, so a key that only
//! appears inside a nested object or inside a string never matches;
//! [`Value::members`] and [`Value::elements`] iterate objects and arrays.
//! Skipping counts brackets instead of recursing, so deep nesting cannot
//! exhaust the stack, and malformed input reads as absent, never as a
//! panic.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Append `s` to `out` as the body of a JSON string literal (no
/// surrounding quotes): `"`, `\`, `\n`, `\r` and `\t` get their short
/// escapes, other control characters `\u00xx`.
pub fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `s` as a quoted JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// One JSON value, borrowed as its exact source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Value<'a>(&'a str);

impl<'a> Value<'a> {
    /// The value at the start of `text` (leading whitespace skipped,
    /// anything after the value ignored), or `None` when no complete
    /// value starts there.
    pub fn parse(text: &'a str) -> Option<Value<'a>> {
        let text = skip_ws(text);
        value_len(text.as_bytes()).map(|n| Value(&text[..n]))
    }

    /// The value's source text, verbatim.
    pub fn raw(self) -> &'a str {
        self.0
    }

    /// The first top-level member named `key` of an object.
    pub fn get(self, key: &str) -> Option<Value<'a>> {
        self.members()?.find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An object's `(key, value)` members in source order; `None` when
    /// the value is not an object.
    pub fn members(self) -> Option<Members<'a>> {
        self.0.strip_prefix('{').map(Members)
    }

    /// An array's elements in source order; `None` when the value is
    /// not an array.
    pub fn elements(self) -> Option<Elements<'a>> {
        self.0.strip_prefix('[').map(Elements)
    }

    /// An unsigned integer.
    pub fn as_u64(self) -> Option<u64> {
        self.0.parse().ok()
    }

    /// Any number. (`inf`/`NaN` spellings never reach here: they do not
    /// start a value.)
    pub fn as_f64(self) -> Option<f64> {
        self.0.parse().ok()
    }

    /// `true` or `false`.
    pub fn as_bool(self) -> Option<bool> {
        match self.0 {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    /// A string, escapes decoded.
    pub fn as_string(self) -> Option<String> {
        let body = self.0.strip_prefix('"')?.strip_suffix('"')?;
        unescape(body).map(Cow::into_owned)
    }

    /// An array of unsigned integers.
    pub fn as_u64_array(self) -> Option<Vec<u64>> {
        self.elements()?.map(Value::as_u64).collect()
    }

    /// An array of numbers, `null` elements reading as `NaN`.
    pub fn as_f64_array(self) -> Option<Vec<f64>> {
        self.elements()?
            .map(|v| match v.0 {
                "null" => Some(f64::NAN),
                _ => v.as_f64(),
            })
            .collect()
    }
}

/// Iterator over an object's members (see [`Value::members`]). Stops
/// at the closing brace or at the first malformed member.
#[derive(Debug, Clone)]
pub struct Members<'a>(&'a str);

impl<'a> Iterator for Members<'a> {
    type Item = (Cow<'a, str>, Value<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let rest = skip_ws(std::mem::take(&mut self.0));
        if !rest.starts_with('"') {
            return None;
        }
        let key_len = string_len(rest.as_bytes())?;
        let key = unescape(&rest[1..key_len - 1])?;
        let rest = skip_ws(&rest[key_len..]).strip_prefix(':')?;
        let value = Value::parse(rest)?;
        self.0 = after_item(rest, value);
        Some((key, value))
    }
}

/// Iterator over an array's elements (see [`Value::elements`]). Stops
/// at the closing bracket or at the first malformed element.
#[derive(Debug, Clone)]
pub struct Elements<'a>(&'a str);

impl<'a> Iterator for Elements<'a> {
    type Item = Value<'a>;

    fn next(&mut self) -> Option<Value<'a>> {
        let rest = std::mem::take(&mut self.0);
        let value = Value::parse(rest)?;
        self.0 = after_item(rest, value);
        Some(value)
    }
}

/// The text after `value` (which starts `rest` once whitespace is
/// skipped) and its separating comma; empty when no comma follows.
fn after_item<'a>(rest: &'a str, value: Value<'a>) -> &'a str {
    let rest = skip_ws(rest);
    skip_ws(&rest[value.0.len()..])
        .strip_prefix(',')
        .unwrap_or("")
}

/// Extract the top-level `"key": <unsigned int>` of a JSON object.
pub fn find_u64(json: &str, key: &str) -> Option<u64> {
    Value::parse(json)?.get(key)?.as_u64()
}

/// Extract the top-level `"key": <number>` of a JSON object.
pub fn find_f64(json: &str, key: &str) -> Option<f64> {
    Value::parse(json)?.get(key)?.as_f64()
}

/// Extract the top-level `"key": true|false` of a JSON object.
pub fn find_bool(json: &str, key: &str) -> Option<bool> {
    Value::parse(json)?.get(key)?.as_bool()
}

/// Extract the top-level `"key": "string"` of a JSON object, escapes
/// decoded.
pub fn find_string(json: &str, key: &str) -> Option<String> {
    Value::parse(json)?.get(key)?.as_string()
}

/// Extract the top-level `"key": [1, 2, ...]` (unsigned ints) of a JSON
/// object.
pub fn find_u64_array(json: &str, key: &str) -> Option<Vec<u64>> {
    Value::parse(json)?.get(key)?.as_u64_array()
}

fn skip_ws(s: &str) -> &str {
    s.trim_start_matches([' ', '\t', '\n', '\r'])
}

/// Byte length of the value `b` starts with. Containers are skipped by
/// bracket counting (strings skipped whole), so the walk is iterative.
fn value_len(b: &[u8]) -> Option<usize> {
    match *b.first()? {
        b'"' => string_len(b),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut i = 0;
            while i < b.len() {
                match b[i] {
                    b'"' => {
                        i += string_len(&b[i..])?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(i + 1);
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            None
        }
        b't' => b.starts_with(b"true").then_some(4),
        b'f' => b.starts_with(b"false").then_some(5),
        b'n' => b.starts_with(b"null").then_some(4),
        b'-' | b'0'..=b'9' => Some(
            b.iter()
                .position(|c| !matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                .unwrap_or(b.len()),
        ),
        _ => None,
    }
}

/// Byte length of the string literal `b` starts with (`b[0] == b'"'`),
/// closing quote included.
fn string_len(b: &[u8]) -> Option<usize> {
    let mut i = 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Decode the escapes of a string literal's body; `None` on an invalid
/// escape.
fn unescape(body: &str) -> Option<Cow<'_, str>> {
    if !body.contains('\\') {
        return Some(Cow::Borrowed(body));
    }
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            '"' => '"',
            '\\' => '\\',
            '/' => '/',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                let hi = hex4(&mut chars)?;
                if (0xd800..0xdc00).contains(&hi) {
                    // A UTF-16 high surrogate must pair with a low one.
                    if (chars.next()?, chars.next()?) != ('\\', 'u') {
                        return None;
                    }
                    let lo = hex4(&mut chars)?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return None;
                    }
                    char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))?
                } else {
                    char::from_u32(hi)?
                }
            }
            _ => return None,
        });
    }
    Some(Cow::Owned(out))
}

fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    (0..4).try_fold(0, |v, _| Some(v * 16 + chars.next()?.to_digit(16)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanners_decode_flat_envelopes() {
        let body = "{\"id\":42,\"phase\":\"running\",\"ok\":true,\"drain\":false,\
                    \"indices\":[3, 5,8],\"empty\":[],\
                    \"error\":\"boom \\\"quoted\\\"\\n\"}";
        assert_eq!(find_u64(body, "id"), Some(42));
        assert_eq!(find_u64(body, "missing"), None);
        assert_eq!(find_bool(body, "ok"), Some(true));
        assert_eq!(find_bool(body, "drain"), Some(false));
        assert_eq!(find_bool(body, "id"), None);
        assert_eq!(find_string(body, "phase").as_deref(), Some("running"));
        assert_eq!(
            find_string(body, "error").as_deref(),
            Some("boom \"quoted\"\n")
        );
        assert_eq!(find_u64_array(body, "indices"), Some(vec![3, 5, 8]));
        assert_eq!(find_u64_array(body, "empty"), Some(Vec::new()));
        assert_eq!(find_u64_array(body, "phase"), None);
    }

    #[test]
    fn quote_escapes_like_every_writer_did() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(
            quote("\r\t\u{1}\u{1f}\u{7f}é"),
            "\"\\r\\t\\u0001\\u001f\u{7f}é\""
        );
        assert_eq!(quote(""), "\"\"");
    }

    #[test]
    fn walker_iterates_nested_documents() {
        let doc = " {\"a\": {\"k\": 1}, \"b\" : [ {\"k\": 2}, [3], \"x]\" , null ],\
                   \"c\": -1.5e3, \"t\": [1, null, 2.5]} trailing";
        let v = Value::parse(doc).unwrap();
        assert!(v.raw().ends_with("2.5]}"));
        assert_eq!(v.get("k"), None, "nested keys are not top-level");
        assert_eq!(v.get("a").and_then(|a| a.get("k")?.as_u64()), Some(1));
        let b: Vec<&str> = v
            .get("b")
            .unwrap()
            .elements()
            .unwrap()
            .map(Value::raw)
            .collect();
        assert_eq!(b, ["{\"k\": 2}", "[3]", "\"x]\"", "null"]);
        assert_eq!(find_f64(doc, "c"), Some(-1500.0));
        assert_eq!(find_u64(doc, "c"), None);
        let t = v.get("t").and_then(Value::as_f64_array).unwrap();
        assert_eq!((t[0], t[2]), (1.0, 2.5));
        assert!(t[1].is_nan());
        let keys: Vec<String> = v.members().unwrap().map(|(k, _)| k.into_owned()).collect();
        assert_eq!(keys, ["a", "b", "c", "t"]);
    }

    #[test]
    fn unicode_escapes_decode_including_surrogate_pairs() {
        let v = Value::parse("\"\\u00e9\\ud83d\\ude00\\/\"").unwrap();
        assert_eq!(v.as_string().as_deref(), Some("é😀/"));
        assert_eq!(Value::parse("\"\\ud83d\"").unwrap().as_string(), None);
        assert_eq!(Value::parse("\"\\q\"").unwrap().as_string(), None);
    }

    #[test]
    fn malformed_input_reads_as_absent() {
        for bad in [
            "",
            "{",
            "{\"a\":",
            "{\"a\" 1}",
            "[1,",
            "\"open",
            "nul",
            "{\"a\":1,}",
        ] {
            assert_eq!(find_u64(bad, "b"), None, "{bad:?}");
        }
        assert_eq!(find_u64("not json at all", "a"), None);
        let deep = "[".repeat(100_000);
        assert_eq!(Value::parse(&deep), None);
    }
}
