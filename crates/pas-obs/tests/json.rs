//! Properties of the one JSON codec every crate reads and writes
//! through: no input makes an accessor panic, every string survives a
//! `quote` → `find_string` round trip, and key lookup sees only the
//! top level of an object.

use pas_obs::json::{find_bool, find_f64, find_string, find_u64, find_u64_array, quote, Value};
use proptest::prelude::*;

const STRUCTURE: &[u8] = b"{}[]\":,\\ k0-.enu";

/// Bytes biased towards JSON structure, so generated inputs reach deep
/// into the walker instead of failing on their first byte.
fn json_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        (0u16..256).prop_map(|b| b as u8),
        (0..STRUCTURE.len()).prop_map(|i| STRUCTURE[i]),
    ]
}

/// Characters covering every escaping class: quotes, backslashes,
/// control characters, ASCII, and non-ASCII up to the astral planes.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        Just('"'),
        Just('\\'),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        (0x80u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// Touch every accessor and walk the whole value tree.
fn exercise(text: &str) {
    let _ = find_u64(text, "k");
    let _ = find_f64(text, "k");
    let _ = find_bool(text, "k");
    let _ = find_string(text, "k");
    let _ = find_u64_array(text, "k");
    let mut stack: Vec<Value> = Value::parse(text).into_iter().collect();
    while let Some(v) = stack.pop() {
        let _ = (v.as_u64(), v.as_f64(), v.as_bool(), v.as_string());
        let _ = (v.as_u64_array(), v.as_f64_array());
        stack.extend(v.elements().into_iter().flatten());
        stack.extend(v.members().into_iter().flatten().map(|(_, m)| m));
    }
}

proptest! {
    /// (a) Arbitrary bytes, lossily decoded, never panic any accessor —
    /// bare, and behind a valid `{"k":` prefix.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(json_byte(), 0..96)) {
        let text = String::from_utf8_lossy(&bytes);
        exercise(&text);
        exercise(&format!("{{\"k\":{text}"));
        exercise(&format!("[{text}]"));
    }

    /// (b) Every string round-trips through the escaper and the reader.
    #[test]
    fn quoted_strings_round_trip(s in any_string()) {
        prop_assert_eq!(find_string(&format!("{{\"k\":{}}}", quote(&s)), "k"), Some(s.clone()));
        // Keys round-trip too.
        let doc = format!("{{{}:7}}", quote(&s));
        prop_assert_eq!(find_u64(&doc, &s), Some(7));
    }

    /// (c) A key that appears only in a nested object or inside a string
    /// value is not a top-level key; a later top-level one is found.
    #[test]
    fn nested_and_quoted_keys_are_not_top_level(key in any_string(), n in 0u64..1000) {
        let k = quote(&key);
        let hidden = format!(
            "{{\"outer\":{{{k}:{n}}},\"text\":{},\"list\":[{{{k}:{n}}},{k}],\"deep\":[[{{{k}:[{n}]}}]]",
            quote(&format!("{k}:{n}")),
        );
        prop_assert_eq!(find_u64(&format!("{hidden}}}"), &key), None);
        prop_assert_eq!(find_u64(&format!("{hidden},{k}:{}}}", n + 1), &key), Some(n + 1));
    }
}
