//! Hand-rolled JSON: a tiny writer and validator.
//!
//! The workspace stays registry-independent (no serde), so events and
//! snapshots are rendered by this module. Output is plain UTF-8 JSON with
//! escaped strings and no trailing separators; the [`validate`] parser is
//! the test oracle for "every line the recorder writes is valid JSON".

use std::borrow::BorrowMut;
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes). The scan
/// for bytes that need escaping has no early exit so that it unrolls.
pub fn write_escaped(out: &mut String, s: &str) {
    let clean = |ok, b| ok & (b >= 0x20) & (b != b'"') & (b != b'\\');
    out.push('"');
    if s.bytes().fold(true, clean) {
        out.push_str(s);
    } else {
        write_escaping(out, s);
    }
    out.push('"');
}

fn write_escaping(out: &mut String, s: &str) {
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

/// Appends `value` in decimal: the one integer formatter of the event
/// path, at under half the cost of `core::fmt`'s. Two digits per append, and
/// each append of constant length (a computed length is a `memcpy` call).
pub(crate) fn write_u64(out: &mut String, value: u64) {
    const PAIRS: &str = "\
        00010203040506070809101112131415161718192021222324\
        25262728293031323334353637383940414243444546474849\
        50515253545556575859606162636465666768697071727374\
        75767778798081828384858687888990919293949596979899";
    if value >= 100 {
        write_u64(out, value / 100);
    }
    let at = 2 * (value % 100) as usize;
    if value >= 10 {
        out.push_str(&PAIRS[at..at + 2]);
    } else {
        out.push_str(&PAIRS[at + 1..at + 2]);
    }
}

/// A key known at compile time, as the one literal that goes before its
/// value: `,"name":`, or `{"name":` for an object's first field, so a field
/// costs one append for its key and the rest for its value. A key may also
/// carry fields whose values are literals, such as `,"class":"read"`. Made
/// by [`json_key!`](crate::json_key).
#[derive(Debug, Clone, Copy)]
pub struct Key(&'static str);

impl Key {
    /// `literal`, built by [`json_key!`](crate::json_key) from `parts`.
    /// Evaluated at compile time, where it fails the build if a part needs
    /// escaping: the literal goes out as it is.
    #[doc(hidden)]
    pub const fn new(literal: &'static str, parts: &[&str]) -> Key {
        let mut i = 0;
        while i < parts.len() {
            let bytes = parts[i].as_bytes();
            let mut j = 0;
            while j < bytes.len() {
                let b = bytes[j];
                assert!(
                    b >= 0x20 && b != b'"' && b != b'\\',
                    "a json_key! literal needs escaping"
                );
                j += 1;
            }
            i += 1;
        }
        Key(literal)
    }
}

/// Builds a [`json::Key`](crate::json::Key), one literal:
///
/// - `json_key!("name")` is `,"name":`;
/// - `json_key!("name": "value")` is `,"name":"value"`, a field whose value
///   is a literal, and `json_key!("name": "value", "next")` is that field
///   and the key after it, `,"name":"value","next":`;
/// - `json_key!({ ... })` is the same with `{` in place of the leading
///   comma, and starts an object.
///
/// Every name and value is checked at compile time to need no escaping:
///
/// ```compile_fail
/// let key = mc_telemetry::json_key!("needs \"escaping\"");
/// ```
///
/// ```
/// use mc_telemetry::{json::Obj, json_key};
///
/// let mut obj = Obj::new();
/// obj.u64_field(json_key!({"ev": "op", "pid"}), 3)
///     .bool_field(json_key!("class": "read", "performed"), true);
/// assert_eq!(
///     obj.finish(),
///     r#"{"ev":"op","pid":3,"class":"read","performed":true}"#
/// );
/// ```
#[macro_export]
macro_rules! json_key {
    ({ $($key:tt)+ }) => {
        $crate::json_key!(@ "{" $($key)+)
    };
    (@ $open:literal $name:literal $(: $value:literal $(, $next:literal)?)?) => {{
        const KEY: $crate::json::Key = $crate::json::Key::new(
            concat!(
                $open, "\"", $name, "\":"
                $(, "\"", $value, "\"" $(, ",\"", $next, "\":")?)?
            ),
            &[$name $(, $value $(, $next)?)?],
        );
        KEY
    }};
    ($($key:tt)+) => {
        $crate::json_key!(@ "," $($key)+)
    };
}

/// An in-progress JSON object, rendered field by field into its own
/// buffer ([`Obj::new`]) or onto the end of the caller's ([`Obj::append_to`]).
/// Every key is a [`Key`]: the first field's opens the object (`{"name":`)
/// and each later one carries the comma before it (`,"name":`), so an
/// object has at least one field, and [`finish`](Obj::finish) appends `}`.
/// Keys known only at runtime, such as metric names, are escaped on a
/// separate path (`Snapshot::to_json`).
///
/// ```
/// use mc_telemetry::{json::Obj, json_key};
///
/// let mut obj = Obj::new();
/// obj.str_field(json_key!({"ev"}), "decided")
///     .u64_field(json_key!("pid"), 3);
/// assert_eq!(obj.finish(), r#"{"ev":"decided","pid":3}"#);
/// ```
#[derive(Debug, Default)]
pub struct Obj<B = String> {
    buf: B,
}

impl Obj {
    /// Starts an object in a buffer of its own.
    pub fn new() -> Obj {
        Obj::default()
    }
}

impl<'a> Obj<&'a mut String> {
    /// Starts an object at the end of `out`: a caller that reuses `out`
    /// renders without allocating.
    #[inline]
    pub fn append_to(out: &'a mut String) -> Self {
        Obj { buf: out }
    }
}

impl<B: BorrowMut<String>> Obj<B> {
    #[inline(always)]
    fn key(&mut self, key: Key) -> &mut String {
        let buf = self.buf.borrow_mut();
        buf.push_str(key.0);
        buf
    }

    /// Adds the fields `key` carries with their values
    /// (`json_key!("kind": "ratifier")`).
    #[inline(always)]
    pub(crate) fn fields(&mut self, key: Key) -> &mut Self {
        self.key(key);
        self
    }

    /// Adds a string field.
    pub fn str_field(&mut self, key: Key, value: &str) -> &mut Self {
        write_escaped(self.key(key), value);
        self
    }

    /// Adds an unsigned integer field.
    #[inline(always)]
    pub fn u64_field(&mut self, key: Key, value: u64) -> &mut Self {
        write_u64(self.key(key), value);
        self
    }

    /// Adds a float field (`null` for non-finite values).
    pub fn f64_field(&mut self, key: Key, value: f64) -> &mut Self {
        let buf = self.key(key);
        if value.is_finite() {
            // `{:?}` keeps a decimal point or exponent so the value reads
            // back as a float.
            let _ = write!(buf, "{value:?}");
        } else {
            buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    #[inline(always)]
    pub fn bool_field(&mut self, key: Key, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw_field(&mut self, key: Key, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// Adds an array of unsigned integers.
    pub fn u64_array_field(&mut self, key: Key, values: &[u64]) -> &mut Self {
        let buf = self.key(key);
        buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            write_u64(buf, *v);
        }
        buf.push(']');
        self
    }

    /// Closes the object and returns the buffer it was rendered into.
    #[inline]
    pub fn finish(mut self) -> B {
        self.buf.borrow_mut().push('}');
        self.buf
    }
}

/// Appends an object whose keys are only known at runtime, such as metric
/// names: `{"name":value,...}`, each name escaped and each value appended
/// by `value`, or `{}` when there are none.
pub(crate) fn write_map<T>(
    out: &mut String,
    entries: impl IntoIterator<Item = (&'static str, T)>,
    mut value: impl FnMut(&mut String, T),
) {
    let mut sep = '{';
    for (name, entry) in entries {
        out.push(sep);
        write_escaped(out, name);
        out.push(':');
        value(out, entry);
        sep = ',';
    }
    if sep == '{' {
        out.push('{');
    }
    out.push('}');
}

/// Checks that `input` is exactly one valid JSON value.
///
/// # Errors
///
/// A human-readable description of the first syntax error, with its byte
/// offset.
pub fn validate(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, b"true"),
        Some(b'f') => parse_literal(bytes, pos, b"false"),
        Some(b'n') => parse_literal(bytes, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
        None => Err(format!("unexpected end of input at byte {}", *pos)),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        skip_ws(bytes, pos);
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'[')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'"')?;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match bytes.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("bad \\u escape at byte {}", *pos)),
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            0x00..=0x1F => return Err(format!("unescaped control byte at {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while matches!(bytes.get(*pos), Some(d) if d.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("expected digits at byte {}", *pos));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(bytes.get(*pos), Some(d) if d.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("expected fraction digits at byte {}", *pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(bytes.get(*pos), Some(d) if d.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("expected exponent digits at byte {}", *pos));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_render_compactly() {
        let mut obj = Obj::new();
        obj.str_field(json_key!({ "ev" }), "op")
            .u64_field(json_key!("pid"), 2)
            .bool_field(json_key!("ok"), true)
            .f64_field(json_key!("p"), 0.5)
            .u64_array_field(json_key!("per"), &[1, 2, 3])
            .u64_array_field(json_key!("none"), &[])
            .bool_field(json_key!("class": "read", "performed"), false)
            .fields(json_key!("kind": "ratifier"));
        let json = obj.finish();
        assert_eq!(
            json,
            r#"{"ev":"op","pid":2,"ok":true,"p":0.5,"per":[1,2,3],"none":[],"class":"read","performed":false,"kind":"ratifier"}"#
        );
        validate(&json).unwrap();
    }

    #[test]
    fn empty_object_is_valid() {
        let mut out = String::new();
        write_map(&mut out, Vec::<(&str, u64)>::new(), write_u64);
        assert_eq!(out, "{}");
        validate(&out).unwrap();
    }

    #[test]
    fn runtime_keys_are_escaped() {
        let mut out = String::new();
        write_map(&mut out, [("a\"b", 1), ("c", 2)], write_u64);
        assert_eq!(out, r#"{"a\"b":1,"c":2}"#);
        validate(&out).unwrap();
    }

    #[test]
    fn strings_escape() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
        validate(&out).unwrap();
    }

    #[test]
    fn fast_and_slow_escape_paths_agree() {
        let cases = [
            ("", true),
            ("op", true),
            ("prob_write", true),
            ("na\u{ef}ve \u{3b4}\u{302} \u{22a5}", true),
            ("\u{7f}", true),
            ("a\"b", false),
            ("back\\slash", false),
            ("tab\there", false),
            ("\u{1}", false),
            ("\u{e9}\"", false),
            ("x\u{1f}", false),
        ];
        for (s, is_clean) in cases {
            let mut fast = String::new();
            write_escaped(&mut fast, s);
            let mut slow = String::from("\"");
            write_escaping(&mut slow, s);
            slow.push('"');
            assert_eq!(fast, slow, "{s:?}");
            assert_eq!(fast == format!("\"{s}\""), is_clean, "{s:?}");
            validate(&fast).unwrap_or_else(|e| panic!("{fast}: {e}"));
        }
    }

    #[test]
    fn integers_match_the_standard_formatter() {
        let mut edges = vec![
            0,
            9,
            10,
            99,
            100,
            101,
            999,
            1_000,
            12_345,
            u64::MAX - 1,
            u64::MAX,
        ];
        edges.extend((1..20).flat_map(|e| [10u64.pow(e) - 1, 10u64.pow(e), 10u64.pow(e) + 1]));
        for value in edges {
            let mut out = String::from("x");
            write_u64(&mut out, value);
            assert_eq!(out, format!("x{value}"));
        }
    }

    #[test]
    fn append_to_keeps_what_the_buffer_holds() {
        let mut out = String::from("[");
        let mut obj = Obj::append_to(&mut out);
        obj.u64_field(json_key!({ "n" }), 1);
        obj.finish().push(',');
        let mut obj = Obj::append_to(&mut out);
        obj.raw_field(json_key!({ "a" }), "[1,2]")
            .str_field(json_key!("b"), ",");
        obj.finish().push(']');
        assert_eq!(out, r#"[{"n":1},{"a":[1,2],"b":","}]"#);
        validate(&out).unwrap();
    }

    #[test]
    fn floats_read_back_as_floats() {
        let mut obj = Obj::new();
        obj.f64_field(json_key!({ "x" }), 2.0)
            .f64_field(json_key!("bad"), f64::NAN);
        let json = obj.finish();
        assert_eq!(json, r#"{"x":2.0,"bad":null}"#);
        validate(&json).unwrap();
    }

    #[test]
    fn validator_accepts_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e-3",
            r#"{"a":[1,{"b":"c"},null]}"#,
            "  [1, 2]  ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_garbage() {
        for bad in [
            "",
            "{",
            "{]",
            r#"{"a"}"#,
            "[1,]",
            "01x",
            r#""unterminated"#,
            "{} trailing",
            "1.",
            "nul",
        ] {
            assert!(validate(bad).is_err(), "{bad} unexpectedly valid");
        }
    }
}
