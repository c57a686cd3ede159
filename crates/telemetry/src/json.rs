//! Hand-rolled JSON: a tiny writer and validator.
//!
//! The workspace stays registry-independent (no serde), so events and
//! snapshots are rendered by this module. Output is plain UTF-8 JSON with
//! escaped strings and no trailing separators; the [`validate`] parser is
//! the test oracle for "every line the recorder writes is valid JSON".

use std::borrow::BorrowMut;
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    write_escaped_body(out, s);
    out.push('"');
}

/// [`write_escaped`] without the quotes, which its callers merge into the
/// appends around it: the appends are what rendering costs. Inlined so
/// that over a literal (every key) the scan folds away and the bytes are
/// stored as immediates; it has no early exit so that it unrolls.
#[inline(always)]
fn write_escaped_body(out: &mut String, s: &str) {
    let clean = |ok, b| ok & (b >= 0x20) & (b != b'"') & (b != b'\\');
    if s.bytes().fold(true, clean) {
        out.push_str(s);
    } else {
        write_escaping(out, s);
    }
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
fn write_u64(out: &mut String, value: u64) {
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

/// An in-progress JSON object, rendered field by field into its own
/// buffer ([`Obj::new`]) or onto the end of the caller's ([`Obj::append_to`]).
///
/// ```
/// let mut obj = mc_telemetry::json::Obj::new();
/// obj.str_field("ev", "decided").u64_field("pid", 3);
/// assert_eq!(obj.finish(), r#"{"ev":"decided","pid":3}"#);
/// ```
#[derive(Debug, Default)]
pub struct Obj<B = String> {
    /// `{`, then each field with a comma after it (no "first field?" flag to
    /// carry); [`finish`](Obj::finish) turns the last comma into `}`.
    buf: B,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
        }
    }
}

impl<'a> Obj<&'a mut String> {
    /// Starts an empty object at the end of `out`: a caller that reuses
    /// `out` renders without allocating.
    #[inline]
    pub fn append_to(out: &'a mut String) -> Self {
        out.push('{');
        Obj { buf: out }
    }
}

impl<B: BorrowMut<String>> Obj<B> {
    #[inline(always)]
    fn key(&mut self, key: &str) -> &mut String {
        let buf = self.buf.borrow_mut();
        buf.push('"');
        write_escaped_body(buf, key);
        buf.push_str("\":");
        buf
    }

    /// Adds a string field.
    #[inline(always)]
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        let buf = self.key(key);
        buf.push('"');
        write_escaped_body(buf, value);
        buf.push_str("\",");
        self
    }

    /// Adds an unsigned integer field.
    #[inline(always)]
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        let buf = self.key(key);
        write_u64(buf, value);
        buf.push(',');
        self
    }

    /// Adds a float field (`null` for non-finite values).
    pub fn f64_field(&mut self, key: &str, value: f64) -> &mut Self {
        let buf = self.key(key);
        if value.is_finite() {
            // `{:?}` keeps a decimal point or exponent so the value reads
            // back as a float.
            let _ = write!(buf, "{value:?},");
        } else {
            buf.push_str("null,");
        }
        self
    }

    /// Adds a boolean field.
    #[inline(always)]
    pub fn bool_field(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key)
            .push_str(if value { "true," } else { "false," });
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw_field(&mut self, key: &str, json: &str) -> &mut Self {
        let buf = self.key(key);
        buf.push_str(json);
        buf.push(',');
        self
    }

    /// Adds an array of unsigned integers.
    pub fn u64_array_field(&mut self, key: &str, values: &[u64]) -> &mut Self {
        let buf = self.key(key);
        buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            write_u64(buf, *v);
        }
        buf.push_str("],");
        self
    }

    /// Closes the object and returns the buffer it was rendered into.
    #[inline]
    pub fn finish(mut self) -> B {
        let buf = self.buf.borrow_mut();
        if buf.ends_with(',') {
            buf.pop();
        }
        buf.push('}');
        self.buf
    }
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
        obj.str_field("ev", "op")
            .u64_field("pid", 2)
            .bool_field("ok", true)
            .f64_field("p", 0.5)
            .u64_array_field("per", &[1, 2, 3]);
        let json = obj.finish();
        assert_eq!(
            json,
            r#"{"ev":"op","pid":2,"ok":true,"p":0.5,"per":[1,2,3]}"#
        );
        validate(&json).unwrap();
    }

    #[test]
    fn empty_object_is_valid() {
        let json = Obj::new().finish();
        assert_eq!(json, "{}");
        validate(&json).unwrap();
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
        Obj::append_to(&mut out).finish().push(',');
        let mut obj = Obj::append_to(&mut out);
        obj.raw_field("a", "[1,2]").str_field("b", ",");
        obj.finish().push(']');
        assert_eq!(out, r#"[{},{"a":[1,2],"b":","}]"#);
        validate(&out).unwrap();
    }

    #[test]
    fn floats_read_back_as_floats() {
        let mut obj = Obj::new();
        obj.f64_field("x", 2.0).f64_field("bad", f64::NAN);
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
