//! The workspace's one JSON codec.
//!
//! Every document `asim2` persists or sends is JSON: case records,
//! `campaign.json`, corpus metadata, profiles, `asim2-events v1` lines,
//! fleet frames, lint reports and Chrome traces. Every string in them is
//! escaped here and every one the program reads is parsed here (the
//! Chrome-trace exporter keeps its own layout but uses [`write_str`]).
//! The build vendors no serde, so the codec is hand-rolled and small: a
//! [`Json`] tree, two renderers and one parser.
//!
//! Rendering:
//!
//! - [`Json::render`] is the file layout: two-space indentation,
//!   `"key": value`, `[]`/`{}` for empty containers and a trailing
//!   newline, so identical state diffs as identical text.
//! - [`Json::render_compact`] is the one-line layout of event lines and
//!   fleet frames: `{"key":value,...}` with no spaces and no newline.
//! - [`write_str`] is the one string writer behind both. It escapes `"`,
//!   `\` and every control character, so a rendered document never holds
//!   a raw newline inside a string and `\n` stays a safe line delimiter.
//!
//! Numbers are kept as their literal text ([`Json::Num`]), so `u64`
//! seeds round-trip losslessly where an `f64` model would corrupt seeds
//! above 2^53.
//!
//! [`Json::parse`] applies one rule set to every document:
//!
//! - **No duplicate keys.** An object that names a key twice is refused;
//!   no renderer emits one, so a duplicate is corruption or tampering.
//! - **The JSON grammar, strictly.** Numbers must match
//!   `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, strings must not
//!   hold raw control characters, and a `\u` escape must name a Unicode
//!   scalar value (surrogate pairs combine; a lone surrogate is refused).
//! - **Bounded depth.** Nesting deeper than [`MAX_DEPTH`] is refused with
//!   a named error instead of exhausting the stack. The deepest document
//!   the program writes has six levels.
//! - **Linear time.** Strings are scanned once, unescaped runs copied as
//!   whole slices, and duplicate keys found by sorting, so hostile input
//!   of any length costs time in proportion to its size (up to a log
//!   factor for objects with many keys).

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text for lossless round-trips.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value from anything displayable as a numeric literal.
    pub fn num(value: impl std::fmt::Display) -> Json {
        Json::Num(value.to_string())
    }

    /// A string value.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`: `None` for anything but an unsigned
    /// integer literal that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline — stable output, so identical state diffs as identical
    /// text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders the document on a single line, `{"k":v,...}` with no
    /// spaces and no trailing newline — the event-line and frame layout.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value; `indent` is the pretty layout's current depth,
    /// `None` for the compact layout.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, ['[', ']'], items, |out, item, inner| {
                item.write(out, inner);
            }),
            Json::Obj(pairs) => write_seq(
                out,
                indent,
                ['{', '}'],
                pairs,
                |out, (key, value), inner| {
                    write_str(out, key);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                },
            ),
        }
    }

    /// Parses a JSON document under the module's rules.
    ///
    /// # Errors
    ///
    /// A position-annotated message on malformed input, a duplicate key,
    /// or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Writes `items` between the `open`/`close` brackets, one per line in
/// the pretty layout; empty containers stay `[]`/`{}` in both layouts.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    mut each: impl FnMut(&mut String, &T, Option<usize>),
) {
    let inner = indent.map(|depth| depth + 1);
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        each(out, item, inner);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Writes `s` as a quoted JSON string literal: `"`, `\`, `\n`, `\r` and
/// `\t` get their short escapes, every other control character a
/// `\u00XX` escape, and all other text is copied through.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than MAX_DEPTH ({MAX_DEPTH}) at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = |at: usize| format!("malformed number at byte {at}");
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(bad(start));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(bad(start));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(bad(start));
            }
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end: a char boundary.
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => {
                    return Err(format!(
                        "raw control character in string at byte {}",
                        self.pos
                    ))
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(format!("unpaired surrogate in \\u escape at byte {at}"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                return char::from_u32(code)
                    .ok_or_else(|| format!("\\u escape is not a scalar value at byte {at}"));
            }
            _ => return Err(format!("bad escape at byte {at}")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or ']' at byte {}", self.pos));
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if !self.eat(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                pairs.push((key, value));
                self.skip_ws();
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(format!("expected ',' or '}}' at byte {}", self.pos));
                }
            }
        }
        if pairs.len() > 1 {
            let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
                return Err(format!(
                    "duplicate key {:?} in the object at byte {start}",
                    dup[0]
                ));
            }
        }
        Ok(Json::Obj(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("seed".into(), Json::num(u64::MAX)),
            ("name".into(), Json::str("fuzz/seed-7 \"quoted\"\n")),
            (
                "engines".into(),
                Json::Arr(vec![Json::str("interp"), Json::str("vm")]),
            ),
            ("clean".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(
            back.get("name").unwrap().as_str(),
            Some("fuzz/seed-7 \"quoted\"\n")
        );
        assert_eq!(back.get("engines").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(back.get("clean").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let doc = Json::parse(" { \"a\" : [ 1 , -2 ] , \"b\" : \"x\\u0041\\ty\" } ").unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[1], Json::num(-2));
        assert_eq!(doc.get("b").unwrap().as_str(), Some("xA\ty"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn empty_containers_render_compactly() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
    }

    #[test]
    fn the_two_layouts() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::num(1), Json::Obj(vec![])])),
            ("b".into(), Json::str("x")),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": \"x\"\n}\n"
        );
        assert_eq!(doc.render_compact(), "{\"a\":[1,{}],\"b\":\"x\"}");
    }

    #[test]
    fn the_string_writer_escapes_every_control_character() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\re\tf\u{1}g\u{1f}é");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fé\"");
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for good in [
            "0",
            "-0",
            "7",
            "-12",
            "1.5",
            "0.25e-3",
            "6E+10",
            "18446744073709551615",
        ] {
            assert_eq!(Json::parse(good), Ok(Json::num(good)), "{good}");
        }
        for bad in [
            "-", "01", "1.", ".5", "1e", "1e+", "+1", "--1", "1.2.3", "0x10",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn unicode_escapes_must_name_scalar_values() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\\u00e9\""),
            Ok(Json::str("\u{1f600}é"))
        );
        for bad in [
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"\\u+041\"",
            "\"\\u00g0\"",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn raw_control_characters_are_refused_in_strings() {
        assert!(Json::parse("\"a\nb\"").is_err());
        assert!(Json::parse("\"a\tb\"").is_err());
    }

    #[test]
    fn duplicate_keys_are_refused_at_any_depth() {
        let err = Json::parse("{\"a\":1,\"b\":2,\"a\":3}").unwrap_err();
        assert!(err.contains("duplicate key \"a\""), "{err}");
        assert!(Json::parse("[{\"x\":{\"k\":1,\"k\":1}}]").is_err());
        assert!(
            Json::parse("{\"a\":{\"a\":1}}").is_ok(),
            "nested reuse is fine"
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&over).unwrap_err();
        assert!(err.contains("MAX_DEPTH"), "{err}");
        let hostile = "{\"x\":".repeat(100_000);
        assert!(Json::parse(&hostile).unwrap_err().contains("MAX_DEPTH"));
    }
}
