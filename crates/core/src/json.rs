//! A minimal JSON value type, parser and writer.
//!
//! The build environment is offline, so instead of `serde`/`serde_json` the
//! simulator carries this small self-contained module. It covers everything
//! the repository serialises: golden traces, delivery schedules, CLI config
//! files, scenario and repro files, campaign journals and CLI reports.
//!
//! Objects preserve insertion order so output is deterministic; the pretty
//! printer matches `serde_json`'s two-space style, which keeps the committed
//! golden traces diffable.
//!
//! # Artifact parsing policy
//!
//! Every artifact parser in the workspace (scenario, repro, manifest,
//! checkpoint, corpus, trace, delivery schedule, `--config`) reads its
//! objects through [`Fields`], its tagged enums through [`variant`] and its
//! file through [`load`], so what happens to a malformed field is decided
//! here, once:
//!
//! 1. a value that should be an object and is not, or an object that repeats
//!    a key, is an error;
//! 2. a key the parser never asked for is an error (`unknown field`), raised
//!    by [`Fields::finish`];
//! 3. a required key that is absent is an error (`missing`); an optional one
//!    takes the default its parser documents;
//! 4. an integer must be integral, non-negative and in range of the type it
//!    is stored in ([`int`] — nothing is rounded or truncated), a float must
//!    be finite ([`float`]);
//! 5. every message starts with the object's name and quotes the key —
//!    `scenario: bad "n": …`, `manifest: missing "seeds.lo"` — and a nested
//!    parser's message is wrapped by its parent's, so the full path is read
//!    left to right.
//!
//! [`Json::get`] and the `as_*` accessors are lenient (floats round, absent
//! is `None`); they are for tests and report readers, not for parsers.

use core::fmt;
use std::path::Path;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number. Stored as `f64`; integral values print without a
    /// fractional part (exact for magnitudes below 2⁵³).
    Num(f64),
    /// A non-negative integer literal, exact across the full `u64` range.
    /// Decided values are 64-bit hashes, so the traces need all 64 bits —
    /// an `f64` would silently round above 2⁵³.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a key in an object, mutably — the editing counterpart of
    /// [`Json::get`], used e.g. by tests that hand-mutate committed traces.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a `u64` (numbers only; floats round to nearest).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Num(n) if *n >= 0.0 => Some(n.round() as u64),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error;
    /// nesting deeper than 128 levels is one (the parser recurses, so an
    /// unbounded `[[[[…` would overflow the stack).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Serialises compactly (no whitespace).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with two-space indentation (the `serde_json` pretty style).
    pub fn dump_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.dump())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// A strict cursor over one JSON object: take each field the format has with
/// [`req`](Fields::req) / [`opt`](Fields::opt) / [`opt_or`](Fields::opt_or),
/// then call [`finish`](Fields::finish). Implements the module's artifact
/// parsing policy; each field is read by a function such as [`int`],
/// [`string`], [`list`] or a nested type's own `from_json`.
#[derive(Debug)]
pub struct Fields<'a> {
    what: String,
    /// Dotted path of the inline sub-objects entered so far (`"seeds."`),
    /// shown inside the quotes in front of the key.
    prefix: String,
    pairs: &'a [(String, Json)],
    asked: Vec<bool>,
}

impl<'a> Fields<'a> {
    /// Opens `json`, which messages will call `what`.
    ///
    /// # Errors
    ///
    /// `json` is not an object, or repeats a key.
    pub fn of(json: &'a Json, what: impl Into<String>) -> Result<Fields<'a>, String> {
        Fields::open(json, what.into(), String::new())
    }

    fn open(json: &'a Json, what: String, prefix: String) -> Result<Fields<'a>, String> {
        let Json::Obj(pairs) = json else {
            let at = prefix.trim_end_matches('.');
            return Err(match at {
                "" => format!("{what}: expected an object"),
                _ => format!("{what}: bad \"{at}\": expected an object"),
            });
        };
        for (i, (key, _)) in pairs.iter().enumerate() {
            if pairs[..i].iter().any(|(earlier, _)| earlier == key) {
                return Err(format!("{what}: duplicate field \"{prefix}{key}\""));
            }
        }
        Ok(Fields {
            what,
            prefix,
            pairs,
            asked: vec![false; pairs.len()],
        })
    }

    fn take(&mut self, key: &str) -> Option<&'a Json> {
        let i = self.pairs.iter().position(|(k, _)| k == key)?;
        self.asked[i] = true;
        Some(&self.pairs[i].1)
    }

    /// The field `key` read by `read`, or `None` when it is absent.
    ///
    /// # Errors
    ///
    /// `read` rejected the value; its message is wrapped with the path.
    pub fn opt<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let value = self.take(key).map(read).transpose();
        value.map_err(|e| format!("{}: bad \"{}{key}\": {e}", self.what, self.prefix))
    }

    /// The field `key` read by `read`.
    ///
    /// # Errors
    ///
    /// The field is absent, or `read` rejected it.
    pub fn req<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<T, String> {
        self.opt(key, read)?
            .ok_or_else(|| format!("{}: missing \"{}{key}\"", self.what, self.prefix))
    }

    /// The field `key` read by `read`, or `default` when it is absent.
    ///
    /// # Errors
    ///
    /// `read` rejected the value.
    pub fn opt_or<T>(
        &mut self,
        key: &str,
        default: T,
        read: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<T, String> {
        Ok(self.opt(key, read)?.unwrap_or(default))
    }

    /// A cursor over the inline object at `key` — one that belongs to this
    /// format rather than to a type with its own `from_json`. Its fields
    /// are reported under this object's name as `"key.field"`. An absent
    /// `key` yields an empty cursor, so the sub-object is required exactly
    /// when one of its fields is.
    ///
    /// # Errors
    ///
    /// The value at `key` is not an object, or repeats a key.
    pub fn sub(&mut self, key: &str) -> Result<Fields<'a>, String> {
        static ABSENT: Json = Json::Obj(Vec::new());
        let prefix = format!("{}{key}.", self.prefix);
        Fields::open(self.take(key).unwrap_or(&ABSENT), self.what.clone(), prefix)
    }

    /// Closes the object.
    ///
    /// # Errors
    ///
    /// It holds a key that was never asked for.
    pub fn finish(self) -> Result<(), String> {
        match self.asked.iter().position(|asked| !asked) {
            Some(i) => Err(format!(
                "{}: unknown field \"{}{}\"",
                self.what, self.prefix, self.pairs[i].0
            )),
            None => Ok(()),
        }
    }
}

/// Reads an unsigned integer of whichever type the caller stores it in
/// (`u64`, `u32`, `usize`): integral, non-negative and in that type's range.
///
/// # Errors
///
/// Anything else — nothing is rounded, saturated or truncated.
pub fn int<T: TryFrom<u64>>(json: &Json) -> Result<T, String> {
    let value = match *json {
        Json::UInt(v) => v,
        // 2⁶⁴ as an f64; every integral f64 below it converts exactly.
        Json::Num(n) if n.fract() == 0.0 && (0.0..18_446_744_073_709_551_616.0).contains(&n) => {
            n as u64
        }
        _ => return Err("expected an unsigned integer".into()),
    };
    T::try_from(value).map_err(|_| {
        let target = core::any::type_name::<T>();
        format!("{value} exceeds the {target} range")
    })
}

/// Reads a finite number.
///
/// # Errors
///
/// Not a number, or an overflowed literal such as `1e999`.
pub fn float(json: &Json) -> Result<f64, String> {
    json.as_f64()
        .filter(|n| n.is_finite())
        .ok_or_else(|| "expected a finite number".into())
}

/// Reads `true` or `false`.
///
/// # Errors
///
/// Not a boolean.
pub fn boolean(json: &Json) -> Result<bool, String> {
    json.as_bool()
        .ok_or_else(|| "expected true or false".into())
}

/// Reads a string.
///
/// # Errors
///
/// Not a string.
pub fn string(json: &Json) -> Result<String, String> {
    json.as_str()
        .map(str::to_string)
        .ok_or_else(|| "expected a string".into())
}

/// A reader for an array whose entries are each read by `read`; an entry's
/// error names its index (`entry #3: …`).
pub fn list<T>(
    read: impl Fn(&Json) -> Result<T, String>,
) -> impl Fn(&Json) -> Result<Vec<T>, String> {
    move |json| {
        let items = json.as_arr().ok_or("expected an array")?;
        let entry = |(i, item)| read(item).map_err(|e| format!("entry #{i}: {e}"));
        items.iter().enumerate().map(entry).collect()
    }
}

/// Splits an externally tagged enum value: the bare string `"Tag"` is a unit
/// variant (no body), the single-key object `{"Tag": {…}}` a variant whose
/// body comes back as a cursor named `what Tag`. The caller matches on the
/// pair and rejects the tags it does not know.
///
/// # Errors
///
/// Neither shape, more than one key, or a body that is not an object.
pub fn variant<'a>(json: &'a Json, what: &str) -> Result<(&'a str, Option<Fields<'a>>), String> {
    match json {
        Json::Str(tag) => Ok((tag, None)),
        Json::Obj(pairs) => match pairs.as_slice() {
            [(tag, body)] => Ok((tag, Some(Fields::of(body, format!("{what} {tag}"))?))),
            _ => Err(format!(
                "{what}: expected exactly one variant key, found {}",
                pairs.len()
            )),
        },
        _ => Err(format!("{what}: expected \"Tag\" or {{\"Tag\": {{…}}}}")),
    }
}

/// Reads the file at `path`, parses it and hands the document to `from_json`.
/// `what` names the artifact in the messages (`bad manifest m.json: …`).
///
/// # Errors
///
/// The file cannot be read, is not JSON, or `from_json` rejects it.
pub fn load<T>(
    path: impl AsRef<Path>,
    what: &str,
    from_json: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let bad = |e: String| format!("bad {what} {}: {e}", path.display());
    from_json(&Json::parse(&text).map_err(bad)?).map_err(bad)
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() && n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        out.push_str(&format!("{}", n as i64));
    } else if n.is_finite() {
        out.push_str(&format!("{n}"));
    } else {
        // JSON has no Inf/NaN; null is serde_json's lossy convention too.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting `Json::parse` accepts — far beyond any
/// artifact this workspace writes.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
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

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // Non-negative integer literals keep full u64 precision.
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    /// Reads the four hex digits of a `\uXXXX` escape (the `\u` itself has
    /// already been consumed) and returns the code unit.
    fn unicode_escape(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| core::str::from_utf8(h).ok())
            .ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape '{hex}'"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.unicode_escape()?;
                            let code = if (0xD800..=0xDBFF).contains(&code)
                                && self.bytes.get(self.pos) == Some(&b'\\')
                                && self.bytes.get(self.pos + 1) == Some(&b'u')
                            {
                                // A high surrogate followed by another \u
                                // escape: decode the pair (external writers
                                // encode non-BMP chars this way).
                                let mark = self.pos;
                                self.pos += 2;
                                let low = self.unicode_escape()?;
                                if (0xDC00..=0xDFFF).contains(&low) {
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    // Not a low surrogate: rewind and let the
                                    // second escape decode on its own.
                                    self.pos = mark;
                                    code
                                }
                            } else {
                                code
                            };
                            // Lone surrogates map to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|w| core::str::from_utf8(w).ok())
                        .ok_or("invalid UTF-8 in string")?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_mut_edits_objects_in_place() {
        let mut v = Json::obj([("n", Json::from(4u64))]);
        *v.get_mut("n").unwrap() = Json::from(7u64);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert!(v.get_mut("missing").is_none());
        assert!(Json::from(1u64).get_mut("n").is_none());
    }

    #[test]
    fn round_trips_compound_values() {
        let v = Json::obj([
            ("name", Json::from("pbft")),
            ("n", Json::from(16u64)),
            ("ratio", Json::from(0.5)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            ("xs", Json::Arr(vec![Json::from(1u64), Json::from(2u64)])),
        ]);
        let text = v.dump();
        assert_eq!(Json::parse(&text).unwrap(), v);
        let pretty = v.dump_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"name\": \"pbft\""));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(250_000u64).dump(), "250000");
        assert_eq!(Json::from(0.25).dump(), "0.25");
    }

    #[test]
    fn u64_values_keep_full_precision() {
        // Above 2^53: an f64 would round this (decided values are hashes).
        let v = Json::from(0xf40c_0724_6da4_cc91u64);
        assert_eq!(v.dump(), "17585438498014678161");
        let back = Json::parse(&v.dump()).unwrap();
        assert_eq!(back.as_u64(), Some(0xf40c_0724_6da4_cc91));
        assert_eq!(back, v);
        assert_eq!(
            Json::parse(&u64::MAX.to_string()).unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\ndAé");
        let back = Json::parse(&v.dump()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn decodes_surrogate_pairs_and_tolerates_lone_surrogates() {
        // External writers encode non-BMP characters as surrogate pairs.
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{1F600}");
        // A high surrogate with no following escape degrades to U+FFFD.
        let v = Json::parse("\"\\ud83dx\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{FFFD}x");
        // A high surrogate followed by a non-low-surrogate escape: both
        // decode independently (the parser rewinds after peeking).
        let v = Json::parse("\"\\ud83d\\u0041\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{FFFD}A");
        // A lone low surrogate degrades to U+FFFD.
        let v = Json::parse("\"\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{FFFD}");
        // Truncated second escape is a hard error, not a panic.
        assert!(Json::parse("\"\\ud83d\\u00\"").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn fields_states_the_policy_once() {
        let doc = Json::parse(r#"{"n": 7, "pair": {"lo": 1}, "tags": ["a", 2]}"#).unwrap();
        let mut f = Fields::of(&doc, "doc").unwrap();
        assert_eq!(f.req("n", int::<u32>), Ok(7));
        assert_eq!(f.opt("absent", int::<u64>), Ok(None));
        assert_eq!(f.opt_or("absent", 9usize, int), Ok(9));
        let mut pair = f.sub("pair").unwrap();
        assert_eq!(pair.req("lo", int::<u64>), Ok(1));
        let err = pair.req("hi", int::<u64>).unwrap_err();
        assert_eq!(err, "doc: missing \"pair.hi\"");
        pair.finish().unwrap();
        let err = f.req("tags", list(string)).unwrap_err();
        assert_eq!(err, "doc: bad \"tags\": entry #1: expected a string");
        f.finish().unwrap();

        let mut f = Fields::of(&doc, "doc").unwrap();
        f.req("n", int::<u64>).unwrap();
        assert_eq!(f.finish().unwrap_err(), "doc: unknown field \"pair\"");
        let twice = Json::parse(r#"{"n": 1, "n": 2}"#).unwrap();
        let err = Fields::of(&twice, "doc").unwrap_err();
        assert_eq!(err, "doc: duplicate field \"n\"");
        assert!(Fields::of(&Json::from(1u64), "doc").is_err());
        // An absent inline object is required exactly when a field of it is.
        let empty = Json::obj([]);
        let mut f = Fields::of(&empty, "doc").unwrap();
        assert!(f.sub("pair").unwrap().finish().is_ok());
    }

    #[test]
    fn integers_are_never_rounded_saturated_or_truncated() {
        let num = |text: &str| Json::parse(text).unwrap();
        assert_eq!(int::<u64>(&num("18446744073709551615")), Ok(u64::MAX));
        assert_eq!(int::<u64>(&num("1e3")), Ok(1000));
        assert_eq!(int::<u32>(&num("4294967295")), Ok(u32::MAX));
        let err = int::<u32>(&num("4294967296")).unwrap_err();
        assert_eq!(err, "4294967296 exceeds the u32 range");
        for bad in ["4.6", "-1", "1e30", "18446744073709551616", "\"4\"", "null"] {
            assert!(int::<u64>(&num(bad)).is_err(), "{bad}");
        }
        assert_eq!(float(&num("2.5")), Ok(2.5));
        assert_eq!(float(&num("7")), Ok(7.0));
        assert!(float(&num("1e999")).is_err(), "an overflowed literal");
    }

    #[test]
    fn variant_splits_both_shapes() {
        let unit = Json::from("Drop");
        assert!(matches!(variant(&unit, "fate"), Ok(("Drop", None))));
        let tagged = Json::parse(r#"{"Deliver": {"delay_micros": 5}}"#).unwrap();
        let (tag, body) = variant(&tagged, "fate").unwrap();
        let mut body = body.unwrap();
        assert_eq!(
            (tag, body.req("delay_micros", int::<u64>)),
            ("Deliver", Ok(5))
        );
        let err = body.req("x", int::<u64>).unwrap_err();
        assert_eq!(err, "fate Deliver: missing \"x\"");
        for bad in [r#"{"A": {}, "B": {}}"#, "{}", "7", r#"{"A": 7}"#] {
            assert!(
                variant(&Json::parse(bad).unwrap(), "fate").is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"k": [1, "s", false]}"#).unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_str(), Some("s"));
        assert_eq!(arr[2].as_bool(), Some(false));
        assert!(v.get("missing").is_none());
    }
}
