//! JSON feed import/export.
//!
//! NVD publishes its data as JSON feeds; this module provides a compact
//! NVD-like JSON representation so databases can be persisted, shipped as
//! fixtures and diffed. The schema is intentionally minimal:
//!
//! ```json
//! {
//!   "entries": [
//!     {
//!       "id": "CVE-2016-7153",
//!       "published": 2016,
//!       "affected": ["cpe:/a:microsoft:edge", "cpe:/a:google:chrome"],
//!       "cvss": 4.3,
//!       "description": "..."
//!     }
//!   ]
//! }
//! ```
//!
//! The codec is hand-rolled (the build environment is offline, so
//! `serde_json` is unavailable): a recursive-descent parser
//! ([`parse_value`]) into a small [`Value`] tree and a direct
//! pretty-printer. Both are total over the schema above and reject
//! anything malformed with [`Error::Json`]. The parser and the tree are
//! public so that other record formats (`netmodel`'s journal) decode
//! through the same code; their errors are a bare [`JsonError`] that each
//! consumer maps into its own error type.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::cpe::Cpe;
use crate::cve::{CveEntry, CveId};
use crate::database::VulnerabilityDatabase;
use crate::{Error, Result};

/// Serializes a database to the JSON feed format.
///
/// # Errors
///
/// Returns [`Error::Json`] if serialization fails (it cannot for well-formed
/// databases; the error path exists for API completeness).
pub fn to_json(db: &VulnerabilityDatabase) -> Result<String> {
    let mut out = String::from("{\n  \"entries\": [");
    let mut first = true;
    for e in db.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    {\n");
        let _ = writeln!(out, "      \"id\": {},", quote(&e.id().to_string()));
        let _ = write!(out, "      \"published\": {}", e.published());
        let mut affected = String::new();
        for (i, cpe) in e.affected().iter().enumerate() {
            if i > 0 {
                affected.push_str(", ");
            }
            affected.push_str(&quote(&cpe.to_string()));
        }
        let _ = write!(out, ",\n      \"affected\": [{affected}]");
        if let Some(cvss) = e.cvss() {
            let _ = write!(out, ",\n      \"cvss\": {}", format_number(cvss.score()));
        }
        if !e.description().is_empty() {
            let _ = write!(out, ",\n      \"description\": {}", quote(e.description()));
        }
        out.push_str("\n    }");
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    Ok(out)
}

/// Parses a JSON feed into a database.
///
/// # Errors
///
/// Returns [`Error::Json`] for malformed JSON and [`Error::ParseCpe`] /
/// [`Error::ParseCveId`] for malformed identifiers inside the feed.
pub fn from_json(json: &str) -> Result<VulnerabilityDatabase> {
    let doc = parse_value(json)?;
    let obj = doc.as_object("feed document")?;
    let entries = obj
        .get("entries")
        .ok_or_else(|| Error::Json("missing `entries` array".into()))?
        .as_array("entries")?;
    let mut db = VulnerabilityDatabase::new();
    for entry in entries {
        let entry = entry.as_object("entry")?;
        let id: CveId = entry
            .get("id")
            .ok_or_else(|| Error::Json("entry missing `id`".into()))?
            .as_str("id")?
            .parse()?;
        let published = entry
            .get("published")
            .ok_or_else(|| Error::Json("entry missing `published`".into()))?
            .as_number("published")?;
        if published < 0.0 || published > u16::MAX as f64 || published.fract() != 0.0 {
            return Err(Error::Json(format!("bad `published` year {published}")));
        }
        let affected = entry
            .get("affected")
            .ok_or_else(|| Error::Json("entry missing `affected`".into()))?
            .as_array("affected")?
            .iter()
            .map(|v| v.as_str("affected entry")?.parse::<Cpe>())
            .collect::<Result<Vec<_>>>()?;
        let mut e = CveEntry::new(id, published as u16, affected);
        if let Some(score) = entry.get("cvss") {
            e = e.with_cvss(score.as_number("cvss")?);
        }
        if let Some(desc) = entry.get("description") {
            let desc = desc.as_str("description")?;
            if !desc.is_empty() {
                e = e.with_description(desc);
            }
        }
        db.insert(e);
    }
    Ok(db)
}

/// A malformed document, or a value of the wrong type: the message alone.
/// Each consumer wraps it in its own error — [`Error::Json`] in this crate.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Error {
        Error::Json(e.0)
    }
}

type JsonResult<T> = std::result::Result<T, JsonError>;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number, as an `f64`.
    Number(f64),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys are unique and kept sorted.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The JSON type's name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// The object's entries; `what` names the value in the error.
    pub fn as_object(&self, what: &str) -> JsonResult<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Ok(m),
            other => Err(JsonError(format!(
                "{what}: expected object, got {}",
                other.type_name()
            ))),
        }
    }

    /// The array's items; `what` names the value in the error.
    pub fn as_array(&self, what: &str) -> JsonResult<&[Value]> {
        match self {
            Value::Array(v) => Ok(v),
            other => Err(JsonError(format!(
                "{what}: expected array, got {}",
                other.type_name()
            ))),
        }
    }

    /// The string; `what` names the value in the error.
    pub fn as_str(&self, what: &str) -> JsonResult<&str> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(JsonError(format!(
                "{what}: expected string, got {}",
                other.type_name()
            ))),
        }
    }

    /// The number; `what` names the value in the error.
    pub fn as_number(&self, what: &str) -> JsonResult<f64> {
        match self {
            Value::Number(n) => Ok(*n),
            other => Err(JsonError(format!(
                "{what}: expected number, got {}",
                other.type_name()
            ))),
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}.0", n as i64)
    } else {
        format!("{n}")
    }
}

/// Parses one JSON document; whitespace may surround the value, anything
/// else after it is an error.
///
/// # Errors
///
/// A [`JsonError`] naming the first malformed byte.
pub fn parse_value(input: &str) -> JsonResult<Value> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError(format!("trailing garbage at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> JsonResult<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> JsonResult<Value> {
        match self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?
        {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::String(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> JsonResult<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn object(&mut self) -> JsonResult<Value> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> JsonResult<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> JsonResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the feed
                            // schema or the journal; map lone surrogates to
                            // U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("control character in string")),
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Re-decode the UTF-8 sequence starting one byte back.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> JsonResult<Value> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::{FeedConfig, FeedGenerator};

    #[test]
    fn roundtrip_preserves_database() {
        let mut gen = FeedGenerator::new(
            FeedConfig {
                entries: 50,
                ..FeedConfig::default()
            },
            5,
        );
        let db = gen.generate_database();
        let json = to_json(&db).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back.len(), db.len());
        for entry in db.iter() {
            let restored = back.get(entry.id()).expect("entry survives roundtrip");
            assert_eq!(restored.published(), entry.published());
            assert_eq!(restored.affected(), entry.affected());
        }
    }

    #[test]
    fn parses_nvd_style_document() {
        let json = r#"{
            "entries": [
                {
                    "id": "CVE-2016-7153",
                    "published": 2016,
                    "affected": [
                        "cpe:/a:microsoft:edge:-",
                        "cpe:/a:microsoft:internet_explorer:-",
                        "cpe:/a:google:chrome:-",
                        "cpe:/a:apple:safari",
                        "cpe:/a:mozilla:firefox",
                        "cpe:/a:opera:opera_browser:-"
                    ],
                    "cvss": 4.3,
                    "description": "HEIST: HTTP encrypted information can be stolen"
                }
            ]
        }"#;
        let db = from_json(json).unwrap();
        assert_eq!(db.len(), 1);
        let edge: Cpe = "cpe:/a:microsoft:edge".parse().unwrap();
        let chrome: Cpe = "cpe:/a:google:chrome".parse().unwrap();
        assert_eq!(db.similarity(&edge, &chrome), 1.0);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(from_json("{").is_err());
        assert!(from_json(
            r#"{"entries": [{"id": "garbage", "published": 2000, "affected": []}]}"#
        )
        .is_err());
        assert!(from_json(
            r#"{"entries": [{"id": "CVE-2016-1", "published": 2000, "affected": ["nope"]}]}"#
        )
        .is_err());
        // Type confusion and structural damage are JSON-level errors.
        assert!(from_json(r#"{"entries": 3}"#).is_err());
        assert!(
            from_json(r#"{"entries": [{"id": 7, "published": 2000, "affected": []}]}"#).is_err()
        );
        assert!(from_json(r#"{"entries": []} trailing"#).is_err());
    }

    #[test]
    fn empty_feed() {
        let db = from_json(r#"{"entries": []}"#).unwrap();
        assert!(db.is_empty());
        let json = to_json(&db).unwrap();
        assert!(json.contains("entries"));
    }

    #[test]
    fn escaped_strings_roundtrip() {
        let quoted = quote("a\"b\\c\nd\te");
        assert_eq!(quoted, r#""a\"b\\c\nd\te""#);
        let v = parse_value(&format!("[{quoted}]")).unwrap();
        match v {
            Value::Array(items) => match &items[0] {
                Value::String(s) => assert_eq!(s, "a\"b\\c\nd\te"),
                _ => panic!("expected string"),
            },
            _ => panic!("expected array"),
        }
    }
}
