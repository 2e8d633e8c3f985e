//! A small in-tree JSON module — emitter, recursive-descent parser, and the
//! [`ToJson`]/[`FromJson`] conversion traits the workspace uses instead of
//! `serde`/`serde_json`.
//!
//! Scope: exactly what the simulator needs. Configs ([`mpisim::SimConfig`]
//! in the sibling crate), traces, figure data. The conventions deliberately
//! mirror what the previous `serde` derives produced, so existing on-disk
//! configs keep parsing:
//!
//! * structs ⇒ objects with the field names as keys;
//! * unit enum variants ⇒ the variant name as a string (`"Eager"`);
//! * struct enum variants ⇒ a single-key object
//!   (`{"Auto": {"eager_limit": 32768}}`);
//! * `SimTime`/`SimDuration` ⇒ transparent nanosecond integers;
//! * missing optional fields default (where the old derive said
//!   `#[serde(default)]`).
//!
//! Records and enums declare that form once with [`json_codec!`](crate::json_codec),
//! which generates both conversions. Its decoders are strict where the
//! old derives were lenient: an unknown or repeated key is an error.
//!
//! Numbers keep full precision: unsigned and signed integers are carried as
//! `u64`/`i64` (nanosecond timestamps exceed 2⁵³ and must not transit
//! through `f64`), floats are emitted with `{:?}` which is Rust's shortest
//! round-trip formatting.

use std::fmt;

use simdes::{SimDuration, SimTime};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (fits `u64`).
    UInt(u64),
    /// A negative integer (fits `i64`).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// Error raised by parsing or by typed extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Convenience alias for fallible JSON operations.
pub type Result<T> = std::result::Result<T, JsonError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(JsonError(msg.into()))
}

// ---------------------------------------------------------------------------
// Value accessors
// ---------------------------------------------------------------------------

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// One-word description of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::UInt(_) | Json::Int(_) => "integer",
            Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Look up a key in an object. `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Look up a required key in an object.
    pub fn field(&self, key: &str) -> Result<&Json> {
        match self {
            Json::Object(_) => self
                .get(key)
                .ok_or_else(|| JsonError(format!("missing field '{key}'"))),
            other => err(format!(
                "expected object with field '{key}', got {}",
                other.kind()
            )),
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::UInt(v) => i64::try_from(v).ok(),
            Json::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `f64` if it is any kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// `true` if the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Typed extraction with an error naming the mismatch.
    pub fn expect_u64(&self) -> Result<u64> {
        self.as_u64()
            .ok_or_else(|| JsonError(format!("expected unsigned integer, got {}", self.kind())))
    }

    /// Typed extraction with an error naming the mismatch.
    pub fn expect_f64(&self) -> Result<f64> {
        self.as_f64()
            .ok_or_else(|| JsonError(format!("expected number, got {}", self.kind())))
    }

    /// Typed extraction with an error naming the mismatch.
    pub fn expect_bool(&self) -> Result<bool> {
        self.as_bool()
            .ok_or_else(|| JsonError(format!("expected bool, got {}", self.kind())))
    }

    /// Typed extraction with an error naming the mismatch.
    pub fn expect_str(&self) -> Result<&str> {
        self.as_str()
            .ok_or_else(|| JsonError(format!("expected string, got {}", self.kind())))
    }

    /// Typed extraction with an error naming the mismatch.
    pub fn expect_array(&self) -> Result<&[Json]> {
        self.as_array()
            .ok_or_else(|| JsonError(format!("expected array, got {}", self.kind())))
    }

    /// Typed extraction with an error naming the mismatch.
    pub fn expect_object(&self) -> Result<&[(String, Json)]> {
        self.as_object()
            .ok_or_else(|| JsonError(format!("expected object, got {}", self.kind())))
    }

    /// For externally tagged enums: the single `(variant, payload)` pair of
    /// a one-key object, or `(name, Null)` for a bare string.
    pub fn expect_variant(&self) -> Result<(&str, &Json)> {
        match self {
            Json::Str(name) => Ok((name.as_str(), &Json::Null)),
            Json::Object(fields) if fields.len() == 1 => Ok((fields[0].0.as_str(), &fields[0].1)),
            other => err(format!(
                "expected enum variant (string or single-key object), got {}",
                other.kind()
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------------

impl Json {
    /// Compact serialization (no whitespace), like `serde_json::to_string`.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation, like
    /// `serde_json::to_string_pretty`.
    pub fn dump_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '[',
                    ']',
                    items.len(),
                    |out, i, depth| {
                        items[i].write(out, indent, depth);
                    },
                );
            }
            Json::Object(fields) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '{',
                    '}',
                    fields.len(),
                    |out, i, depth| {
                        let (k, v) = &fields[i];
                        write_escaped(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, depth);
                    },
                );
            }
        }
    }
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/inf; mirror serde_json's lossy choice of null.
        out.push_str("null");
        return;
    }
    // `{:?}` is Rust's shortest representation that round-trips exactly.
    let s = format!("{v:?}");
    out.push_str(&s);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so unbounded nesting would let a hostile
/// document overflow the stack; real documents nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse a JSON document. The whole input must be consumed (trailing
    /// whitespace allowed), and arrays and objects may nest at most
    /// [`MAX_DEPTH`] levels.
    pub fn parse(input: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => err(format!(
                "unexpected character '{}' at byte {}",
                c as char, self.pos
            )),
            None => err("unexpected end of input"),
        }
    }

    /// Parse one array or object with `f`, one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast-path a run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError("invalid utf-8 in string".into()))?;
                s.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                Some(_) => return err(format!("raw control character at byte {}", self.pos)),
                None => return err("unterminated string"),
            }
        }
    }

    fn escape(&mut self) -> Result<char> {
        let c = self
            .peek()
            .ok_or_else(|| JsonError("unterminated escape".into()))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect_byte(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return err("invalid low surrogate");
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return err("unpaired surrogate");
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| JsonError("invalid \\u escape".into()))?
            }
            c => return err(format!("invalid escape '\\{}'", c as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
        let s = std::str::from_utf8(chunk).map_err(|_| JsonError("bad \\u escape".into()))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| JsonError("bad \\u escape".into()))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if text.is_empty() || text == "-" {
            return err(format!("invalid number at byte {start}"));
        }
        if !is_float {
            // Integers stay integers so u64 nanosecond values keep full
            // precision; fall back to float only on overflow.
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(v) = rest.parse::<u64>() {
                    if v == 0 {
                        return Ok(Json::UInt(0));
                    }
                    if let Ok(v) = text.parse::<i64>() {
                        return Ok(Json::Int(v));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::Float(v)),
            Err(_) => err(format!("invalid number '{text}'")),
        }
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into a JSON value tree (the emit half of the old `Serialize`).
pub trait ToJson {
    /// Build the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from a parsed JSON value (the parse half of `Deserialize`).
pub trait FromJson: Sized {
    /// Reconstruct a value from its JSON representation.
    fn from_json(v: &Json) -> Result<Self>;
}

/// Serialize any [`ToJson`] value to a compact string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().dump()
}

/// Serialize any [`ToJson`] value to a pretty-printed string.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().dump_pretty()
}

/// Parse a string into any [`FromJson`] value.
pub fn from_str<T: FromJson>(input: &str) -> Result<T> {
    T::from_json(&Json::parse(input)?)
}

// --- primitive impls -------------------------------------------------------

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(u64::from(*self))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self> {
                let raw = v.expect_u64()?;
                <$t>::try_from(raw)
                    .map_err(|_| JsonError(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self> {
        let raw = v.expect_u64()?;
        usize::try_from(raw).map_err(|_| JsonError(format!("{raw} out of range for usize")))
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        if *self >= 0 {
            Json::UInt(*self as u64)
        } else {
            Json::Int(*self)
        }
    }
}

impl FromJson for i64 {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_i64()
            .ok_or_else(|| JsonError(format!("expected integer, got {}", v.kind())))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self> {
        v.expect_f64()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self> {
        v.expect_bool()
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self> {
        Ok(v.expect_str()?.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self> {
        v.expect_array()?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| at_index(i, e)))
            .collect()
    }
}

#[cold]
#[inline(never)]
fn at_index(i: usize, e: JsonError) -> JsonError {
    JsonError(format!("[{i}]: {}", e.0))
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(inner) => inner.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self> {
        Ok(v.clone())
    }
}

// --- simdes time impls (transparent nanosecond integers) -------------------

impl ToJson for SimTime {
    fn to_json(&self) -> Json {
        Json::UInt(self.nanos())
    }
}

impl FromJson for SimTime {
    fn from_json(v: &Json) -> Result<Self> {
        Ok(SimTime(v.expect_u64()?))
    }
}

impl ToJson for SimDuration {
    fn to_json(&self) -> Json {
        Json::UInt(self.nanos())
    }
}

impl FromJson for SimDuration {
    fn from_json(v: &Json) -> Result<Self> {
        Ok(SimDuration(v.expect_u64()?))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(v: &Json) -> Result<Self> {
        T::from_json(v).map(Box::new)
    }
}

/// Fixed-size arrays and tuples travel as JSON arrays of that length.
impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self> {
        let items = expect_len(v, N)?;
        let decoded = items.iter().map(T::from_json).collect::<Result<Vec<T>>>()?;
        decoded
            .try_into()
            .map_err(|_| JsonError(format!("expected {N}-element array")))
    }
}

fn expect_len(v: &Json, n: usize) -> Result<&[Json]> {
    let items = v.expect_array()?;
    if items.len() != n {
        return err(format!(
            "expected {n}-element array, got {} elements",
            items.len()
        ));
    }
    Ok(items)
}

macro_rules! impl_json_tuple {
    ($n:literal: $($t:ident $i:tt),+) => {
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Array(vec![$(self.$i.to_json()),+])
            }
        }
        impl<$($t: FromJson),+> FromJson for ($($t,)+) {
            fn from_json(v: &Json) -> Result<Self> {
                let items = expect_len(v, $n)?;
                Ok(($($t::from_json(&items[$i])?,)+))
            }
        }
    };
}

impl_json_tuple!(2: A 0, B 1);
impl_json_tuple!(3: A 0, B 1, C 2);

// ---------------------------------------------------------------------------
// Declarative record codec
// ---------------------------------------------------------------------------

/// Declare the JSON form of a record or an enum and generate both its
/// [`ToJson`] and its [`FromJson`] impl from the one declaration, so the
/// encoder and the decoder cannot disagree about the keys.
///
/// ```
/// use tracefmt::json::{self, FromJson};
///
/// #[derive(Debug, PartialEq)]
/// pub struct Link { pub latency: u64, pub scale: f64, pub label: Option<String> }
/// tracefmt::json_codec! {
///     struct Link { latency, scale = 1.0, label = None }
/// }
///
/// #[derive(Debug, PartialEq)]
/// pub enum Shape { Flat, Scaled(f64), Ring { ranks: u32 }, Star }
/// tracefmt::json_codec! {
///     enum Shape { Flat, Scaled(_), Ring { ranks }, Star = "star" }
/// }
///
/// assert_eq!(
///     json::to_string(&Link { latency: 3, scale: 1.0, label: None }),
///     r#"{"latency":3,"scale":1.0,"label":null}"#
/// );
/// assert_eq!(json::from_str::<Link>(r#"{"latency":3}"#).unwrap().scale, 1.0);
/// let typo = json::from_str::<Link>(r#"{"latency":3,"scael":2.0}"#).unwrap_err();
/// assert_eq!(typo.0, "unknown key 'scael' in Link (did you mean 'scale'?)");
/// assert_eq!(json::to_string(&Shape::Ring { ranks: 4 }), r#"{"Ring":{"ranks":4}}"#);
/// assert_eq!(json::from_str::<Shape>(r#""star""#).unwrap(), Shape::Star);
/// ```
///
/// **Records** list their keys in encoding order. Each key is a field of
/// the same name, encoded with its [`ToJson`]. A key is required unless it
/// names a default (`key = expr`), which a missing or `null` key takes.
/// Constant tags go in brackets before the fields
/// (`struct Report [schema = SCHEMA] { .. }`): they are written first and
/// must read back equal. A record whose decoded fields still need
/// checking, or that derives private state, ends in `=> expr`: the
/// decoded fields are then bound to locals of the same names, and `expr`
/// builds the value as a [`Result`].
///
/// **Enums** are externally tagged, as serde does by default: a unit
/// variant is its name as a string, a newtype variant `V(_)` is
/// `{"V": payload}`, and a struct variant `V { a, b }` is
/// `{"V": {"a": .., "b": ..}}`, its payload decoded like a record.
/// `V = "name"` renames a unit variant on the wire. An internally tagged
/// enum (`enum Reply in "type" { Pong { nonce } = "pong", Stats(stats) =
/// "stats", Draining = "draining" }`) names every variant's tag value;
/// the variant's keys sit next to the tag, and a newtype variant's
/// payload goes under its own key.
///
/// Decoding is strict and walks each record's entries once: a key that is
/// not declared, a key given twice, a missing required key, and a value
/// of the wrong type are all errors naming the key and the type.
#[macro_export]
macro_rules! json_codec {
    (struct $ty:ident $([$($tag:ident = $tag_value:expr),* $(,)?])?
        { $($field:ident $(= $default:expr)?),* $(,)? } $(=> $build:expr)?) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Object(vec![
                    $($((stringify!($tag).to_string(), $crate::json::ToJson::to_json(&$tag_value)),)*)?
                    $((stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)),)*
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> $crate::json::Result<Self> {
                $crate::json_codec!(@decode v, stringify!($ty),
                    [$($($tag = $tag_value),*)?], [], [$($field $(= $default)?),*],
                    $crate::json_codec!(@build $ty [$($field),*] $($build)?))
            }
        }
    };
    (enum $ty:ident { $($variant:ident $(($newtype:tt))? $({ $($vfield:ident),* $(,)? })?
        $(= $name:literal)?),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($crate::json_codec!(@pattern $ty $variant payload
                        [$($newtype)?] [$({ $($vfield),* })?])
                    => $crate::json_codec!(@encode payload,
                        $crate::json_codec!(@name $variant $($name)?),
                        [$($newtype)?] [$({ $($vfield),* })?]),)*
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> $crate::json::Result<Self> {
                const NAMES: &[&str] = &[$($crate::json_codec!(@name $variant $($name)?)),*];
                let (name, payload) = $crate::json::variant_parts(v, stringify!($ty))?;
                match name {
                    $($crate::json_codec!(@name $variant $($name)?) => $crate::json_codec!(
                        @variant $ty $variant payload [$($newtype)?] [$({ $($vfield),* })?]),)*
                    other => Err($crate::json::unknown(other, "variant", stringify!($ty), NAMES)),
                }
            }
        }
    };

    (enum $ty:ident in $tag:literal { $($variant:ident $(($key:ident))?
        $({ $($vfield:ident $(= $vdefault:expr)?),* $(,)? })? = $name:literal),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($crate::json_codec!(@pattern $ty $variant payload [$($key)?] [$({ $($vfield),* })?])
                    => $crate::json::Json::Object(vec![
                        ($tag.to_string(), $crate::json::Json::Str($name.to_string())),
                        $((stringify!($key).to_string(), $crate::json::ToJson::to_json($key)),)?
                        $($((stringify!($vfield).to_string(), $crate::json::ToJson::to_json($vfield)),)*)?
                    ]),)*
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> $crate::json::Result<Self> {
                const NAMES: &[&str] = &[$($name),*];
                match $crate::json::tag_of(v, $tag, stringify!($ty))? {
                    $($name => $crate::json_codec!(@decode v,
                        concat!(stringify!($ty), "::", stringify!($variant)), [], [$tag],
                        [$($key)? $($($vfield $(= $vdefault)?),*)?],
                        Ok($crate::json_codec!(@pattern $ty $variant payload
                            [$($key)?] [$({ $($vfield),* })?]))),)*
                    other => Err($crate::json::unknown(other, concat!("record ", $tag), stringify!($ty), NAMES)),
                }
            }
        }
    };

    // --- internals -------------------------------------------------------
    (@decode $v:ident, $ty:expr, [$($tag:ident = $tag_value:expr),*], [$($skip:literal)?],
        [$($field:ident $(= $default:expr)?),*], $build:expr) => {{
        const KEYS: &[&str] = &[$(stringify!($tag),)* $(stringify!($field)),*];
        $(let mut $tag = None;)*
        $(let mut $field = None;)*
        for (key, value) in $crate::json::object_entries($v, $ty)? {
            match key.as_str() {
                $($skip => {})?
                $(stringify!($tag) => $crate::json::decode_key::<$crate::json::Json>(
                    &mut $tag, value, false, $ty, key)?,)*
                $(stringify!($field) => $crate::json::decode_key(&mut $field, value,
                    $crate::json_codec!(@has_default $($default)?), $ty, key)?,)*
                other => return Err($crate::json::unknown(other, "key", $ty, KEYS)),
            }
        }
        $($crate::json::check_tag($tag, &$tag_value, $ty, stringify!($tag))?;)*
        $(let $field = match $field {
            Some(Some(value)) => value,
            _ => $crate::json_codec!(@missing $ty, $field $(, $default)?),
        };)*
        $build
    }};
    (@build $ty:ident [$($field:ident),*]) => { Ok($ty { $($field),* }) };
    (@build $ty:ident [$($field:ident),*] $build:expr) => { $build };
    (@has_default) => { false };
    (@has_default $default:expr) => { true };
    (@missing $ty:expr, $field:ident) => { return Err($crate::json::missing(stringify!($field), $ty)) };
    (@missing $ty:expr, $field:ident, $default:expr) => { $default };
    (@name $variant:ident) => { stringify!($variant) };
    (@name $variant:ident $name:literal) => { $name };
    (@pattern $ty:ident $variant:ident $payload:ident [] []) => { $ty::$variant };
    (@pattern $ty:ident $variant:ident $payload:ident [_] []) => { $ty::$variant($payload) };
    (@pattern $ty:ident $variant:ident $payload:ident [$key:ident] []) => { $ty::$variant($key) };
    (@pattern $ty:ident $variant:ident $payload:ident [] [{ $($vfield:ident),* }]) => {
        $ty::$variant { $($vfield),* }
    };
    (@encode $payload:ident, $name:expr, [] []) => { $crate::json::Json::Str($name.to_string()) };
    (@encode $payload:ident, $name:expr, [_] []) => {
        $crate::json::Json::Object(vec![($name.to_string(), $crate::json::ToJson::to_json($payload))])
    };
    (@encode $payload:ident, $name:expr, [] [{ $($vfield:ident),* }]) => {
        $crate::json::Json::Object(vec![($name.to_string(), $crate::json::Json::Object(vec![
            $((stringify!($vfield).to_string(), $crate::json::ToJson::to_json($vfield))),*
        ]))])
    };
    (@variant $ty:ident $variant:ident $payload:ident [] []) => {
        $crate::json::unit_variant($payload, stringify!($ty), stringify!($variant)).map(|()| $ty::$variant)
    };
    (@variant $ty:ident $variant:ident $payload:ident [_] []) => {
        $crate::json::FromJson::from_json(
            $crate::json::payload_of($payload, stringify!($ty), stringify!($variant))?,
        )
        .map($ty::$variant)
        .map_err(|e| $crate::json::nested(concat!(stringify!($ty), "::", stringify!($variant)), e))
    };
    (@variant $ty:ident $variant:ident $payload:ident [] [{ $($vfield:ident),* }]) => {{
        let body = $crate::json::payload_of($payload, stringify!($ty), stringify!($variant))?;
        $crate::json_codec!(@decode body, concat!(stringify!($ty), "::", stringify!($variant)),
            [], [], [$($vfield),*], Ok($ty::$variant { $($vfield),* }))
    }};
}

/// The entries of the object `v` decoded as a `ty`.
#[doc(hidden)]
pub fn object_entries<'a>(v: &'a Json, ty: &str) -> Result<&'a [(String, Json)]> {
    v.as_object().ok_or_else(|| not_an_object(ty, v))
}

#[cold]
#[inline(never)]
fn not_an_object(ty: &str, v: &Json) -> JsonError {
    JsonError(format!("expected object for {ty}, got {}", v.kind()))
}

/// Decode `value` into the slot of key `key` of a `ty`: a slot already
/// filled means the key was repeated, and `null` leaves a defaulted key
/// (`null_is_absent`) at its default.
///
/// Out of line, so every key of one type shares one copy: inlined, the
/// nested decoders made each record's decoder several times the size of
/// the hand-written one it replaced.
#[doc(hidden)]
#[inline(never)]
pub fn decode_key<T: FromJson>(
    slot: &mut Option<Option<T>>,
    value: &Json,
    null_is_absent: bool,
    ty: &str,
    key: &str,
) -> Result<()> {
    if slot.is_some() {
        return Err(duplicate(key, ty));
    }
    *slot = Some(if null_is_absent && value.is_null() {
        None
    } else {
        Some(T::from_json(value).map_err(|e| in_key(ty, key, e))?)
    });
    Ok(())
}

// The error constructors stay out of line: every declared record
// instantiates the decoder, and only malformed input reaches them.

#[cold]
#[inline(never)]
fn duplicate(key: &str, ty: &str) -> JsonError {
    JsonError(format!("duplicate key '{key}' in {ty}"))
}

#[cold]
#[inline(never)]
fn in_key(ty: &str, key: &str, e: JsonError) -> JsonError {
    JsonError(format!("{ty}.{key}: {}", e.0))
}

/// The error for an absent required key `key` of a `ty`.
#[doc(hidden)]
#[cold]
#[inline(never)]
pub fn missing(key: &str, ty: &str) -> JsonError {
    JsonError(format!("missing key '{key}' in {ty}"))
}

/// An error from inside `context`, prefixed with it.
#[doc(hidden)]
#[cold]
#[inline(never)]
pub fn nested(context: &str, e: JsonError) -> JsonError {
    JsonError(format!("{context}: {}", e.0))
}

/// A constant tag of a `ty` record must be present with its one value.
#[doc(hidden)]
pub fn check_tag<T: ToJson + ?Sized>(
    found: Option<Option<Json>>,
    want: &T,
    ty: &str,
    key: &str,
) -> Result<()> {
    let want = want.to_json();
    match found.flatten() {
        Some(v) if v == want => Ok(()),
        Some(v) => err(format!(
            "{ty}.{key}: expected {}, got {}",
            want.dump(),
            v.dump()
        )),
        None => Err(missing(key, ty)),
    }
}

/// The string under key `tag` of an internally tagged `ty`.
#[doc(hidden)]
pub fn tag_of<'a>(v: &'a Json, tag: &str, ty: &str) -> Result<&'a str> {
    let entries = object_entries(v, ty)?;
    let mut found = entries.iter().filter(|(k, _)| k == tag);
    match (found.next(), found.next()) {
        (Some(_), Some(_)) => err(format!("duplicate key '{tag}' in {ty}")),
        (Some((_, value)), None) => value
            .as_str()
            .ok_or_else(|| JsonError(format!("{ty}.{tag}: expected string, got {}", value.kind()))),
        (None, _) => {
            let keys: Vec<String> = entries.iter().map(|(k, _)| format!("'{k}'")).collect();
            err(format!(
                "{ty} record has no \"{tag}\" field (keys: {})",
                keys.join(", ")
            ))
        }
    }
}

/// The variant name and payload of an externally tagged `ty`: a bare
/// string, or a one-key object.
#[doc(hidden)]
pub fn variant_parts<'a>(v: &'a Json, ty: &str) -> Result<(&'a str, Option<&'a Json>)> {
    match v {
        Json::Str(name) => Ok((name, None)),
        Json::Object(fields) if fields.len() == 1 => Ok((&fields[0].0, Some(&fields[0].1))),
        other => Err(not_a_variant(ty, other)),
    }
}

#[cold]
#[inline(never)]
fn not_a_variant(ty: &str, v: &Json) -> JsonError {
    let got = match v {
        Json::Object(fields) => {
            let keys: Vec<String> = fields.iter().map(|(k, _)| format!("'{k}'")).collect();
            format!("keys {}", keys.join(", "))
        }
        other => other.kind().to_string(),
    };
    JsonError(format!(
        "expected {ty} variant (string or single-key object), got {got}"
    ))
}

/// A unit variant is a bare string and carries no payload.
#[doc(hidden)]
pub fn unit_variant(payload: Option<&Json>, ty: &str, variant: &str) -> Result<()> {
    match payload {
        None => Ok(()),
        Some(_) => err(format!(
            "{ty}::{variant} is written as the bare string \"{variant}\""
        )),
    }
}

/// The payload of a newtype or struct variant.
#[doc(hidden)]
pub fn payload_of<'a>(payload: Option<&'a Json>, ty: &str, variant: &str) -> Result<&'a Json> {
    payload.ok_or_else(|| JsonError(format!("{ty}::{variant} needs a payload object")))
}

/// The error for an undeclared key or variant `name` of `ty`, suggesting
/// the nearest declared one. Only the error path pays for the search.
#[doc(hidden)]
#[cold]
#[inline(never)]
pub fn unknown(name: &str, what: &str, ty: &str, declared: &[&str]) -> JsonError {
    let nearest = declared.iter().min_by_key(|d| edit_distance(name, d));
    JsonError(match nearest {
        Some(d) => format!("unknown {what} '{name}' in {ty} (did you mean '{d}'?)"),
        None => format!("unknown {what} '{name}' in {ty} (it declares none)"),
    })
}

/// Levenshtein distance over chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("-0").unwrap(), Json::UInt(0));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.0.contains("nesting deeper than 128 levels"), "{e}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Far past any stack: a structured error, not an overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn u64_precision_is_preserved() {
        // 2^63 + 1 is not representable in f64; it must survive a round trip.
        let big = (1u64 << 63) + 1;
        let parsed = Json::parse(&big.to_string()).unwrap();
        assert_eq!(parsed, Json::UInt(big));
        assert_eq!(parsed.dump(), big.to_string());
        assert_eq!(
            Json::parse(&u64::MAX.to_string()).unwrap(),
            Json::UInt(u64::MAX)
        );
        // Beyond u64 falls back to float rather than failing.
        assert!(matches!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Float(_)
        ));
    }

    #[test]
    fn parses_structures() {
        let v = Json::parse(r#"{"a": [1, 2.0, "x"], "b": {"c": null}, "d": []}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap(),
            &[Json::UInt(1), Json::Float(2.0), Json::Str("x".into())]
        );
        assert!(v.field("b").unwrap().get("c").unwrap().is_null());
        assert_eq!(v.get("d").unwrap().as_array().unwrap().len(), 0);
        assert!(v.get("missing").is_none());
        assert!(v.field("missing").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ slash \u{1F600} \u{0001}";
        let dumped = Json::Str(original.into()).dump();
        assert_eq!(Json::parse(&dumped).unwrap(), Json::Str(original.into()));
        // Explicit escape forms parse too.
        assert_eq!(
            Json::parse(r#""Aé😀\/""#).unwrap(),
            Json::Str("Aé\u{1F600}/".into())
        );
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 6.02e23, -2.5e-9, 1e308, f64::MIN_POSITIVE] {
            let dumped = Json::Float(v).dump();
            let back = Json::parse(&dumped).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {dumped} -> {back}");
        }
        assert_eq!(Json::Float(f64::NAN).dump(), "null");
        assert_eq!(Json::Float(f64::INFINITY).dump(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "01x",
            "-",
            "\"unterminated",
            "\"bad \\q escape\"",
            "[1] trailing",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn pretty_matches_compact_semantics() {
        let v = Json::parse(r#"{"net":{"lat":1.5},"ranks":[0,1,2],"name":"x"}"#).unwrap();
        let pretty = v.dump_pretty();
        assert!(
            pretty.contains("\n  \"net\": {\n    \"lat\": 1.5\n  }"),
            "{pretty}"
        );
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        // Empty containers stay on one line.
        assert_eq!(Json::Array(vec![]).dump_pretty(), "[]");
        assert_eq!(Json::Object(vec![]).dump_pretty(), "{}");
    }

    #[test]
    fn variant_accessor() {
        let unit = Json::parse("\"Eager\"").unwrap();
        assert_eq!(unit.expect_variant().unwrap(), ("Eager", &Json::Null));
        let tagged = Json::parse(r#"{"Auto":{"eager_limit":32768}}"#).unwrap();
        let (name, payload) = tagged.expect_variant().unwrap();
        assert_eq!(name, "Auto");
        assert_eq!(payload.field("eager_limit").unwrap().as_u64(), Some(32768));
        assert!(Json::parse(r#"{"a":1,"b":2}"#)
            .unwrap()
            .expect_variant()
            .is_err());
    }

    #[test]
    fn primitive_trait_round_trips() {
        assert_eq!(from_str::<u32>(&to_string(&7u32)).unwrap(), 7);
        assert_eq!(from_str::<u64>(&to_string(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>(&to_string(&-3i64)).unwrap(), -3);
        assert_eq!(from_str::<f64>(&to_string(&0.25f64)).unwrap(), 0.25);
        assert!(from_str::<bool>(&to_string(&true)).unwrap());
        assert_eq!(from_str::<String>(&to_string("hey")).unwrap(), "hey");
        assert_eq!(
            from_str::<Vec<u64>>(&to_string(&vec![1u64, 2])).unwrap(),
            vec![1, 2]
        );
        assert_eq!(from_str::<Option<u64>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u64>>("5").unwrap(), Some(5));
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u64>("-1").is_err());
    }

    #[test]
    fn sim_time_round_trips_transparently() {
        assert_eq!(to_string(&SimTime(123)), "123");
        assert_eq!(from_str::<SimTime>("123").unwrap(), SimTime(123));
        assert_eq!(to_string(&SimDuration(456)), "456");
        assert_eq!(from_str::<SimDuration>("456").unwrap(), SimDuration(456));
        let big = SimTime(u64::MAX - 1);
        assert_eq!(from_str::<SimTime>(&to_string(&big)).unwrap(), big);
    }
}
