//! The load generator's own JSON: a request writer and a linear
//! response reader.
//!
//! The generator deliberately does not use `catmark_service::json`.
//! Its parser re-validates the remaining buffer per character, so an
//! `update` response carrying a whole marked CSV would make the client
//! the bottleneck — and a later parser fix would then speed up the
//! benchmark as well as the daemon. This reader touches every byte
//! once.

use std::fmt::Write as _;

/// A parsed response value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn str_of(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    pub fn num_of(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        }
    }

    pub fn bool_of(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    pub fn arr_of(&self, key: &str) -> Option<&[Value]> {
        match self.get(key) {
            Some(Value::Arr(items)) => Some(items),
            _ => None,
        }
    }
}

/// Parse one JSON document in a single left-to-right pass.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Reader { bytes: text.as_bytes(), text, pos: 0 };
    let value = p.value(0)?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(value)
}

struct Reader<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > 32 {
            return Err("nesting too deep".into());
        }
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("bad object at {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("bad array at {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse()
            .map(Value::Num)
            .map_err(|e| format!("bad number at {start}: {e}"))
    }

    /// A string literal. Runs between escapes are copied as slices;
    /// they start and end at ASCII bytes, so they are valid UTF-8.
    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    let esc = *self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err("lone surrogate".into());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).ok_or("bad \\u escape")?);
                        }
                        _ => return Err(format!("bad escape at {}", self.pos)),
                    }
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.text.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|e| e.to_string())
    }
}

/// Builder for one compact request object.
pub struct Request(String);

impl Request {
    pub fn op(op: &str) -> Self {
        let mut r = Request(String::from("{"));
        r.field("op");
        push_str_lit(&mut r.0, op);
        r
    }

    fn field(&mut self, key: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        push_str_lit(&mut self.0, key);
        self.0.push(':');
    }

    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.field(key);
        push_str_lit(&mut self.0, value);
        self
    }

    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.field(key);
        write!(self.0, "{value}").expect("writing to a String never fails");
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.field(key);
        self.0.push_str(if value { "true" } else { "false" });
        self
    }

    pub fn strs(mut self, key: &str, values: &[String]) -> Self {
        self.field(key);
        self.0.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            push_str_lit(&mut self.0, v);
        }
        self.0.push(']');
        self
    }

    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Append `s` as a JSON string literal.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            write!(out, "\\u{b:04x}").expect("writing to a String never fails");
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_the_reader() {
        let csv = "visit_nbr,item_nbr\n1,\"x\"\t\u{1}\n";
        let text = Request::op("update")
            .str("csv", csv)
            .num("version", 7)
            .bool("evidence", true)
            .strs("buyers", &["a".into(), "b\\".into()])
            .finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.str_of("op"), Some("update"));
        assert_eq!(v.str_of("csv"), Some(csv));
        assert_eq!(v.num_of("version"), Some(7.0));
        assert_eq!(v.bool_of("evidence"), Some(true));
        assert_eq!(v.arr_of("buyers").unwrap()[1], Value::Str("b\\".into()));
    }

    #[test]
    fn reader_agrees_with_the_service_parser() {
        let text = r#"{"ok":true,"results":[{"buyer":"bé😀","matched_bits":10,
            "false_positive":9.765625e-4}],"x":null,"y":[],"z":{}}"#;
        let ours = parse(text).unwrap();
        let theirs = catmark_service::json::parse(text).unwrap();
        let r = &ours.arr_of("results").unwrap()[0];
        let t = &theirs.get("results").unwrap().as_array().unwrap()[0];
        assert_eq!(r.str_of("buyer"), t.get("buyer").unwrap().as_str());
        assert_eq!(r.num_of("false_positive"), t.get("false_positive").unwrap().as_f64());
        assert_eq!(ours.get("x"), Some(&Value::Null));
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in ["", "{", r#"{"a":}"#, r#"{"a":1,}"#, r#""unterminated"#, "[1 2]", "{} x"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
