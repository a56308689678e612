//! A small JSON reader/writer: wire responses, child results and
//! `BENCHMARK.json`. The benchmark parses the program's replies with its
//! own code so that the client's cost does not change when the program's
//! JSON module does.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept so a rewritten file diffs cleanly.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: src.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// One line, no spaces — a result line or a wire frame.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Style::Compact, 0);
        out
    }

    /// Two-space indented; the members of an array each stay on one
    /// line, which keeps `BENCHMARK.json`'s metric lists readable.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Style::Pretty, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, style: Style, depth: usize) {
        let nl = |out: &mut String, depth: usize| {
            if style == Style::Pretty {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', 2 * depth));
            }
        };
        // After a comma: nothing (compact), a space (line), a line break
        // (pretty; for an array of scalars, which stays on its line, a space).
        let comma = if style == Style::Compact { "," } else { ", " };
        let colon = if style == Style::Compact { ":" } else { ": " };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let scalars = items
                    .iter()
                    .all(|i| !matches!(i, Json::Obj(_) | Json::Arr(_)));
                // An array of scalars stays on its line; members of any
                // other array get a line each.
                let (item_style, broken) = match style {
                    Style::Pretty if scalars => (Style::Line, false),
                    Style::Pretty => (Style::Line, true),
                    other => (other, false),
                };
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if broken { "," } else { comma });
                    }
                    if broken {
                        nl(out, depth + 1);
                    }
                    item.write(out, item_style, 0);
                }
                if broken && !items.is_empty() {
                    nl(out, depth);
                }
                out.push(']');
            }
            Json::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if style == Style::Pretty { "," } else { comma });
                    }
                    nl(out, depth + 1);
                    write_str(out, k);
                    out.push_str(colon);
                    v.write(out, style, depth + 1);
                }
                if !kv.is_empty() {
                    nl(out, depth);
                }
                out.push('}');
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Style {
    /// No whitespace at all.
    Compact,
    /// One line, a space after `,` and `:`.
    Line,
    /// Indented.
    Pretty,
}

fn write_str(out: &mut String, s: &str) {
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
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.i));
                    }
                    kv.push((k, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(kv));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or '}}' at byte {}", self.i));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or ']' at byte {}", self.i));
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad token at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            // Copy the run up to the next quote or escape in one go:
            // response bodies are kilobytes of plain text.
            let run = self.s[self.i..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.extend_from_slice(&self.s[self.i..self.i + run]);
            self.i += run;
            if self.eat("\"") {
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            self.i += 1; // the backslash
            let esc = *self.s.get(self.i).ok_or("unterminated escape")?;
            self.i += 1;
            match esc {
                b'n' => out.push(b'\n'),
                b'r' => out.push(b'\r'),
                b't' => out.push(b'\t'),
                b'b' => out.push(8),
                b'f' => out.push(12),
                b'u' => {
                    let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or("bad \\u escape")?;
                    self.i += 4;
                    // Surrogate pairs do not occur in this protocol;
                    // map anything unrepresentable to U+FFFD.
                    let c = char::from_u32(code).unwrap_or('\u{fffd}');
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                other => out.push(other), // `\"`, `\\`, `\/`
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let src = r#"{"ok":true,"body":"a\n\"b\" é θ","n":[1,2.5,-3e2],"o":{"k":null}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.compact(), src.replace("-3e2", "-300"));
        assert_eq!(
            Json::parse(r#"{"a":[{"b":1,"c":[2,3]}],"d":[4,5]}"#)
                .unwrap()
                .pretty(),
            "{\n  \"a\": [\n    {\"b\": 1, \"c\": [2, 3]}\n  ],\n  \"d\": [4, 5]\n}\n"
        );
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("body").unwrap().as_str(), Some("a\n\"b\" é θ"));
        assert_eq!(
            v.get("n").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        assert!(Json::parse("{\"a\":1} x").is_err());
    }
}
