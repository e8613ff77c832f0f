//! A minimal JSON value, emitter and parser.
//!
//! The workspace's `serde` is an offline shim without a JSON backend, so the
//! machine-readable benchmark reports (`BENCH_*.json`) are produced and
//! consumed by this self-contained module instead. It supports exactly the
//! JSON subset the report needs: objects, arrays, strings (with `\"`, `\\`,
//! `\n`, `\t`, `\uXXXX` escapes), numbers, booleans and null.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as usize, if this is a non-negative number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().filter(|n| *n >= 0.0).map(|n| n as usize)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
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
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Returns an error message on malformed input.
    pub fn parse(input: &str) -> Result<Json, String> {
        let chars: Vec<char> = input.chars().collect();
        let mut pos = 0usize;
        let value = parse_value(&chars, &mut pos)?;
        skip_ws(&chars, &mut pos);
        if pos != chars.len() {
            return Err(format!("trailing input at offset {pos}"));
        }
        Ok(value)
    }
}

fn skip_ws(chars: &[char], pos: &mut usize) {
    while *pos < chars.len() && chars[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(chars: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    if chars.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{c}` at offset {pos}", pos = *pos))
    }
}

fn parse_value(chars: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(chars, pos);
    match chars.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(chars, pos);
            if chars.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(chars, pos);
                let key = match parse_value(chars, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(chars, pos);
                expect(chars, pos, ':')?;
                let value = parse_value(chars, pos)?;
                fields.push((key, value));
                skip_ws(chars, pos);
                match chars.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(chars, pos);
            if chars.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(chars, pos)?);
                skip_ws(chars, pos);
                match chars.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some('"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match chars.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some('"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some('\\') => {
                        *pos += 1;
                        match chars.get(*pos) {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('/') => s.push('/'),
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('r') => s.push('\r'),
                            Some('b') => s.push('\u{8}'),
                            Some('f') => s.push('\u{c}'),
                            Some('u') => {
                                let hex: String = chars.iter().skip(*pos + 1).take(4).collect();
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(c) => {
                        s.push(*c);
                        *pos += 1;
                    }
                }
            }
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            *pos += 1;
            while *pos < chars.len()
                && (chars[*pos].is_ascii_digit()
                    || chars[*pos] == '.'
                    || chars[*pos] == 'e'
                    || chars[*pos] == 'E'
                    || chars[*pos] == '+'
                    || chars[*pos] == '-')
            {
                *pos += 1;
            }
            let text: String = chars[start..*pos].iter().collect();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}`"))
        }
        Some('t') if chars[*pos..].starts_with(&['t', 'r', 'u', 'e']) => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if chars[*pos..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if chars[*pos..].starts_with(&['n', 'u', 'l', 'l']) => {
            *pos += 4;
            Ok(Json::Null)
        }
        other => Err(format!("unexpected {other:?} at offset {pos}", pos = *pos)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_report_shaped_documents() {
        let doc = Json::Obj(vec![
            ("schema_version".into(), Json::Num(1.0)),
            (
                "records".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("workload".into(), Json::Str("table7_repair_100".into())),
                    ("repair_ms".into(), Json::Num(12.5)),
                    ("workers".into(), Json::Num(4.0)),
                    ("note".into(), Json::Str("quotes \" and\nnewlines".into())),
                ])]),
            ),
        ]);
        let text = doc.to_json();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(doc, back);
        let records = back.get("records").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(
            records[0].get("workers").and_then(|w| w.as_usize()),
            Some(4)
        );
        assert_eq!(
            records[0].get("workload").and_then(|w| w.as_str()),
            Some("table7_repair_100")
        );
    }

    #[test]
    fn parses_whitespace_escapes_and_literals() {
        let parsed = Json::parse(" { \"a\" : [ 1 , -2.5 , true , false , null , \"\\u0041\" ] } ")
            .expect("parse");
        let arr = parsed.get("a").and_then(|a| a.as_arr()).unwrap();
        assert_eq!(arr.len(), 6);
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[5].as_str(), Some("A"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }
}
