//! The workspace's one JSON writer.
//!
//! Bench reports, timelines, chrome://tracing exports, the ops API's
//! responses and the live swarm's report all build a [`Json`] value and
//! render it. The workspace has no `serde_json` (offline build), and every
//! user only *produces* JSON, so this is a small hand-rolled writer:
//! objects keep insertion order, integers print exactly, floats print with
//! `{}` (shortest round-trip form), non-finite floats become `null`.
//!
//! Two renderings: [`Json::render`] with two-space indentation for the
//! checked-in `results/` files, and [`Json::compact`] with no whitespace
//! for HTTP bodies and traces.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed exactly (every `u64` and `i64` fits).
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}

from_int!(u16, u64, usize, i64);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or appends) a key; builder-style, keeps insertion order.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_owned(), value.into()));
        }
        self
    }

    /// Serializes with two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Serializes with no whitespace at all.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes `self` at `indent` levels deep, or compactly with `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, ('[', ']'), items, |out, item, inner| {
                    item.write(out, inner);
                });
            }
            Json::Obj(fields) => {
                write_seq(
                    out,
                    indent,
                    ('{', '}'),
                    fields,
                    |out, (key, value), inner| {
                        write_escaped(out, key);
                        out.push_str(if inner.is_some() { ": " } else { ":" });
                        value.write(out, inner);
                    },
                );
            }
        }
    }
}

/// Writes `items` between `open` and `close`, one per line when indented.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|n| n + 1);
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        item(out, it, inner);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(indent) = indent {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_object() {
        let j = Json::obj()
            .set("bench", "fig10")
            .set("seed", 42u64)
            .set("max", u64::MAX)
            .set("rates", vec![0.0, 50.0])
            .set(
                "nested",
                Json::obj().set("ok", true).set("missing", Json::Null),
            );
        let s = j.render();
        assert!(s.contains("\"bench\": \"fig10\""));
        assert!(s.contains("\"seed\": 42"));
        // Exact, not 2^64 - 1 through `f64` (18446744073709552000).
        assert!(s.contains("\"max\": 18446744073709551615"));
        assert!(s.contains("\"missing\": null"));
        // Insertion order preserved.
        assert!(s.find("bench").unwrap() < s.find("seed").unwrap());
        assert_eq!(
            j.compact(),
            "{\"bench\":\"fig10\",\"seed\":42,\"max\":18446744073709551615,\
             \"rates\":[0,50],\"nested\":{\"ok\":true,\"missing\":null}}"
        );
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite() {
        let j = Json::obj()
            .set("s", "a\"b\\c\nd")
            .set("nan", f64::NAN)
            .set("inf", f64::INFINITY);
        let s = j.render();
        assert!(s.contains(r#""a\"b\\c\nd""#));
        assert!(s.contains("\"nan\": null"));
        assert!(s.contains("\"inf\": null"));
    }

    #[test]
    fn escapes_strings() {
        let s = |v: &str| Json::from(v).compact();
        assert_eq!(s("plain"), "\"plain\"");
        assert_eq!(s("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(s("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(s("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_and_composites() {
        assert_eq!(Json::from(0.25).compact(), "0.25");
        assert_eq!(Json::from(f64::NAN).compact(), "null");
        assert_eq!(Json::from(None::<f64>).compact(), "null");
        assert_eq!(Json::from(vec![1u64, 2]).compact(), "[1,2]");
        assert_eq!(Json::from(Vec::<u64>::new()).render(), "[]");
        assert_eq!(
            Json::obj().set("a", 1u64).set("b", "x").compact(),
            "{\"a\":1,\"b\":\"x\"}"
        );
        assert_eq!(Json::obj().compact(), "{}");
        assert_eq!(Json::obj().render(), "{}");
    }
}
