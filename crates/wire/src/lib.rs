#![deny(unsafe_code)]
//! # dpcq-wire — a minimal, dependency-free JSON document model
//!
//! One implementation serves every place the workspace speaks JSON: the
//! machine-readable benchmark artifacts (`BENCH_te.json`, written and
//! re-read by `dpcq-bench`'s `bench_json --check`/`--compare`) and the
//! newline-delimited wire protocol of `dpcq-server`. The container this
//! workspace builds in has no crates.io access, so this stays a small
//! hand-rolled tree model rather than a serde stand-in.
//!
//! Two renderers cover both consumers:
//!
//! * [`Json::render`] — pretty-printed with a trailing newline, for
//!   human-diffable committed artifacts;
//! * [`Json::render_compact`] — single-line, no interior newlines (string
//!   newlines are escaped by the grammar), for newline-delimited protocol
//!   frames.
//!
//! [`Json::parse`] reads both forms. Protocol frames with nested objects
//! — e.g. the `stats` response's `relation_versions` version vector —
//! round-trip through `render_compact` → `parse` unchanged (pinned by
//! tests here and in `dpcq_server::protocol`).

use std::fmt::Write as _;

/// A minimal JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (benchmark medians in ns are exact integers).
    Int(i128),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object field list.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses a JSON document (the counterpart of [`Json::render`] /
    /// [`Json::render_compact`]). Numbers without fraction or exponent
    /// parse as [`Json::Int`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view of [`Json::Int`] / [`Json::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of [`Json::Int`].
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view of [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view of [`Json::Arr`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object-entry view of [`Json::Obj`].
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn escape(s: &str, out: &mut String) {
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

    fn write_num(f: f64, out: &mut String) {
        // Keep a decimal point on integral floats so a parse round-trip
        // preserves the Int/Num distinction.
        if f.is_finite() && f.fract() == 0.0 && f.abs() < 1e15 {
            let _ = write!(out, "{f:.1}");
        } else if f.is_finite() {
            let _ = write!(out, "{f}");
        } else {
            out.push_str("null");
        }
    }

    fn write(&self, indent: usize, out: &mut String) {
        let pad = |n: usize, out: &mut String| out.push_str(&"  ".repeat(n));
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(f) => Json::write_num(*f, out),
            Json::Str(s) => Json::escape(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(indent + 1, out);
                    item.write(indent + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(indent, out);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(indent + 1, out);
                    Json::escape(k, out);
                    out.push_str(": ");
                    v.write(indent + 1, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(indent, out);
                out.push('}');
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(f) => Json::write_num(*f, out),
            Json::Str(s) => Json::escape(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::escape(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders the document (pretty-printed, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(0, &mut out);
        out.push('\n');
        out
    }

    /// Renders the document on a single line with no interior newlines —
    /// a valid frame for newline-delimited protocols (string contents are
    /// escaped by the JSON grammar, so the only `\n` a consumer sees is
    /// the frame delimiter the caller appends).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }
}

/// Recursive-descent parser behind [`Json::parse`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Runs of unescaped printable ASCII are copied in one piece;
            // control bytes, escapes and multi-byte UTF-8 go byte by byte
            // below.
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let run = rest
                .iter()
                .take_while(|&&b| (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\')
                .count();
            if run > 0 {
                out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
                self.pos += run;
            }
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| "truncated utf-8".to_string())?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if text.is_empty() || text == "-" {
            return Err(format!("expected a value at byte {start}"));
        }
        if fractional {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Json {
        Json::obj([
            ("name", Json::Str("a \"b\"\nç".into())),
            ("n", Json::Int(-42)),
            ("big", Json::Int(14219838995)),
            ("ratio", Json::Num(2.5)),
            ("exp", Json::Num(1.5e-3)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("items", Json::Arr(vec![Json::Int(1), Json::Null])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            (
                "nested",
                Json::obj([("floors", Json::obj([("x", Json::Num(2.0))]))]),
            ),
        ])
    }

    #[test]
    fn parse_roundtrips_rendered_documents() {
        let doc = sample_doc();
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("n").and_then(Json::as_i128), Some(-42));
        assert_eq!(parsed.get("ratio").and_then(Json::as_f64), Some(2.5));
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("a \"b\"\nç")
        );
        assert_eq!(
            parsed.get("items").and_then(Json::as_array).unwrap().len(),
            2
        );
        let floors = parsed.get("nested").and_then(|n| n.get("floors")).unwrap();
        assert_eq!(floors.entries().unwrap().len(), 1);
    }

    #[test]
    fn parse_roundtrips_compact_documents() {
        let doc = sample_doc();
        let line = doc.render_compact();
        // A protocol frame: single line, even with embedded string newlines.
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn compact_and_pretty_agree() {
        let doc = sample_doc();
        assert_eq!(
            Json::parse(&doc.render()).unwrap(),
            Json::parse(&doc.render_compact()).unwrap()
        );
    }

    #[test]
    fn stats_shaped_frame_round_trips() {
        // The `dpcq_server` stats response shape: a nested version-vector
        // object keyed by relation names plus scoped-invalidation
        // counters. Pinned here (in addition to the protocol-level test)
        // so the wire layer cannot silently drop or reorder the nested
        // object a monitoring client keys on.
        let frame = Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::Str("stats".into())),
            ("generation", Json::Int(3)),
            (
                "relation_versions",
                Json::Obj(vec![
                    ("Edge".to_string(), Json::Int(3)),
                    ("Tag".to_string(), Json::Int(0)),
                ]),
            ),
            ("cache_scoped_hits", Json::Int(4)),
            ("cache_scoped_misses", Json::Int(1)),
        ]);
        let line = frame.render_compact();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed, frame);
        let versions = parsed.get("relation_versions").unwrap();
        assert_eq!(versions.get("Edge").and_then(Json::as_i128), Some(3));
        assert_eq!(versions.get("Tag").and_then(Json::as_i128), Some(0));
        assert_eq!(
            parsed.get("cache_scoped_hits").and_then(Json::as_i128),
            Some(4)
        );
        // The pretty renderer parses back to the same tree too.
        assert_eq!(Json::parse(&frame.render()).unwrap(), frame);
    }

    #[test]
    fn durability_shaped_frame_round_trips() {
        // The durable-server stats extension: a nested `durability`
        // object with mixed integer and boolean members. Pinned at the
        // wire layer so the counters a crash-recovery smoke test greps
        // for survive a render/parse round trip exactly.
        let frame = Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::Str("stats".into())),
            (
                "durability",
                Json::obj([
                    ("wal_records", Json::Int(12)),
                    ("wal_bytes", Json::Int(980)),
                    ("last_snapshot_generation", Json::Int(2)),
                    ("recovered", Json::Bool(true)),
                ]),
            ),
        ]);
        let line = frame.render_compact();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed, frame);
        let durability = parsed.get("durability").unwrap();
        assert_eq!(
            durability.get("wal_records").and_then(Json::as_i128),
            Some(12)
        );
        assert_eq!(
            durability.get("recovered").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(Json::parse(&frame.render()).unwrap(), frame);
    }

    #[test]
    fn overload_shaped_frames_round_trip() {
        // The overload-control surface: the retryable shed frame a
        // client's back-off loop keys on, and the nested `overload`
        // counter object in stats. Pinned at the wire layer so neither
        // the `overloaded` marker nor `retry_after_ms` can be silently
        // dropped or retyped.
        let shed = Json::obj([
            ("ok", Json::Bool(false)),
            (
                "error",
                Json::Str("server overloaded; retry after 100 ms".into()),
            ),
            ("overloaded", Json::Bool(true)),
            ("retry_after_ms", Json::Int(100)),
        ]);
        let line = shed.render_compact();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed, shed);
        assert_eq!(parsed.get("overloaded").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("retry_after_ms").and_then(Json::as_i128),
            Some(100)
        );

        let stats = Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::Str("stats".into())),
            (
                "overload",
                Json::obj([
                    ("shed_requests", Json::Int(9)),
                    ("deadline_timeouts", Json::Int(2)),
                    ("cost_rejected", Json::Int(5)),
                    ("inflight", Json::Int(1)),
                ]),
            ),
        ]);
        let parsed = Json::parse(&stats.render_compact()).unwrap();
        assert_eq!(parsed, stats);
        let overload = parsed.get("overload").unwrap();
        assert_eq!(
            overload.get("shed_requests").and_then(Json::as_i128),
            Some(9)
        );
        assert_eq!(
            overload.get("deadline_timeouts").and_then(Json::as_i128),
            Some(2)
        );
        assert_eq!(Json::parse(&stats.render()).unwrap(), stats);
    }

    #[test]
    fn telemetry_shaped_frames_round_trip() {
        // The observability surface: the stats frame's registry-sourced
        // counters (requests by op) and a traced release's per-stage
        // breakdown. Pinned at the wire layer so a dashboard keying on
        // `requests_total.release` or `trace.sample` cannot be broken by
        // a silent reorder or retype.
        let stats = Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::Str("stats".into())),
            (
                "requests_total",
                Json::Obj(vec![
                    ("release".to_string(), Json::Int(41)),
                    ("batch".to_string(), Json::Int(2)),
                    ("stats".to_string(), Json::Int(7)),
                ]),
            ),
            ("errors_total", Json::Int(3)),
            ("uptime_ms", Json::Int(91_250)),
        ]);
        let line = stats.render_compact();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed, stats);
        let requests = parsed.get("requests_total").unwrap();
        assert_eq!(requests.get("release").and_then(Json::as_i128), Some(41));
        assert_eq!(parsed.get("errors_total").and_then(Json::as_i128), Some(3));
        assert_eq!(
            parsed.get("uptime_ms").and_then(Json::as_i128),
            Some(91_250)
        );
        assert_eq!(Json::parse(&stats.render()).unwrap(), stats);

        let traced = Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::Str("release".into())),
            ("value", Json::Num(26.5)),
            ("cached", Json::Bool(false)),
            (
                "trace",
                Json::Obj(vec![
                    ("admission".to_string(), Json::Int(38)),
                    ("reserve".to_string(), Json::Int(11)),
                    ("prepare".to_string(), Json::Int(469)),
                    ("sample".to_string(), Json::Int(8)),
                ]),
            ),
        ]);
        let parsed = Json::parse(&traced.render_compact()).unwrap();
        assert_eq!(parsed, traced);
        let trace = parsed.get("trace").unwrap();
        // Stage order is meaningful (wall-clock order); `entries` must
        // preserve it.
        let stages: Vec<&str> = trace
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(stages, ["admission", "reserve", "prepare", "sample"]);
        assert_eq!(trace.get("sample").and_then(Json::as_i128), Some(8));
        assert_eq!(Json::parse(&traced.render()).unwrap(), traced);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nulls").is_err());
    }

    #[test]
    fn parse_unicode_escape() {
        let v = Json::parse("\"a\\u0041\\t\"").unwrap();
        assert_eq!(v.as_str(), Some("aA\t"));
    }

    #[test]
    fn renders_and_escapes() {
        let doc = Json::obj([
            ("name", Json::Str("a \"b\"\n".into())),
            ("n", Json::Int(42)),
            ("ratio", Json::Num(2.5)),
            ("nan", Json::Num(f64::NAN)),
            ("flag", Json::Bool(true)),
            ("items", Json::Arr(vec![Json::Int(1), Json::Null])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = doc.render();
        assert!(s.contains("\"a \\\"b\\\"\\n\""));
        assert!(s.contains("\"n\": 42"));
        assert!(s.contains("\"ratio\": 2.5"));
        assert!(s.contains("\"nan\": null"));
        assert!(s.contains("\"empty\": []"));
        assert!(s.ends_with("}\n"));
        let c = doc.render_compact();
        assert!(c.contains("\"n\":42"));
        assert!(c.contains("\"nan\":null"));
    }

    #[test]
    fn bool_view() {
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Int(1).as_bool(), None);
    }

    // The byte-pinning tests below hold the exact renderings and parse
    // results of the original `format!`/per-byte codec, so a faster
    // codec cannot change a wire frame or an error text.

    #[test]
    fn int_renderings_are_pinned() {
        for (i, text) in [
            (i128::MIN, "-170141183460469231731687303715884105728"),
            (i128::MAX, "170141183460469231731687303715884105727"),
            (0, "0"),
            (-1, "-1"),
            (-42, "-42"),
            (1_000_000_007, "1000000007"),
        ] {
            assert_eq!(Json::Int(i).render_compact(), text);
            assert_eq!(Json::Int(i).render(), format!("{text}\n"));
        }
    }

    #[test]
    fn num_renderings_are_pinned() {
        let zeros = |n: usize| "0".repeat(n);
        let cases = [
            (0.0, "0.0".to_string()),
            (-0.0, "-0.0".to_string()),
            (-3.0, "-3.0".to_string()),
            (1e14, "100000000000000.0".to_string()),
            // From 1e15 up integral floats lose the decimal point.
            (1e15, "1000000000000000".to_string()),
            (-1e15, "-1000000000000000".to_string()),
            (1e16, "10000000000000000".to_string()),
            (9.999999999999998e14, "999999999999999.8".to_string()),
            (2.5, "2.5".to_string()),
            (1.5e-3, "0.0015".to_string()),
            (0.1, "0.1".to_string()),
            (123456789.125, "123456789.125".to_string()),
            (1e300, format!("1{}", zeros(300))),
            (f64::MAX, format!("17976931348623157{}", zeros(292))),
            // Subnormals and the smallest normal.
            (5e-324, format!("0.{}5", zeros(323))),
            (
                2.225073858507201e-308,
                format!("0.{}2225073858507201", zeros(307)),
            ),
            (-1e-310, format!("-0.{}1", zeros(309))),
            (
                f64::MIN_POSITIVE,
                format!("0.{}22250738585072014", zeros(307)),
            ),
            (f64::NAN, "null".to_string()),
            (f64::INFINITY, "null".to_string()),
            (f64::NEG_INFINITY, "null".to_string()),
        ];
        for (f, text) in cases {
            assert_eq!(Json::Num(f).render_compact(), text, "rendering {f:e}");
        }
    }

    #[test]
    fn string_renderings_are_pinned() {
        for (raw, text) in [
            ("a\u{1}b\u{1f}\t\u{7f}", "\"a\\u0001b\\u001f\\t\u{7f}\""),
            ("é\"€\\😀\n\u{0}x", "\"é\\\"€\\\\😀\\n\\u0000x\""),
            ("\r\"", "\"\\r\\\"\""),
            ("plain ascii", "\"plain ascii\""),
            ("", "\"\""),
        ] {
            assert_eq!(Json::Str(raw.into()).render_compact(), text);
        }
    }

    #[test]
    fn string_parses_are_pinned() {
        let long = "a".repeat(70);
        let cases = [
            // Long ASCII runs next to escapes.
            (
                format!("\"{long}\\n{long}\\\"x\\\\\""),
                format!("{long}\n{long}\"x\\"),
            ),
            // `\u` escapes at both ends of a run.
            ("\"abc\\u00e9def\\u0041\"".into(), "abcédefA".into()),
            ("\"\\u0041abc\\u20ac\"".into(), "Aabc€".into()),
            // 2-, 3- and 4-byte UTF-8 after, before and between runs.
            ("\"xyzé€😀tail\"".into(), "xyzé€😀tail".into()),
            ("\"éhead€mid😀\"".into(), "éhead€mid😀".into()),
            // Raw control bytes (and DEL) are accepted as they are.
            (
                "\"a\u{1}b\tc\u{7f}d\u{1f}\"".into(),
                "a\u{1}b\tc\u{7f}d\u{1f}".into(),
            ),
            (
                "\"~ !#$%&'()*+,-./0123456789:;<=>?@[]^_`{|}\"".into(),
                "~ !#$%&'()*+,-./0123456789:;<=>?@[]^_`{|}".into(),
            ),
            ("\"\\/\\b\\f\\r\"".into(), "/\u{8}\u{c}\r".into()),
            ("\"\\ud83d\"".into(), "\u{fffd}".into()),
            ("\"\\u+041\"".into(), "A".into()),
            ("\"\"".into(), String::new()),
        ];
        for (text, want) in cases {
            assert_eq!(Json::parse(&text), Ok(Json::Str(want)), "parsing {text:?}");
        }
        assert_eq!(
            Json::parse("{\"kéy\":\"v\"}"),
            Ok(Json::Obj(vec![("kéy".into(), Json::Str("v".into()))]))
        );
    }

    #[test]
    fn parse_error_texts_are_pinned() {
        for (text, err) in [
            ("\"abc", "unterminated string"),
            ("\"abc\\", "unterminated escape"),
            ("\"ab\\u12", "truncated \\u escape"),
            ("\"ab\\u12\"", "truncated \\u escape"),
            ("\"ab\\x\"", "bad escape at byte 5"),
            ("\"\\ué€\"", "incomplete utf-8 byte sequence from index 2"),
            ("\"\\u00é\"", "invalid digit found in string"),
            ("\"abc\" x", "trailing data at byte 6"),
        ] {
            assert_eq!(Json::parse(text), Err(err.to_string()), "parsing {text:?}");
        }
        // Truncated and invalid UTF-8 cannot reach `Json::parse` (it takes
        // a `&str`), so drive the string reader on raw bytes.
        for (bytes, err) in [
            (&b"\"ab\xc3"[..], "truncated utf-8"),
            (b"\"\xe2\x82", "truncated utf-8"),
            (b"\"a\xf0\x9f\x98", "truncated utf-8"),
            (
                b"\"\x80abc\"",
                "invalid utf-8 sequence of 1 bytes from index 0",
            ),
            (
                b"\"\xc3\x28\"",
                "invalid utf-8 sequence of 1 bytes from index 0",
            ),
        ] {
            let mut parser = Parser { bytes, pos: 0 };
            assert_eq!(parser.string(), Err(err.to_string()), "reading {bytes:?}");
        }
    }
}
