//! Trace-file parsing, validation, and summarization.
//!
//! The `ps-trace` CLI (and `tests/trace.rs`) consume the exporter's
//! Chrome trace files through this module: a small recursive-descent JSON
//! parser (the workspace is zero-dep by design), a strict validator, and
//! a summarizer producing per-stage latency quantiles, a steal/region
//! overlap picture, and a top-spans-by-time table.

use std::collections::HashMap;
use std::fmt;

// ---- minimal JSON ----

/// A parsed JSON value (numbers as f64 — plenty for microsecond stamps).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {}", self.pos, msg)
    }

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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| {
            let s = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-utf8 number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control byte as one slice, validating only those
                    // bytes (the delimiters are ASCII, so they never fall
                    // inside a multi-byte scalar).
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("non-utf8 string"))?;
                    out.push_str(run);
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a complete JSON document (rejecting trailing garbage).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Strict syntactic validation: the whole text must be one JSON document.
pub fn validate_json(text: &str) -> Result<(), String> {
    parse_json(text).map(|_| ())
}

// ---- trace records ----

/// One Chrome trace record, as written by [`crate::export`].
#[derive(Clone, Debug)]
pub struct TraceRecord {
    pub name: String,
    pub ph: char,
    pub ts_us: f64,
    pub dur_us: f64,
    pub tid: u64,
    pub span: u64,
    pub a: u64,
    pub b: u64,
    pub label: Option<String>,
}

/// Parse a trace file into records, validating structure along the way.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, String> {
    let doc = parse_json(text)?;
    let Json::Arr(items) = doc else {
        return Err("trace file is not a JSON array".into());
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record {i}: missing name"))?
            .to_string();
        let ph = item
            .get("ph")
            .and_then(Json::as_str)
            .and_then(|s| s.chars().next())
            .ok_or_else(|| format!("record {i}: missing ph"))?;
        let ts_us = item
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("record {i}: missing ts"))?;
        let dur_us = item.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
        let tid = item.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let args = item.get("args");
        let arg = |k: &str| {
            args.and_then(|a| a.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64
        };
        let label = args
            .and_then(|a| a.get("label"))
            .and_then(Json::as_str)
            .map(str::to_string);
        out.push(TraceRecord {
            name,
            ph,
            ts_us,
            dur_us,
            tid,
            span: arg("span"),
            a: arg("a"),
            b: arg("b"),
            label,
        });
    }
    Ok(out)
}

// ---- summarization ----

#[derive(Clone, Debug, Default)]
pub struct DurStat {
    pub name: String,
    pub count: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub total_us: f64,
}

/// Everything the `ps-trace` CLI prints about a trace file.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    pub records: usize,
    pub threads: usize,
    /// Records whose timestamps were non-monotone (0 for a valid file).
    pub ts_regressions: usize,
    /// Per-name durations from `X` records and matched `B`/`E` pairs.
    pub durations: Vec<DurStat>,
    /// Instant-event counts per name.
    pub counts: Vec<(String, usize)>,
    /// Peak number of executor regions (`publish` spans) live at once.
    pub max_region_overlap: usize,
    pub steals: usize,
    /// Labelled spans (solve/region) by total time, descending.
    pub top_spans: Vec<(String, f64, usize)>,
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Build the summary. `B`/`E` records pair up per `(tid, name)` as a
/// stack (the exporter preserves per-thread order, so nesting is sound).
pub fn summarize(records: &[TraceRecord]) -> TraceSummary {
    let mut s = TraceSummary {
        records: records.len(),
        ..Default::default()
    };
    let mut threads: Vec<u64> = records.iter().map(|r| r.tid).collect();
    threads.sort_unstable();
    threads.dedup();
    s.threads = threads.len();
    s.ts_regressions = records
        .windows(2)
        .filter(|w| w[1].ts_us < w[0].ts_us)
        .count();

    let mut durs: HashMap<String, Vec<f64>> = HashMap::new();
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut open: HashMap<(u64, String), Vec<(f64, Option<String>)>> = HashMap::new();
    let mut labeled: HashMap<String, (f64, usize)> = HashMap::new();
    let mut region_edges: Vec<(f64, i32)> = Vec::new();

    for r in records {
        match r.ph {
            'X' => {
                durs.entry(r.name.clone()).or_default().push(r.dur_us);
            }
            'B' => {
                open.entry((r.tid, r.name.clone()))
                    .or_default()
                    .push((r.ts_us, r.label.clone()));
            }
            'E' => {
                if let Some((start, label)) =
                    open.get_mut(&(r.tid, r.name.clone())).and_then(Vec::pop)
                {
                    let d = (r.ts_us - start).max(0.0);
                    durs.entry(r.name.clone()).or_default().push(d);
                    if r.name == "publish" {
                        region_edges.push((start, 1));
                        region_edges.push((r.ts_us, -1));
                    }
                    if let Some(label) = label {
                        let e = labeled.entry(label).or_insert((0.0, 0));
                        e.0 += d;
                        e.1 += 1;
                    }
                }
            }
            _ => {
                *counts.entry(r.name.clone()).or_default() += 1;
                if r.name == "steal" {
                    s.steals += 1;
                }
            }
        }
    }

    // Sweep the publish edges for the peak region overlap (+1 before -1
    // at equal timestamps counts a back-to-back handoff as overlapping —
    // the conservative reading).
    region_edges.sort_by(|x, y| x.0.total_cmp(&y.0).then(y.1.cmp(&x.1)));
    let mut live = 0i32;
    for (_, d) in &region_edges {
        live += d;
        s.max_region_overlap = s.max_region_overlap.max(live.max(0) as usize);
    }

    let mut names: Vec<String> = durs.keys().cloned().collect();
    names.sort();
    for name in names {
        let mut v = durs.remove(&name).unwrap();
        v.sort_by(f64::total_cmp);
        s.durations.push(DurStat {
            count: v.len(),
            p50_us: quantile(&v, 0.5),
            p99_us: quantile(&v, 0.99),
            total_us: v.iter().sum(),
            name,
        });
    }
    s.counts = counts.into_iter().collect();
    s.counts.sort();
    s.top_spans = labeled
        .into_iter()
        .map(|(name, (total, count))| (name, total, count))
        .collect();
    s.top_spans
        .sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    s.top_spans.truncate(10);
    s
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: events={} threads={} ts_regressions={}",
            self.records, self.threads, self.ts_regressions
        )?;
        writeln!(f, "stages (us):")?;
        for d in &self.durations {
            writeln!(
                f,
                "  {:<12} n={:<6} p50={:<10.3} p99={:<10.3} total={:.3}",
                d.name, d.count, d.p50_us, d.p99_us, d.total_us
            )?;
        }
        if !self.counts.is_empty() {
            writeln!(f, "events:")?;
            for (name, n) in &self.counts {
                writeln!(f, "  {name:<12} n={n}")?;
            }
        }
        writeln!(
            f,
            "executor: steals={} max_region_overlap={}",
            self.steals, self.max_region_overlap
        )?;
        if !self.top_spans.is_empty() {
            writeln!(f, "top spans by time:")?;
            for (name, total, count) in &self.top_spans {
                writeln!(f, "  {name:<24} total_us={total:<12.3} n={count}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_accepts_and_rejects() {
        assert!(validate_json(r#"[{"a":1.5,"b":[true,null,"x\n"]}]"#).is_ok());
        assert!(validate_json("[1,2,]").is_err());
        assert!(validate_json("[1,2] trailing").is_err());
        assert!(validate_json(r#"{"unterminated":"#).is_err());
        assert!(validate_json("[1e3, -2.5E-2]").is_ok());
    }

    /// String parsing is linear: a multi-megabyte trace parses in well
    /// under a second (it used to re-validate the rest of the document for
    /// every character, 92 s for 3.5 MB).
    #[test]
    fn large_trace_parses_in_linear_time() {
        let record =
            r#"{"name":"chunk","ph":"X","ts":12.5,"dur":3.25,"tid":7,"args":{"label":"Aéé"}}"#;
        let n = 2 * 1024 * 1024 / record.len() + 1;
        let text = format!("[{}]", vec![record; n].join(","));
        assert!(text.len() >= 2 * 1024 * 1024);
        let started = std::time::Instant::now();
        let records = parse_trace(&text).unwrap();
        let took = started.elapsed();
        assert_eq!(records.len(), n);
        assert_eq!(records[n - 1].label.as_deref(), Some("Aéé"));
        assert!(took.as_secs_f64() < 1.0, "parse_trace took {took:?}");
    }

    #[test]
    fn invalid_utf8_inside_a_string_is_rejected() {
        let mut p = Parser {
            bytes: b"\"ab\xffcd\"",
            pos: 0,
        };
        let err = p.string().unwrap_err();
        assert!(err.contains("non-utf8 string"), "{err}");
        // A multi-byte scalar cut short by the closing quote, too.
        let mut p = Parser {
            bytes: b"\"\xc3\"",
            pos: 0,
        };
        assert!(p.string().is_err());
    }

    #[test]
    fn summarize_pairs_spans_and_counts_overlap() {
        let mk = |name: &str, ph: char, ts: f64, tid: u64, label: Option<&str>| TraceRecord {
            name: name.into(),
            ph,
            ts_us: ts,
            dur_us: 0.0,
            tid,
            span: 0,
            a: 0,
            b: 0,
            label: label.map(Into::into),
        };
        let recs = vec![
            mk("publish", 'B', 0.0, 1, None),
            mk("publish", 'B', 1.0, 2, None),
            mk("steal", 'i', 1.5, 2, None),
            mk("publish", 'E', 2.0, 1, None),
            mk("publish", 'E', 3.0, 2, None),
            mk("solve", 'B', 0.0, 1, Some("eq:y")),
            mk("solve", 'E', 10.0, 1, None),
        ];
        let s = summarize(&recs);
        assert_eq!(s.max_region_overlap, 2);
        assert_eq!(s.steals, 1);
        let publish = s.durations.iter().find(|d| d.name == "publish").unwrap();
        assert_eq!(publish.count, 2);
        assert_eq!(s.top_spans[0].0, "eq:y");
        assert!((s.top_spans[0].1 - 10.0).abs() < 1e-9);
    }
}
