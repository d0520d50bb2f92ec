//! Minimal in-tree JSON parser and schema validators.
//!
//! The suite's JSON artifacts — the Chrome traces on both clocks, the
//! `bt-obs` metrics dump, flight dump and live snapshot, and the
//! `bt-bench-v1` bench records — are promised machine-readable. This
//! module backs that promise without an external serde dependency: a
//! recursive-descent parser into a [`Json`] value plus one validator per
//! format ([`validate_chrome_trace`], [`validate_metrics`],
//! [`validate_flight`], [`validate_snapshot`], [`validate_bench`]) and
//! the bench records' perf-regression gate ([`validate_baseline`]).
//! Tests and the CI `obs_validate` binary round-trip every emitted file
//! through them.

use std::collections::BTreeMap;

/// A parsed JSON value. Object keys keep first-wins semantics on
/// duplicates; numbers are `f64` (adequate for the emitted schemas).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number literal.
    Num(f64),
    /// String literal (escapes resolved).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
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
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_whitespace(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
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
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(&format!("unexpected byte '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates map to the replacement character;
                            // the emitted schemas never use them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
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
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value()?;
            map.entry(key).or_insert(value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// A human-readable message with the byte offset of the first error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_whitespace();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

/// What [`validate_chrome_trace`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events (including metadata).
    pub events: usize,
    /// `ph:"X"` complete events.
    pub complete_events: usize,
    /// Distinct `tid`s carrying non-metadata events.
    pub threads: usize,
    /// `ph:"s"` flow starts.
    pub flow_starts: usize,
    /// `ph:"f"` flow finishes.
    pub flow_finishes: usize,
}

/// Validates Chrome trace-event JSON: either a bare event array or an
/// object with a `traceEvents` array. Every event must carry `name`,
/// `ph`, `ts`, `pid` and `tid`; complete (`X`) events a non-negative
/// `dur`; flow (`s`/`f`) events an `id`. Non-metadata timestamps must be
/// monotone per `tid` in array order, and every flow finish must have a
/// matching flow start with the same `id`.
///
/// # Errors
///
/// The first violated rule, with the event index.
pub fn validate_chrome_trace(doc: &Json) -> Result<TraceSummary, String> {
    let events = match doc {
        Json::Arr(items) => items.as_slice(),
        Json::Obj(_) => doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("trace object lacks a traceEvents array")?,
        _ => return Err("trace document is neither an array nor an object".to_string()),
    };
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    let mut last_ts: BTreeMap<i64, f64> = BTreeMap::new();
    let mut flow_start_ids: Vec<String> = Vec::new();
    let mut flow_finish_ids: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_obj()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if !obj.contains_key(key) {
                return Err(format!("event {i} lacks '{key}'"));
            }
        }
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or_default();
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: non-numeric ts"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: non-numeric tid"))? as i64;
        match ph {
            "M" => continue, // metadata has no timeline placement
            "X" => {
                summary.complete_events += 1;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: complete event lacks numeric dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur {dur}"));
                }
            }
            "s" | "f" => {
                let id = ev
                    .get("id")
                    .map(|v| match v {
                        Json::Num(n) => Ok(format!("{n}")),
                        Json::Str(s) => Ok(s.clone()),
                        _ => Err(format!("event {i}: flow id is neither number nor string")),
                    })
                    .transpose()?
                    .ok_or_else(|| format!("event {i}: flow event lacks 'id'"))?;
                if ph == "s" {
                    summary.flow_starts += 1;
                    flow_start_ids.push(id);
                } else {
                    summary.flow_finishes += 1;
                    flow_finish_ids.push(id);
                }
            }
            _ => {}
        }
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(format!(
                "event {i}: ts {ts} goes backwards on tid {tid} (previous {prev})"
            ));
        }
        *prev = ts;
    }
    summary.threads = last_ts.len();
    flow_start_ids.sort_unstable();
    for id in &flow_finish_ids {
        if flow_start_ids.binary_search(id).is_err() {
            return Err(format!("flow finish id {id} has no matching flow start"));
        }
    }
    Ok(summary)
}

/// What [`validate_metrics`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Registered counters.
    pub counters: usize,
    /// Registered gauges.
    pub gauges: usize,
    /// Registered histograms.
    pub histograms: usize,
}

/// Validates a `bt-obs-metrics-v1` document: schema tag, counter values
/// that are non-negative integers, numeric gauges, and histograms whose
/// bucket counts sum to `count`.
///
/// # Errors
///
/// The first violated rule, naming the offending metric.
pub fn validate_metrics(doc: &Json) -> Result<MetricsSummary, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("bt-obs-metrics-v1") => {}
        Some(other) => return Err(format!("unknown metrics schema '{other}'")),
        None => return Err("metrics document lacks a schema tag".to_string()),
    }
    let mut summary = MetricsSummary::default();
    let counters = doc
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("metrics document lacks a counters object")?;
    for (name, v) in counters {
        let v = v
            .as_f64()
            .ok_or_else(|| format!("counter '{name}' is not numeric"))?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!("counter '{name}' is not a non-negative integer"));
        }
        summary.counters += 1;
    }
    let gauges = doc
        .get("gauges")
        .and_then(Json::as_obj)
        .ok_or("metrics document lacks a gauges object")?;
    for (name, v) in gauges {
        if v.as_f64().is_none() {
            return Err(format!("gauge '{name}' is not numeric"));
        }
        summary.gauges += 1;
    }
    let histograms = doc
        .get("histograms")
        .and_then(Json::as_obj)
        .ok_or("metrics document lacks a histograms object")?;
    for (name, h) in histograms {
        let count = h
            .get("count")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("histogram '{name}' lacks numeric count"))?;
        for key in ["sum", "min", "max"] {
            if h.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("histogram '{name}' lacks numeric {key}"));
            }
        }
        let buckets = h
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("histogram '{name}' lacks a buckets array"))?;
        let mut total = 0.0;
        for b in buckets {
            total += b
                .get("count")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histogram '{name}': bucket lacks numeric count"))?;
            if b.get("lt_pow2").and_then(Json::as_f64).is_none() {
                return Err(format!("histogram '{name}': bucket lacks lt_pow2"));
            }
        }
        if (total - count).abs() > 0.5 {
            return Err(format!(
                "histogram '{name}': bucket counts sum to {total}, count is {count}"
            ));
        }
        summary.histograms += 1;
    }
    Ok(summary)
}

/// What [`validate_flight`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightSummary {
    /// Events in the dump.
    pub events: usize,
    /// Total events ever recorded per the header.
    pub recorded: u64,
}

/// Validates a `bt-obs-flight-v1` flight-recorder dump: schema tag,
/// capacity/recorded header, and events carrying numeric
/// `seq`/`t_ns`/`req`/`batch`/`key` plus string `kind`/`detail`, with
/// strictly increasing sequence numbers.
///
/// # Errors
///
/// The first violated rule, with the event index.
pub fn validate_flight(doc: &Json) -> Result<FlightSummary, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("bt-obs-flight-v1") => {}
        Some(other) => return Err(format!("unknown flight schema '{other}'")),
        None => return Err("flight dump lacks a schema tag".to_string()),
    }
    let recorded = doc
        .get("recorded")
        .and_then(Json::as_f64)
        .ok_or("flight dump lacks numeric 'recorded'")?;
    if doc.get("capacity").and_then(Json::as_f64).is_none() {
        return Err("flight dump lacks numeric 'capacity'".to_string());
    }
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("flight dump lacks an events array")?;
    let mut last_seq = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        for key in ["seq", "t_ns", "req", "batch", "key"] {
            if ev.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("flight event {i} lacks numeric '{key}'"));
            }
        }
        for key in ["kind", "detail"] {
            if ev.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("flight event {i} lacks string '{key}'"));
            }
        }
        let seq = ev.get("seq").and_then(Json::as_f64).unwrap_or_default();
        if seq <= last_seq {
            return Err(format!("flight event {i}: seq {seq} not increasing"));
        }
        last_seq = seq;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(FlightSummary {
        events: events.len(),
        recorded: recorded as u64,
    })
}

/// Validates a `bt-obs-snapshot-v1` document (the exporter's `/json`
/// endpoint): latency entries with ordered quantiles and an embedded
/// `bt-obs-metrics-v1` dump.
///
/// # Errors
///
/// The first violated rule, naming the offending entry.
pub fn validate_snapshot(doc: &Json) -> Result<MetricsSummary, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("bt-obs-snapshot-v1") => {}
        Some(other) => return Err(format!("unknown snapshot schema '{other}'")),
        None => return Err("snapshot lacks a schema tag".to_string()),
    }
    let latency = doc
        .get("latency")
        .and_then(Json::as_obj)
        .ok_or("snapshot lacks a latency object")?;
    for (name, entry) in latency {
        let num = |key: &str| {
            entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("latency '{name}' lacks numeric {key}"))
        };
        for key in ["count", "sum", "min", "max"] {
            num(key)?;
        }
        let (p50, p90, p95, p99) = (num("p50")?, num("p90")?, num("p95")?, num("p99")?);
        if !(p50 <= p90 && p90 <= p95 && p95 <= p99) {
            return Err(format!(
                "latency '{name}': quantiles not ordered: {p50} {p90} {p95} {p99}"
            ));
        }
    }
    if doc.get("flight_recorded").and_then(Json::as_f64).is_none() {
        return Err("snapshot lacks numeric 'flight_recorded'".to_string());
    }
    let metrics = doc
        .get("metrics")
        .ok_or("snapshot lacks an embedded metrics document")?;
    validate_metrics(metrics)
}

/// Layers a `bt-bench-v1` cell may name: perfbench's per-layer metric
/// prefixes, so a bench cell and a live metric share one vocabulary.
pub const BENCH_LAYERS: [&str; 6] = ["service", "session", "ard", "comm", "dense", "baseline"];

/// What [`validate_bench`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchSummary {
    /// The writer's name (`bench`).
    pub bench: String,
    /// Cells in the document.
    pub cells: usize,
    /// Cross-checks the cells declare, all within their bounds.
    pub checks: usize,
    /// Speedup claims the cells declare, all met.
    pub claims: usize,
    /// Headline cells the baseline gate tracks.
    pub headlines: usize,
}

/// One bench cell as the gate reads it.
struct BenchCell<'a> {
    name: &'a str,
    metric: &'a str,
    lower_is_better: bool,
    value: f64,
    baseline: Option<f64>,
}

impl BenchCell<'_> {
    /// The figure the gate compares, and whether lower is better for it:
    /// the speedup over the baseline (higher is better) when the cell
    /// has one, else the value in the cell's own direction.
    fn figure(&self) -> Result<(f64, bool), String> {
        let (figure, lower) = match self.baseline {
            None => (self.value, self.lower_is_better),
            Some(base) if self.lower_is_better => (base / self.value, false),
            Some(base) => (self.value / base, false),
        };
        if figure.is_finite() && figure > 0.0 {
            Ok((figure, lower))
        } else {
            let (name, metric) = (self.name, self.metric);
            Err(format!(
                "cell '{name}' ({metric}): figure {figure} is not positive"
            ))
        }
    }
}

/// The one rule every bench number obeys: finite and non-negative.
fn bench_number(v: Option<&Json>, what: impl FnOnce() -> String) -> Result<f64, String> {
    match v.and_then(Json::as_f64) {
        Some(x) if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err(format!("{} is not a finite non-negative number", what())),
    }
}

/// The string member `key` of `v`.
fn bench_text<'a>(
    v: &'a Json,
    key: &str,
    what: impl FnOnce() -> String,
) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{} lacks a string '{key}'", what()))
}

/// A validated `bt-bench-v1` document: its summary, its cells and its
/// headlines as `(name, metric)` pairs.
type BenchDoc<'a> = (BenchSummary, Vec<BenchCell<'a>>, Vec<(&'a str, &'a str)>);

fn read_bench(doc: &Json) -> Result<BenchDoc<'_>, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("bt-bench-v1") => {}
        Some(other) => return Err(format!("unknown bench schema '{other}'")),
        None => return Err("bench document lacks a schema tag".to_string()),
    }
    let bench = bench_text(doc, "bench", || "bench document".into())?;
    let meta = doc
        .get("meta")
        .ok_or("bench document lacks a meta object")?;
    bench_number(meta.get("generated_unix_s"), || {
        "meta.generated_unix_s".into()
    })?;
    if bench_number(meta.get("host_cores"), || "meta.host_cores".into())? < 1.0 {
        return Err("meta.host_cores is below 1".to_string());
    }
    bench_text(meta, "simd", || "meta".into())?;
    bench_text(meta, "backend", || "meta".into())?;
    if !matches!(meta.get("smoke"), Some(Json::Bool(_))) {
        return Err("meta lacks a boolean 'smoke'".to_string());
    }
    let params = doc
        .get("params")
        .and_then(Json::as_obj)
        .ok_or("bench document lacks a params object")?;
    for (key, v) in params {
        bench_number(Some(v), || format!("params.{key}"))?;
    }
    let items = doc
        .get("cells")
        .and_then(Json::as_arr)
        .filter(|c| !c.is_empty())
        .ok_or("bench document lacks a non-empty cells array")?;
    let mut summary = BenchSummary {
        bench: bench.to_string(),
        cells: items.len(),
        ..BenchSummary::default()
    };
    let mut cells: Vec<BenchCell<'_>> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let text = |key: &str| bench_text(item, key, || format!("cells[{i}]"));
        let (name, metric) = (text("name")?, text("metric")?);
        let at = |what: &str| format!("cell '{name}' ({metric}): {what}");
        let layer = text("layer")?;
        if !BENCH_LAYERS.contains(&layer) {
            return Err(at(&format!("unknown layer '{layer}'")));
        }
        text("unit")?;
        let lower_is_better = match text("better")? {
            "lower" => true,
            "higher" => false,
            other => return Err(at(&format!("'better' is '{other}', not lower or higher"))),
        };
        if cells.iter().any(|c| c.name == name && c.metric == metric) {
            return Err(at("duplicate (name, metric)"));
        }
        let optional = |key: &str| {
            (item.get(key))
                .map(|v| bench_number(Some(v), || at(key)))
                .transpose()
        };
        let cell = BenchCell {
            name,
            metric,
            lower_is_better,
            value: bench_number(item.get("value"), || at("value"))?,
            baseline: optional("baseline")?,
        };
        optional("model")?;
        let checks = item.get("checks").map_or(Some(&[][..]), Json::as_arr);
        for check in checks.ok_or_else(|| at("checks is not an array"))? {
            let check_name = bench_text(check, "name", || at("a check"))?;
            let value = bench_number(check.get("value"), || at(check_name))?;
            let max = bench_number(check.get("max"), || at(&format!("{check_name} max")))?;
            if value > max {
                return Err(at(&format!(
                    "check '{check_name}' reads {value:e}, above its max {max:e}"
                )));
            }
            summary.checks += 1;
        }
        if let Some(claim) = optional("claim")? {
            if cell.baseline.is_none() {
                return Err(at("declares a claim but no baseline"));
            }
            let (speedup, _) = cell.figure()?;
            if speedup < claim {
                return Err(at(&format!(
                    "speedup {speedup:.3}x over the baseline misses its {claim}x claim"
                )));
            }
            summary.claims += 1;
        }
        cells.push(cell);
    }
    let items = doc
        .get("headlines")
        .and_then(Json::as_arr)
        .ok_or("bench document lacks a headlines array")?;
    let mut headlines = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let text = |key: &str| bench_text(item, key, || format!("headlines[{i}]"));
        let (name, metric) = (text("name")?, text("metric")?);
        if !cells.iter().any(|c| c.name == name && c.metric == metric) {
            return Err(format!("headline '{name}' ({metric}) names no cell"));
        }
        headlines.push((name, metric));
    }
    summary.headlines = headlines.len();
    Ok((summary, cells, headlines))
}

/// Validates a `bt-bench-v1` bench record, the one format every
/// `BENCH_*.json` file uses:
///
/// ```text
/// {"schema": "bt-bench-v1", "bench": <writer>,
///  "meta": {"generated_unix_s", "host_cores", "simd", "smoke", "backend"},
///  "params": {<numeric run parameters>},
///  "cells": [{"name", "layer", "metric", "unit", "better": "lower"|"higher",
///             "value", "baseline"?, "model"?,
///             "checks"?: [{"name", "value", "max"}], "claim"?}],
///  "headlines": [{"name", "metric"}]}
/// ```
///
/// A cell's name encodes every parameter that changes its measurement,
/// so equal names in two runs mean equal measurements. `baseline` is a
/// comparator's value for the same measurement and `model` the cost
/// model's prediction of `value`; no ratio is stored, a reader computes
/// it. The rules: the tag and the meta fields; every `(name, metric)`
/// pair unique; every number finite and non-negative; every layer one
/// of [`BENCH_LAYERS`]; every check's `value` at most its `max`; every
/// claim met by the speedup over the baseline (oriented by `better`);
/// every headline naming a cell.
///
/// # Errors
///
/// The first violated rule, naming the offending cell.
pub fn validate_bench(doc: &Json) -> Result<BenchSummary, String> {
    read_bench(doc).map(|(summary, ..)| summary)
}

/// One headline the baseline gate compared. A figure is the speedup
/// over the cell's baseline when it has one, else its value.
#[derive(Debug, Clone, PartialEq)]
pub struct GatedFigure {
    /// The cell's name.
    pub name: String,
    /// The cell's metric.
    pub metric: String,
    /// The committed document's figure.
    pub committed: f64,
    /// The fresh document's figure.
    pub fresh: f64,
    /// Fresh over committed in the figure's better direction: below 1.0
    /// is worse.
    pub ratio: f64,
}

/// What [`validate_baseline`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSummary {
    /// The shared writer name.
    pub bench: String,
    /// One entry per committed headline.
    pub figures: Vec<GatedFigure>,
}

/// Perf-regression gate: both documents must validate and come from the
/// same `bench`, the fresh one must hold every committed headline cell,
/// and each headline's figure must reach `tol` of the committed one in
/// its better direction. `tol` is the band: 0.25 lets a noisy rerun
/// keep a quarter of the committed figure, which still catches
/// collapses.
///
/// # Errors
///
/// An invalid document, different benches, a committed document with no
/// headline, a missing headline cell, or a figure below the band.
pub fn validate_baseline(
    committed: &Json,
    fresh: &Json,
    tol: f64,
) -> Result<BaselineSummary, String> {
    let (old, old_cells, headlines) =
        read_bench(committed).map_err(|e| format!("committed: {e}"))?;
    let (new, new_cells, _) = read_bench(fresh).map_err(|e| format!("fresh: {e}"))?;
    if old.bench != new.bench {
        return Err(format!(
            "bench mismatch: committed is '{}', fresh is '{}'",
            old.bench, new.bench
        ));
    }
    if headlines.is_empty() {
        return Err(format!("committed '{}' declares no headline", old.bench));
    }
    let mut figures = Vec::with_capacity(headlines.len());
    for (name, metric) in headlines {
        let is = |c: &&BenchCell<'_>| c.name == name && c.metric == metric;
        let missing = || format!("fresh document lacks headline cell '{name}' ({metric})");
        let committed_cell = old_cells.iter().find(is).expect("validated headline");
        let (committed, lower) = committed_cell.figure()?;
        let (fresh, _) = new_cells.iter().find(is).ok_or_else(missing)?.figure()?;
        let ratio = if lower {
            committed / fresh
        } else {
            fresh / committed
        };
        if ratio < tol {
            return Err(format!(
                "{}: headline '{name}' ({metric}) reads {fresh:.4} against the committed \
                 {committed:.4}, {ratio:.2}x in its better direction (tolerance {tol:.2}x) \
                 — perf regression",
                old.bench
            ));
        }
        let (name, metric) = (name.to_string(), metric.to_string());
        figures.push(GatedFigure {
            name,
            metric,
            committed,
            fresh,
            ratio,
        });
    }
    Ok(BaselineSummary {
        bench: old.bench,
        figures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": [1, -2.5e3, "x\n\"y\"", true, null], "b": {}}"#).unwrap();
        let a = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_str(), Some("x\n\"y\""));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[4], Json::Null);
        assert!(doc.get("b").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_resolve() {
        let doc = parse(r#""rank → 0""#).unwrap();
        assert_eq!(doc.as_str(), Some("rank → 0"));
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = parse(&format!("\"{}\"", escape(nasty))).unwrap();
        assert_eq!(doc.as_str(), Some(nasty));
    }

    #[test]
    fn trace_validator_accepts_minimal_trace() {
        let text = r#"[
            {"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"p"}},
            {"name":"a","ph":"X","ts":1.0,"dur":2.0,"pid":0,"tid":0},
            {"name":"msg","ph":"s","id":7,"ts":2.0,"pid":0,"tid":0},
            {"name":"msg","ph":"f","bp":"e","id":7,"ts":5.0,"pid":0,"tid":1}
        ]"#;
        let summary = validate_chrome_trace(&parse(text).unwrap()).unwrap();
        assert_eq!(summary.complete_events, 1);
        assert_eq!(summary.flow_starts, 1);
        assert_eq!(summary.flow_finishes, 1);
        assert_eq!(summary.threads, 2);
    }

    #[test]
    fn trace_validator_rejects_backwards_time() {
        let text = r#"[
            {"name":"a","ph":"X","ts":5.0,"dur":1.0,"pid":0,"tid":0},
            {"name":"b","ph":"X","ts":4.0,"dur":1.0,"pid":0,"tid":0}
        ]"#;
        let err = validate_chrome_trace(&parse(text).unwrap()).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn trace_validator_rejects_orphan_flow_finish() {
        let text = r#"[
            {"name":"msg","ph":"f","id":9,"ts":1.0,"pid":0,"tid":0}
        ]"#;
        let err = validate_chrome_trace(&parse(text).unwrap()).unwrap_err();
        assert!(err.contains("no matching flow start"), "{err}");
    }

    #[test]
    fn metrics_validator_checks_bucket_sums() {
        let good = r#"{
            "schema": "bt-obs-metrics-v1",
            "counters": {"c": 3},
            "gauges": {"g": 1.5},
            "histograms": {"h": {"count": 2, "sum": 10, "min": 4, "max": 6,
                "buckets": [{"lt_pow2": 3, "count": 2}]}}
        }"#;
        let summary = validate_metrics(&parse(good).unwrap()).unwrap();
        assert_eq!(
            (summary.counters, summary.gauges, summary.histograms),
            (1, 1, 1)
        );

        let bad = good.replace("\"count\": 2,", "\"count\": 5,");
        let err = validate_metrics(&parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("sum to"), "{err}");
    }

    #[test]
    fn flight_validator_round_trips() {
        let good = r#"{
            "schema": "bt-obs-flight-v1", "capacity": 4096, "recorded": 3,
            "events": [
                {"seq": 0, "t_ns": 10, "kind": "submit", "req": 1, "batch": 0,
                 "key": 7, "detail": ""},
                {"seq": 2, "t_ns": 30, "kind": "solve_panic", "req": 0, "batch": 1,
                 "key": 7, "detail": "boom"}
            ]
        }"#;
        let summary = validate_flight(&parse(good).unwrap()).unwrap();
        assert_eq!((summary.events, summary.recorded), (2, 3));

        let bad = good.replace("\"seq\": 2", "\"seq\": 0");
        let err = validate_flight(&parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("not increasing"), "{err}");
        let bad = good.replace("\"kind\": \"submit\"", "\"kind\": 5");
        let err = validate_flight(&parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("kind"), "{err}");
    }

    #[test]
    fn snapshot_validator_checks_quantile_order() {
        let good = r#"{
            "schema": "bt-obs-snapshot-v1",
            "latency": {"stage": {"count": 2, "sum": 30, "min": 10, "max": 20,
                "p50": 10, "p90": 15, "p95": 20, "p99": 20}},
            "flight_recorded": 5,
            "metrics": {"schema": "bt-obs-metrics-v1", "counters": {},
                "gauges": {}, "histograms": {}}
        }"#;
        validate_snapshot(&parse(good).unwrap()).unwrap();
        let bad = good.replace("\"p90\": 15", "\"p90\": 25");
        let err = validate_snapshot(&parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("not ordered"), "{err}");
    }

    /// A small valid record: a lower-is-better cell with a model
    /// prediction and a higher-is-better cell with a baseline, a
    /// cross-check and a claim, each a headline.
    fn bench_doc() -> String {
        r#"{"schema": "bt-bench-v1", "bench": "demo",
            "meta": {"generated_unix_s": 1, "host_cores": 2, "simd": "scalar",
                     "smoke": false, "backend": "shm"},
            "params": {"n": 32, "reps": 5},
            "cells": [
              {"name": "n32-r1", "layer": "ard", "metric": "solve_ns", "unit": "ns",
               "better": "lower", "value": 40, "model": 45},
              {"name": "n32-r1", "layer": "service", "metric": "throughput_rps",
               "unit": "req/s", "better": "higher", "value": 500, "baseline": 200,
               "claim": 2, "checks": [{"name": "rel_diff", "value": 2e-16, "max": 1e-8}]}
            ],
            "headlines": [{"name": "n32-r1", "metric": "solve_ns"},
                          {"name": "n32-r1", "metric": "throughput_rps"}]}"#
            .to_string()
    }

    fn bench_err(doc: &str) -> String {
        validate_bench(&parse(doc).unwrap()).unwrap_err()
    }

    #[test]
    fn bench_validator_accepts_a_record_and_counts_its_rules() {
        let s = validate_bench(&parse(&bench_doc()).unwrap()).unwrap();
        assert_eq!(
            (s.bench.as_str(), s.cells, s.checks, s.claims, s.headlines),
            ("demo", 2, 1, 1, 2)
        );
    }

    #[test]
    fn bench_validator_rejects_broken_rules_and_malformed_records() {
        for (from, to, what) in [
            ("bt-bench-v1", "bt-bench-v0", "unknown bench schema"),
            ("\"value\": 2e-16", "\"value\": 1e-3", "check 'rel_diff'"),
            // 300 / 200 = 1.5x misses the 2x claim.
            ("\"value\": 500", "\"value\": 300", "misses its 2x claim"),
            ("\"baseline\": 200,", "", "no baseline"),
            ("\"host_cores\": 2", "\"host_cores\": 0", "host_cores"),
            (
                "\"metric\": \"throughput_rps\"",
                "\"metric\": \"solve_ns\"",
                "duplicate",
            ),
            ("\"value\": 500", "\"value\": 1e999", "finite"),
            ("\"model\": 45", "\"model\": -1", "finite"),
            (
                "\"layer\": \"service\"",
                "\"layer\": \"gpu\"",
                "unknown layer",
            ),
            (
                "\"better\": \"higher\"",
                "\"better\": \"up\"",
                "not lower or higher",
            ),
            (
                "[{\"name\": \"n32-r1\"",
                "[{\"name\": \"n64-r1\"",
                "names no cell",
            ),
        ] {
            let doc = bench_doc().replace(from, to);
            assert_ne!(doc, bench_doc(), "fixture lacks {from}");
            let err = bench_err(&doc);
            assert!(err.contains(what), "{to}: {err}");
        }
    }

    #[test]
    fn baseline_gate_tracks_headlines_in_their_better_direction() {
        let committed = parse(&bench_doc()).unwrap();
        // The solve time is lower-is-better: 40 -> 100 ns reads 0.4x.
        let slower = parse(&bench_doc().replace("\"value\": 40", "\"value\": 100")).unwrap();
        let s = validate_baseline(&committed, &slower, 0.25).unwrap();
        assert_eq!((s.bench.as_str(), s.figures.len()), ("demo", 2));
        assert!((s.figures[0].ratio - 0.4).abs() < 1e-12);
        let err = validate_baseline(&committed, &slower, 0.5).unwrap_err();
        assert!(err.contains("'n32-r1' (solve_ns)") && err.contains("perf regression"));
        // A cell with a baseline is gated on its speedup: 2.5x -> 5x.
        let faster = parse(&bench_doc().replace("\"baseline\": 200", "\"baseline\": 100")).unwrap();
        let s = validate_baseline(&committed, &faster, 1.0).unwrap();
        assert!((s.figures[1].committed - 2.5).abs() < 1e-12);
        assert!((s.figures[1].ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_gate_rejects_a_missing_headline_and_a_different_bench() {
        let committed = parse(&bench_doc()).unwrap();
        let renamed = parse(&bench_doc().replace("n32-r1", "n64-r1")).unwrap();
        let err = validate_baseline(&committed, &renamed, 0.25).unwrap_err();
        assert!(err.contains("lacks headline cell 'n32-r1'"), "{err}");
        let other = parse(&bench_doc().replace("\"demo\"", "\"other\"")).unwrap();
        let err = validate_baseline(&committed, &other, 0.25).unwrap_err();
        assert!(err.contains("bench mismatch"), "{err}");
        let doc = bench_doc();
        let (head, _) = doc.split_once("\"headlines\"").unwrap();
        let quiet = parse(&format!("{head}\"headlines\": []}}")).unwrap();
        let err = validate_baseline(&quiet, &committed, 0.25).unwrap_err();
        assert!(err.contains("declares no headline"), "{err}");
    }
}
