//! Minimal in-tree JSON parser and schema validators.
//!
//! The suite emits three JSON artifacts — the mpsim virtual-clock Chrome
//! trace, the bt-obs wall-clock Chrome trace, and the metrics registry
//! dump — and promises they are machine-readable. This module backs that
//! promise without an external serde dependency: a recursive-descent
//! parser into a [`Json`] value plus validators for the Chrome
//! trace-event shape ([`validate_chrome_trace`]) and the
//! `bt-obs-metrics-v1` schema ([`validate_metrics`]). Tests and the CI
//! `obs_validate` binary round-trip every emitted file through them.

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

/// What [`validate_bench_service`] found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchServiceSummary {
    /// Result records (one per `(rate, leg)` pair).
    pub legs: usize,
    /// Batched-over-unbatched completed-throughput ratio at the highest
    /// offered rate both legs ran (1.0 if only one leg is present).
    pub batched_speedup: f64,
}

/// Validates a `bt-bench-service-v1` document (`bench_service` output):
/// schema tag, run parameters, per-leg records with ordered latency
/// percentiles, and — when the coalescer actually saw deep queues (mean
/// batch width ≥ 16 at some rate) — that batched dispatch beat
/// one-solve-per-request throughput at equal-or-better p99 there.
///
/// # Errors
///
/// The first violated rule, naming the offending record.
pub fn validate_bench_service(doc: &Json) -> Result<BenchServiceSummary, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("bt-bench-service-v1") => {}
        Some(other) => return Err(format!("unknown service bench schema '{other}'")),
        None => return Err("service bench document lacks a schema tag".to_string()),
    }
    for key in ["n", "m", "p", "requests", "max_batch", "max_delay_us"] {
        match doc.get(key).and_then(Json::as_f64) {
            Some(v) if v >= 1.0 => {}
            _ => return Err(format!("'{key}' is missing or not a positive number")),
        }
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("service bench document lacks a results array")?;
    if results.is_empty() {
        return Err("results array is empty".to_string());
    }
    let mut parsed: Vec<(String, f64, f64, f64, f64)> = Vec::new();
    for (i, rec) in results.iter().enumerate() {
        let leg = rec
            .get("leg")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("results[{i}] lacks a leg tag"))?;
        if leg != "unbatched" && leg != "batched" {
            return Err(format!("results[{i}] has unknown leg '{leg}'"));
        }
        let num = |key: &str| {
            rec.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("results[{i}] ({leg}) lacks numeric {key}"))
        };
        let rate = num("rate_mult")?;
        let tput = num("throughput_rps")?;
        let width = num("mean_batch_width")?;
        let (p50, p95, p99, max) = (
            num("p50_us")?,
            num("p95_us")?,
            num("p99_us")?,
            num("max_us")?,
        );
        num("rate_rps")?;
        num("requests")?;
        num("dispatches")?;
        num("mean_queue_wait_us")?;
        if tput <= 0.0 {
            return Err(format!("results[{i}] ({leg}) throughput is not positive"));
        }
        if width < 1.0 {
            return Err(format!("results[{i}] ({leg}) mean batch width below 1"));
        }
        if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
            return Err(format!(
                "results[{i}] ({leg}) percentiles are not ordered: \
                 p50 {p50} p95 {p95} p99 {p99} max {max}"
            ));
        }
        parsed.push((leg.to_string(), rate, tput, width, p99));
    }
    // The headline claim: wherever coalescing actually engaged (mean
    // batch width >= 16), batching must win throughput without losing p99.
    let mut summary = BenchServiceSummary {
        legs: parsed.len(),
        batched_speedup: 1.0,
    };
    let mut top_rate = f64::NEG_INFINITY;
    for (leg, rate, tput, width, p99) in &parsed {
        if leg != "batched" {
            continue;
        }
        let Some((_, _, base_tput, _, base_p99)) = parsed
            .iter()
            .find(|(l, r, ..)| l == "unbatched" && r == rate)
        else {
            continue;
        };
        if *width >= 16.0 {
            if tput < base_tput {
                return Err(format!(
                    "rate x{rate}: batched throughput {tput:.0} req/s lost to \
                     unbatched {base_tput:.0} req/s despite mean width {width:.1}"
                ));
            }
            if p99 > base_p99 {
                return Err(format!(
                    "rate x{rate}: batched p99 {p99:.0} us worse than \
                     unbatched {base_p99:.0} us despite mean width {width:.1}"
                ));
            }
        }
        if *rate > top_rate {
            top_rate = *rate;
            summary.batched_speedup = tput / base_tput;
        }
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

/// What [`validate_bench_shm`] found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchShmSummary {
    /// Sweep cells (one per `(p, r)` pair).
    pub cells: usize,
    /// RHS columns solved per wall second at the biggest `(p, r)` cell.
    pub headline: f64,
    /// Relative error of the calibration's alpha-beta fit at its
    /// held-out message size.
    pub fit_error: f64,
}

/// Validates a `bt-bench-shm-v1` document (`bench_shm` output): schema
/// tag, run parameters, a calibration block with a finite fit error, and
/// per-cell records whose measured-vs-modeled `ratio` is consistent with
/// the recorded `wall_ns / modeled_ns`.
///
/// # Errors
///
/// The first violated rule, naming the offending cell.
pub fn validate_bench_shm(doc: &Json) -> Result<BenchShmSummary, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("bt-bench-shm-v1") => {}
        Some(other) => return Err(format!("unknown shm bench schema '{other}'")),
        None => return Err("shm bench document lacks a schema tag".to_string()),
    }
    for key in ["n", "m", "reps", "cores"] {
        match doc.get(key).and_then(Json::as_f64) {
            Some(v) if v >= 1.0 => {}
            _ => return Err(format!("'{key}' is missing or not a positive number")),
        }
    }
    let calib = doc
        .get("calib")
        .and_then(Json::as_obj)
        .ok_or("shm bench document lacks a calib object")?;
    let calib_num = |key: &str| {
        calib
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_f64())
            .ok_or_else(|| format!("calib lacks numeric {key}"))
    };
    if calib_num("alpha_s")? <= 0.0 {
        return Err("calib alpha_s is not positive".to_string());
    }
    if calib_num("beta_s_per_byte")? < 0.0 {
        return Err("calib beta_s_per_byte is negative".to_string());
    }
    if calib_num("flop_rate")? <= 0.0 {
        return Err("calib flop_rate is not positive".to_string());
    }
    let fit_error = calib_num("fit_error")?;
    if !fit_error.is_finite() || fit_error < 0.0 {
        return Err(format!(
            "calib fit_error {fit_error} is not a finite non-negative number"
        ));
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("shm bench document lacks a results array")?;
    if results.is_empty() {
        return Err("results array is empty".to_string());
    }
    let mut biggest: Option<(f64, f64, f64)> = None; // (p, r, wall_ns)
    for (i, rec) in results.iter().enumerate() {
        let num = |key: &str| {
            rec.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("results[{i}] lacks numeric {key}"))
        };
        let (p, r) = (num("p")?, num("r")?);
        if p < 1.0 || r < 1.0 {
            return Err(format!("results[{i}] has non-positive p or r"));
        }
        let (wall, modeled, ratio) = (num("wall_ns")?, num("modeled_ns")?, num("ratio")?);
        if wall <= 0.0 || modeled <= 0.0 {
            return Err(format!(
                "results[{i}] (p={p} r={r}): wall_ns {wall} / modeled_ns {modeled} not positive"
            ));
        }
        let expect = wall / modeled;
        if ratio <= 0.0 || (ratio - expect).abs() > 0.01 * expect {
            return Err(format!(
                "results[{i}] (p={p} r={r}): ratio {ratio} inconsistent with \
                 wall/modeled {expect:.4}"
            ));
        }
        if biggest.is_none_or(|(bp, br, _)| (p, r) > (bp, br)) {
            biggest = Some((p, r, wall));
        }
    }
    let (_, r_big, wall_big) = biggest.expect("nonempty results");
    let headline = doc
        .get("headline_rhs_cols_per_s")
        .and_then(Json::as_f64)
        .ok_or("shm bench document lacks numeric headline_rhs_cols_per_s")?;
    let expect = r_big / (wall_big * 1e-9);
    if headline <= 0.0 || (headline - expect).abs() > 0.01 * expect {
        return Err(format!(
            "headline {headline:.1} inconsistent with biggest cell's {expect:.1} RHS columns/s"
        ));
    }
    Ok(BenchShmSummary {
        cells: results.len(),
        headline,
        fit_error,
    })
}

/// What [`validate_bench_structured`] found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchStructuredSummary {
    /// Toeplitz cells (general vs constant-block factor replay).
    pub toeplitz_cells: usize,
    /// Batched cells (K looped single solves vs one interleaved batch).
    pub batched_cells: usize,
    /// Best warm-replay speedup over the Toeplitz cells.
    pub headline_toeplitz: f64,
    /// Best factor-storage reduction over the Toeplitz cells.
    pub headline_mem: f64,
    /// Best batched-over-looped throughput over the batched cells.
    pub headline_batched: f64,
}

/// Claims a full-scale SIMD `bt-bench-structured-v1` document must
/// back: the structure-exploiting paths are only worth shipping if
/// somewhere in the sweep the Toeplitz factors are at least 3x smaller
/// and at least 1.3x faster to replay than the general path, and the
/// interleaved batch beats K looped single solves by at least 2x.
const STRUCTURED_CLAIM_MIN_REPLAY: f64 = 1.3;
const STRUCTURED_CLAIM_MIN_MEM: f64 = 3.0;
const STRUCTURED_CLAIM_MIN_BATCHED: f64 = 2.0;

/// Every structured cell carries an in-bench cross-check against the
/// general/looped path; the relative difference must sit at roundoff.
const STRUCTURED_MAX_REL_DIFF: f64 = 1e-6;

/// Validates a `bt-bench-structured-v1` document (`bench_structured`
/// output): schema tag, run parameters, at least one cell of each kind,
/// per-cell consistency of `replay_speedup = general_replay_ns /
/// toeplitz_replay_ns`, `mem_reduction = general_bytes /
/// toeplitz_bytes` and `batched_speedup = looped_ns / batched_ns`, the
/// in-bench cross-checks (`rel_diff` at roundoff, residuals present
/// and small), and headlines consistent with the best cells.
/// Full-scale documents generated on a SIMD dispatch path must also
/// back the three structured claims (smoke and scalar runs are only
/// checked for internal consistency).
///
/// # Errors
///
/// The first violated rule, naming the offending cell.
pub fn validate_bench_structured(doc: &Json) -> Result<BenchStructuredSummary, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("bt-bench-structured-v1") => {}
        Some(other) => return Err(format!("unknown structured bench schema '{other}'")),
        None => return Err("structured bench document lacks a schema tag".to_string()),
    }
    for key in ["p", "reps", "cores"] {
        match doc.get(key).and_then(Json::as_f64) {
            Some(v) if v >= 1.0 => {}
            _ => return Err(format!("'{key}' is missing or not a positive number")),
        }
    }
    let smoke = match doc.get("smoke") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("structured bench document lacks a boolean 'smoke'".to_string()),
    };
    let simd = doc
        .get("simd")
        .and_then(Json::as_str)
        .ok_or("structured bench document lacks a simd tag")?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("structured bench document lacks a results array")?;
    let mut summary = BenchStructuredSummary::default();
    for (i, rec) in results.iter().enumerate() {
        let num = |key: &str| {
            rec.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("results[{i}] lacks numeric {key}"))
        };
        let label = rec
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("results[{i}] lacks a label"))?;
        let rel_diff = num("rel_diff")?;
        if !(0.0..=STRUCTURED_MAX_REL_DIFF).contains(&rel_diff) {
            return Err(format!(
                "results[{i}] ({label}): rel_diff {rel_diff:.2e} breaks the in-bench \
                 cross-check against the general path (max {STRUCTURED_MAX_REL_DIFF:.0e})"
            ));
        }
        match rec.get("kind").and_then(Json::as_str) {
            Some("toeplitz") => {
                let (g_ns, t_ns) = (num("general_replay_ns")?, num("toeplitz_replay_ns")?);
                if g_ns <= 0.0 || t_ns <= 0.0 {
                    return Err(format!(
                        "results[{i}] ({label}): replay timings must be positive"
                    ));
                }
                let speedup = num("replay_speedup")?;
                let expect = g_ns / t_ns;
                if (speedup - expect).abs() > 0.01 * expect {
                    return Err(format!(
                        "results[{i}] ({label}): replay_speedup {speedup:.4} inconsistent \
                         with general/toeplitz {expect:.4}"
                    ));
                }
                let (g_b, t_b) = (num("general_bytes")?, num("toeplitz_bytes")?);
                if g_b <= 0.0 || t_b <= 0.0 {
                    return Err(format!(
                        "results[{i}] ({label}): factor byte counts must be positive"
                    ));
                }
                let mem = num("mem_reduction")?;
                let expect = g_b / t_b;
                if (mem - expect).abs() > 0.01 * expect {
                    return Err(format!(
                        "results[{i}] ({label}): mem_reduction {mem:.4} inconsistent with \
                         byte ratio {expect:.4}"
                    ));
                }
                let (g_res, t_res) = (num("general_residual")?, num("toeplitz_residual")?);
                if t_res > 1e-9f64.max(g_res * 4.0) {
                    return Err(format!(
                        "results[{i}] ({label}): toeplitz residual {t_res:.2e} vs general's \
                         {g_res:.2e} breaks the equal-quality claim"
                    ));
                }
                summary.toeplitz_cells += 1;
                summary.headline_toeplitz = summary.headline_toeplitz.max(speedup);
                summary.headline_mem = summary.headline_mem.max(mem);
            }
            Some("batched") => {
                let (l_ns, b_ns) = (num("looped_ns")?, num("batched_ns")?);
                if l_ns <= 0.0 || b_ns <= 0.0 {
                    return Err(format!(
                        "results[{i}] ({label}): solve timings must be positive"
                    ));
                }
                let speedup = num("batched_speedup")?;
                let expect = l_ns / b_ns;
                if (speedup - expect).abs() > 0.01 * expect {
                    return Err(format!(
                        "results[{i}] ({label}): batched_speedup {speedup:.4} inconsistent \
                         with looped/batched {expect:.4}"
                    ));
                }
                let res = num("max_residual")?;
                if res > 1e-9 {
                    return Err(format!(
                        "results[{i}] ({label}): batched residual {res:.2e} above 1e-9"
                    ));
                }
                summary.batched_cells += 1;
                summary.headline_batched = summary.headline_batched.max(speedup);
            }
            other => {
                return Err(format!(
                    "results[{i}] ({label}): unknown cell kind {other:?}"
                ))
            }
        }
    }
    if summary.toeplitz_cells == 0 || summary.batched_cells == 0 {
        return Err(format!(
            "need at least one cell of each kind (got {} toeplitz, {} batched)",
            summary.toeplitz_cells, summary.batched_cells
        ));
    }
    for (key, best) in [
        ("headline_toeplitz_speedup", summary.headline_toeplitz),
        ("headline_mem_reduction", summary.headline_mem),
        ("headline_batched_speedup", summary.headline_batched),
    ] {
        let headline = doc
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("structured bench document lacks numeric {key}"))?;
        if headline <= 0.0 || (headline - best).abs() > 0.01 * best {
            return Err(format!(
                "{key} {headline:.4} inconsistent with best cell's {best:.4}"
            ));
        }
    }
    if !smoke && simd != "scalar" {
        if summary.headline_toeplitz < STRUCTURED_CLAIM_MIN_REPLAY {
            return Err(format!(
                "full-scale SIMD toeplitz replay {:.2}x is below the \
                 {STRUCTURED_CLAIM_MIN_REPLAY}x claim",
                summary.headline_toeplitz
            ));
        }
        if summary.headline_mem < STRUCTURED_CLAIM_MIN_MEM {
            return Err(format!(
                "full-scale factor-memory reduction {:.2}x is below the \
                 {STRUCTURED_CLAIM_MIN_MEM}x claim",
                summary.headline_mem
            ));
        }
        if summary.headline_batched < STRUCTURED_CLAIM_MIN_BATCHED {
            return Err(format!(
                "full-scale SIMD batched throughput {:.2}x is below the \
                 {STRUCTURED_CLAIM_MIN_BATCHED}x claim",
                summary.headline_batched
            ));
        }
    }
    Ok(summary)
}

/// What [`validate_baseline`] found: the headline figure of each
/// document and their ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSummary {
    /// The shared schema tag.
    pub schema: String,
    /// Headline figure of the committed (baseline) document.
    pub committed: f64,
    /// Headline figure of the freshly generated document.
    pub fresh: f64,
    /// `fresh / committed`.
    pub ratio: f64,
}

/// Headline figure of a bench document: batched-over-unbatched
/// throughput at the top rate for `bt-bench-service-v1`, RHS columns
/// solved per wall second at the biggest cell for `bt-bench-shm-v1`,
/// best batched-over-looped throughput for
/// `bt-bench-structured-v1` (the batched figure gates rather than the
/// Toeplitz one because it exercises the dense kernels end to end and
/// is the steadier of the structured headlines).
///
/// # Errors
///
/// Unknown schema, or a document missing its headline figures.
pub fn bench_headline(doc: &Json) -> Result<(String, f64), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("bench document lacks a schema tag")?;
    match schema {
        "bt-bench-service-v1" => {
            let summary = validate_bench_service(doc)?;
            Ok((schema.to_string(), summary.batched_speedup))
        }
        "bt-bench-shm-v1" => {
            let summary = validate_bench_shm(doc)?;
            Ok((schema.to_string(), summary.headline))
        }
        "bt-bench-structured-v1" => {
            let summary = validate_bench_structured(doc)?;
            Ok((schema.to_string(), summary.headline_batched))
        }
        other => Err(format!("no baseline rule for schema '{other}'")),
    }
}

/// Perf-regression gate: compares a freshly generated bench document
/// against the committed baseline's headline figure. Passes when
/// `fresh >= tol * committed` — `tol` is the tolerance band (e.g. 0.25
/// lets a smoke-scale rerun keep a quarter of the committed full-scale
/// figure, which still catches sign flips and order-of-magnitude
/// regressions).
///
/// # Errors
///
/// Mismatched/unknown schemas, invalid documents, or a fresh headline
/// below the band.
pub fn validate_baseline(
    committed: &Json,
    fresh: &Json,
    tol: f64,
) -> Result<BaselineSummary, String> {
    let (schema_c, headline_c) = bench_headline(committed)?;
    let (schema_f, headline_f) = bench_headline(fresh)?;
    if schema_c != schema_f {
        return Err(format!(
            "schema mismatch: committed is '{schema_c}', fresh is '{schema_f}'"
        ));
    }
    if headline_c <= 0.0 {
        return Err(format!(
            "committed headline {headline_c} is not positive — baseline file is unusable"
        ));
    }
    let ratio = headline_f / headline_c;
    if ratio < tol {
        return Err(format!(
            "{schema_c}: fresh headline {headline_f:.3} is {ratio:.2}x the committed \
             {headline_c:.3} (tolerance {tol:.2}x) — perf regression"
        ));
    }
    Ok(BaselineSummary {
        schema: schema_c,
        committed: headline_c,
        fresh: headline_f,
        ratio,
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

    fn service_bench_doc() -> String {
        r#"{
            "schema": "bt-bench-service-v1",
            "n": 32, "m": 6, "p": 4, "requests": 192,
            "max_batch": 32, "max_delay_us": 1000,
            "results": [
                {"leg": "unbatched", "rate_mult": 16, "rate_rps": 100000,
                 "requests": 192, "throughput_rps": 10000,
                 "mean_batch_width": 1.0, "max_batch_width": 1, "dispatches": 192,
                 "p50_us": 9000, "p95_us": 16000, "p99_us": 17000, "max_us": 17500,
                 "mean_queue_wait_us": 9000},
                {"leg": "batched", "rate_mult": 16, "rate_rps": 100000,
                 "requests": 192, "throughput_rps": 29000,
                 "mean_batch_width": 32.0, "max_batch_width": 32, "dispatches": 6,
                 "p50_us": 4500, "p95_us": 5900, "p99_us": 6000, "max_us": 6100,
                 "mean_queue_wait_us": 3100}
            ]
        }"#
        .to_string()
    }

    #[test]
    fn service_bench_validator_accepts_batched_win() {
        let summary = validate_bench_service(&parse(&service_bench_doc()).unwrap()).unwrap();
        assert_eq!(summary.legs, 2);
        assert!((summary.batched_speedup - 2.9).abs() < 0.01);
    }

    #[test]
    fn service_bench_validator_rejects_batched_loss_at_depth() {
        // Batched leg slower than unbatched while coalescing was deep
        // (width 32): the headline claim failed, so validation must too.
        let doc =
            service_bench_doc().replace("\"throughput_rps\": 29000", "\"throughput_rps\": 9000");
        let err = validate_bench_service(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("lost to"), "{err}");

        // Same loss with shallow queues (width 2) is not a violation.
        let doc = doc.replace("\"mean_batch_width\": 32.0", "\"mean_batch_width\": 2.0");
        assert!(validate_bench_service(&parse(&doc).unwrap()).is_ok());
    }

    #[test]
    fn service_bench_validator_rejects_unordered_percentiles() {
        let doc = service_bench_doc().replace("\"p95_us\": 5900", "\"p95_us\": 6900");
        let err = validate_bench_service(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("not ordered"), "{err}");
    }

    #[test]
    fn service_bench_validator_rejects_worse_p99_at_depth() {
        let doc = service_bench_doc()
            .replace("\"p99_us\": 6000", "\"p99_us\": 18000")
            .replace("\"max_us\": 6100", "\"max_us\": 18500");
        let err = validate_bench_service(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("p99"), "{err}");
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

    fn shm_doc(wall_ns: f64) -> String {
        let ratio = wall_ns / 1.0e6;
        let headline = 256.0 / (wall_ns * 1e-9);
        format!(
            r#"{{"schema": "bt-bench-shm-v1", "n": 64, "m": 8, "reps": 3, "cores": 4,
                "calib": {{"alpha_s": 2e-6, "beta_s_per_byte": 4e-11,
                           "flop_rate": 2e10, "fit_error": 0.3}},
                "headline_rhs_cols_per_s": {headline},
                "results": [
                  {{"p": 2, "r": 16, "wall_ns": 5e5,
                    "modeled_ns": 2.5e5, "ratio": 2.0}},
                  {{"p": 4, "r": 256, "wall_ns": {wall_ns},
                    "modeled_ns": 1e6, "ratio": {ratio}}}
                ]}}"#
        )
    }

    #[test]
    fn shm_bench_schema_validates_and_catches_inconsistency() {
        let good = shm_doc(3.0e6);
        let s = validate_bench_shm(&parse(&good).unwrap()).unwrap();
        assert_eq!(s.cells, 2);
        assert!((s.fit_error - 0.3).abs() < 1e-12);
        assert!((s.headline - 256.0 / 3.0e-3).abs() < 1.0);

        let bad_ratio = good.replace("\"ratio\": 2.0", "\"ratio\": 7.0");
        let err = validate_bench_shm(&parse(&bad_ratio).unwrap()).unwrap_err();
        assert!(err.contains("inconsistent with"), "{err}");

        let bad_calib = good.replace("\"alpha_s\": 2e-6", "\"alpha_s\": 0");
        let err = validate_bench_shm(&parse(&bad_calib).unwrap()).unwrap_err();
        assert!(err.contains("alpha_s"), "{err}");

        let bad_headline = good.replace("\"headline_rhs_cols_per_s\"", "\"headline_rhs\"");
        let err = validate_bench_shm(&parse(&bad_headline).unwrap()).unwrap_err();
        assert!(err.contains("headline_rhs_cols_per_s"), "{err}");
    }

    fn structured_doc(batched_ns: f64) -> String {
        let batched_speedup = 9.0e7 / batched_ns;
        format!(
            r#"{{"schema": "bt-bench-structured-v1", "p": 4, "reps": 5, "cores": 4,
                "simd": "avx2+fma", "smoke": false,
                "headline_toeplitz_speedup": 1.74,
                "headline_mem_reduction": 1781.1,
                "headline_batched_speedup": {batched_speedup},
                "results": [
                  {{"kind": "toeplitz", "label": "toeplitz-r1", "n": 16384, "m": 8,
                    "p": 4, "r": 1, "general_replay_ns": 1.074e7,
                    "toeplitz_replay_ns": 6.172e6, "replay_speedup": 1.74,
                    "general_bytes": 41948160, "toeplitz_bytes": 23552,
                    "mem_reduction": 1781.1, "rel_diff": 1.8e-16,
                    "general_residual": 2.5e-16, "toeplitz_residual": 2.7e-16}},
                  {{"kind": "batched", "label": "batched-m8", "n": 32, "m": 8,
                    "k": 1024, "r": 1, "looped_ns": 9e7, "batched_ns": {batched_ns},
                    "batched_speedup": {batched_speedup}, "rel_diff": 2.0e-16,
                    "max_residual": 2.3e-16}}
                ]}}"#
        )
    }

    #[test]
    fn structured_bench_schema_validates_and_catches_inconsistency() {
        let good = structured_doc(4.0e7);
        let s = validate_bench_structured(&parse(&good).unwrap()).unwrap();
        assert_eq!((s.toeplitz_cells, s.batched_cells), (1, 1));
        assert!((s.headline_toeplitz - 1.74).abs() < 1e-9);
        assert!((s.headline_mem - 1781.1).abs() < 1e-9);
        assert!((s.headline_batched - 2.25).abs() < 1e-9);

        let bad_speedup = good.replace("\"batched_ns\": 40000000", "\"batched_ns\": 50000000");
        let err = validate_bench_structured(&parse(&bad_speedup).unwrap()).unwrap_err();
        assert!(err.contains("inconsistent with looped/batched"), "{err}");

        let bad_mem = good.replace("\"toeplitz_bytes\": 23552", "\"toeplitz_bytes\": 42000");
        let err = validate_bench_structured(&parse(&bad_mem).unwrap()).unwrap_err();
        assert!(err.contains("inconsistent with byte ratio"), "{err}");

        let bad_diff = good.replace("\"rel_diff\": 1.8e-16", "\"rel_diff\": 1e-3");
        let err = validate_bench_structured(&parse(&bad_diff).unwrap()).unwrap_err();
        assert!(err.contains("cross-check"), "{err}");

        let bad_quality = good.replace(
            "\"toeplitz_residual\": 2.7e-16",
            "\"toeplitz_residual\": 3e-9",
        );
        let err = validate_bench_structured(&parse(&bad_quality).unwrap()).unwrap_err();
        assert!(err.contains("equal-quality"), "{err}");

        let one_kind = good.replace("\"kind\": \"batched\"", "\"kind\": \"toeplitz\"");
        let err = validate_bench_structured(&parse(&one_kind).unwrap()).unwrap_err();
        // The rewritten cell lacks toeplitz fields, so either error is fine.
        assert!(
            err.contains("lacks numeric") || err.contains("each kind"),
            "{err}"
        );
    }

    #[test]
    fn structured_bench_full_scale_simd_run_must_back_the_claims() {
        // Batched headline 1.8x: internally consistent, but below the
        // 2x claim a full-scale SIMD document must back.
        let slow = structured_doc(5.0e7);
        let err = validate_bench_structured(&parse(&slow).unwrap()).unwrap_err();
        assert!(err.contains("below the 2x"), "{err}");
        // The same figures pass as a smoke run or on the scalar path.
        let smoke = slow.replace("\"smoke\": false", "\"smoke\": true");
        assert!(validate_bench_structured(&parse(&smoke).unwrap()).is_ok());
        let scalar = slow.replace("\"simd\": \"avx2+fma\"", "\"simd\": \"scalar\"");
        assert!(validate_bench_structured(&parse(&scalar).unwrap()).is_ok());

        // A Toeplitz replay below 1.3x fails even when batched is fast.
        let slow_replay = structured_doc(4.0e7)
            .replace("\"replay_speedup\": 1.74", "\"replay_speedup\": 1.15")
            .replace(
                "\"toeplitz_replay_ns\": 6.172e6",
                "\"toeplitz_replay_ns\": 9.33913e6",
            )
            .replace(
                "\"headline_toeplitz_speedup\": 1.74",
                "\"headline_toeplitz_speedup\": 1.15",
            );
        let err = validate_bench_structured(&parse(&slow_replay).unwrap()).unwrap_err();
        assert!(err.contains("below the 1.3x"), "{err}");
    }

    #[test]
    fn structured_bench_baseline_tracks_batched_headline() {
        let committed = parse(&structured_doc(4.0e7)).unwrap();
        let fresh = parse(&structured_doc(4.4e7)).unwrap();
        let summary = validate_baseline(&committed, &fresh, 0.5).unwrap();
        assert_eq!(summary.schema, "bt-bench-structured-v1");
        assert!((summary.ratio - 4.0e7 / 4.4e7).abs() < 1e-9);
    }

    #[test]
    fn shm_bench_baseline_tracks_headline() {
        // Fresh run 4x slower at the biggest cell -> headline 0.25x.
        let committed = parse(&shm_doc(1.0e6)).unwrap();
        let fresh = parse(&shm_doc(4.0e6)).unwrap();
        let summary = validate_baseline(&committed, &fresh, 0.2).unwrap();
        assert_eq!(summary.schema, "bt-bench-shm-v1");
        assert!((summary.ratio - 0.25).abs() < 1e-9);
        let err = validate_baseline(&committed, &fresh, 0.5).unwrap_err();
        assert!(err.contains("perf regression"), "{err}");
    }

    #[test]
    fn baseline_gate_rejects_schema_mismatch() {
        let service = parse(&service_bench_doc()).unwrap();
        let shm = parse(&shm_doc(1.0e6)).unwrap();
        let err = validate_baseline(&service, &shm, 0.5).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        // Service-vs-service compares batched speedups.
        let summary = validate_baseline(&service, &service, 0.5).unwrap();
        assert_eq!(summary.schema, "bt-bench-service-v1");
        assert!((summary.ratio - 1.0).abs() < 1e-12);
    }
}
