//! JSON codec for the query protocol (`ocelotl-core::query`).
//!
//! The wire format is **line-delimited JSON**: one request or reply per
//! line, wrapped in a versioned envelope:
//!
//! ```text
//! → {"v":1,"request":{"kind":"aggregate","p":0.5,"coarse":false,...}}
//! ← {"v":1,"reply":{"kind":"aggregate",...}}
//! ← {"v":1,"error":{"kind":"invalid-request","message":"..."}}
//! ```
//!
//! A *server-side* request additionally names the trace and the session
//! parameters (see [`encode_wire_request`]); the bare request form is what
//! `--json` CLI output and in-process codecs use.
//!
//! The codec is hand-rolled (the build environment has no serde) but
//! total: every [`AnalysisRequest`] and [`AnalysisReply`] round-trips
//! exactly. Floats are emitted with Rust's shortest-round-trip formatting
//! (and re-parsed with `str::parse::<f64>`), so `decode(encode(x)) == x`
//! for every finite value; non-finite values are encoded as the strings
//! `"NaN"` / `"Infinity"` / `"-Infinity"`. Object fields are emitted in a
//! fixed order, so equal replies encode to byte-identical lines — the
//! property the CLI↔server determinism checks pin.

use ocelotl_core::query::{
    AggregateReply, AnalysisReply, AnalysisRequest, AreaRow, BaselineRow, ClusterReply,
    DescribeReply, DiffReply, InspectReply, LevelReply, ModelShape, OverviewItem, OverviewReply,
    PValuesReply, PartitionSummary, QueryError, ResliceReply, SignificantReply, StatsReply,
    SweepPoint, SweepReply, WatchReply, PROTOCOL_VERSION,
};
use ocelotl_core::{Metric, SessionConfig, VisualMark};

// ---------------------------------------------------------------------------
// Generic JSON values
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects preserve field order (the encoder relies
/// on it for byte-stable output).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serialize to a compact single-line string.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => write_f64(*f, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_str(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

fn write_f64(f: f64, out: &mut String) {
    if f.is_nan() {
        out.push_str("\"NaN\"");
    } else if f == f64::INFINITY {
        out.push_str("\"Infinity\"");
    } else if f == f64::NEG_INFINITY {
        out.push_str("\"-Infinity\"");
    } else {
        // Shortest round-trip formatting; integral values print without a
        // fraction ("1"), which the decoder accepts back as a float.
        out.push_str(&f.to_string());
    }
}

fn write_str(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let token = std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or_default())
            .map_err(|_| "non-utf8 number".to_string())?;
        if !fractional {
            if let Ok(i) = token.parse::<i64>() {
                // "-0" stays a float so negative zero re-encodes to the
                // same bytes it arrived as (byte-stable round-trips).
                if !(i == 0 && token.starts_with('-')) {
                    return Ok(Json::Int(i));
                }
            }
        }
        token
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number {token:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let Some(&b) = rest.first() else {
                return Err("unterminated string".into());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest.get(1).copied().ok_or("unterminated escape")?;
                    self.pos += 2;
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
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(c).ok_or("invalid \\u escape")?);
                        }
                        other => return Err(format!("invalid escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (`rest` is non-empty:
                    // `first()` matched above).
                    let s = std::str::from_utf8(rest).map_err(|_| "non-utf8 string")?;
                    let Some(c) = s.chars().next() else {
                        return Err("unterminated string".into());
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or("truncated \\u escape")?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u{hex}"))
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
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
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Typed decode helpers
// ---------------------------------------------------------------------------

fn bad(msg: impl Into<String>) -> QueryError {
    QueryError::Protocol(msg.into())
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, QueryError> {
    j.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))
}

/// Decode one numeric value, accepting the `write_f64` string escapes
/// for non-finite floats — used by scalar fields *and* array elements so
/// anything the encoder can emit decodes back.
fn num_value(v: &Json, what: &str) -> Result<f64, QueryError> {
    match v {
        Json::Int(i) => Ok(*i as f64),
        Json::Float(f) => Ok(*f),
        Json::Str(s) => match s.as_str() {
            "NaN" => Ok(f64::NAN),
            "Infinity" => Ok(f64::INFINITY),
            "-Infinity" => Ok(f64::NEG_INFINITY),
            _ => Err(bad(format!("{what} is not a number"))),
        },
        _ => Err(bad(format!("{what} is not a number"))),
    }
}

fn as_f64(j: &Json, key: &str) -> Result<f64, QueryError> {
    num_value(field(j, key)?, &format!("field {key:?}"))
}

fn as_usize(j: &Json, key: &str) -> Result<usize, QueryError> {
    match field(j, key)? {
        Json::Int(i) if *i >= 0 => Ok(*i as usize),
        _ => Err(bad(format!("field {key:?} is not a non-negative integer"))),
    }
}

fn as_u64(j: &Json, key: &str) -> Result<u64, QueryError> {
    match field(j, key)? {
        Json::Int(i) if *i >= 0 => Ok(*i as u64),
        _ => Err(bad(format!("field {key:?} is not a non-negative integer"))),
    }
}

fn as_bool(j: &Json, key: &str) -> Result<bool, QueryError> {
    match field(j, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(bad(format!("field {key:?} is not a boolean"))),
    }
}

fn as_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, QueryError> {
    match field(j, key)? {
        Json::Str(s) => Ok(s),
        _ => Err(bad(format!("field {key:?} is not a string"))),
    }
}

fn as_opt_str(j: &Json, key: &str) -> Result<Option<String>, QueryError> {
    match field(j, key)? {
        Json::Null => Ok(None),
        Json::Str(s) => Ok(Some(s.clone())),
        _ => Err(bad(format!("field {key:?} is not a string or null"))),
    }
}

fn as_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], QueryError> {
    match field(j, key)? {
        Json::Arr(a) => Ok(a),
        _ => Err(bad(format!("field {key:?} is not an array"))),
    }
}

fn num(f: f64) -> Json {
    Json::Float(f)
}

fn int(i: usize) -> Json {
    Json::Int(i64::try_from(i).unwrap_or(i64::MAX))
}

fn int64(i: u64) -> Json {
    Json::Int(i64::try_from(i).unwrap_or(i64::MAX))
}

fn strv(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

fn request_to_json(req: &AnalysisRequest) -> Json {
    match req {
        AnalysisRequest::Describe => obj(vec![("kind", strv("describe"))]),
        AnalysisRequest::Aggregate {
            p,
            coarse,
            compare,
            diff_p,
        } => obj(vec![
            ("kind", strv("aggregate")),
            ("p", num(*p)),
            ("coarse", Json::Bool(*coarse)),
            ("compare", Json::Bool(*compare)),
            ("diff_p", diff_p.map(num).unwrap_or(Json::Null)),
        ]),
        AnalysisRequest::Significant { resolution } => obj(vec![
            ("kind", strv("significant")),
            ("resolution", num(*resolution)),
        ]),
        AnalysisRequest::Sweep { resolution, steps } => obj(vec![
            ("kind", strv("sweep")),
            ("resolution", num(*resolution)),
            ("steps", int(*steps)),
        ]),
        AnalysisRequest::PValues { resolution } => obj(vec![
            ("kind", strv("pvalues")),
            ("resolution", num(*resolution)),
        ]),
        AnalysisRequest::Inspect {
            leaf,
            slice,
            p,
            coarse,
        } => obj(vec![
            ("kind", strv("inspect")),
            ("leaf", int(*leaf)),
            ("slice", int(*slice)),
            ("p", num(*p)),
            ("coarse", Json::Bool(*coarse)),
        ]),
        AnalysisRequest::RenderOverview {
            p,
            coarse,
            min_rows,
            level_resolution,
        } => obj(vec![
            ("kind", strv("render-overview")),
            ("p", num(*p)),
            ("coarse", Json::Bool(*coarse)),
            ("min_rows", num(*min_rows)),
            (
                "level_resolution",
                level_resolution.map(num).unwrap_or(Json::Null),
            ),
        ]),
        AnalysisRequest::Stats => obj(vec![("kind", strv("stats"))]),
        AnalysisRequest::Reslice { n_slices, range } => obj(vec![
            ("kind", strv("reslice")),
            ("slices", int(*n_slices)),
            ("range", range_to_json(*range)),
        ]),
        AnalysisRequest::Subscribe { inner } => obj(vec![
            ("kind", strv("subscribe")),
            ("inner", request_to_json(inner)),
        ]),
    }
}

fn range_to_json(range: Option<(f64, f64)>) -> Json {
    match range {
        Some((t0, t1)) => Json::Arr(vec![num(t0), num(t1)]),
        None => Json::Null,
    }
}

fn range_from_json(j: &Json, key: &str) -> Result<Option<(f64, f64)>, QueryError> {
    match field(j, key)? {
        Json::Null => Ok(None),
        Json::Arr(pair) if pair.len() == 2 => Ok(Some((
            num_value(&pair[0], &format!("{key:?} start"))?,
            num_value(&pair[1], &format!("{key:?} end"))?,
        ))),
        _ => Err(bad(format!("field {key:?} must be [t0, t1] or null"))),
    }
}

fn request_from_json(j: &Json) -> Result<AnalysisRequest, QueryError> {
    match as_str(j, "kind")? {
        "describe" => Ok(AnalysisRequest::Describe),
        "aggregate" => Ok(AnalysisRequest::Aggregate {
            p: as_f64(j, "p")?,
            coarse: as_bool(j, "coarse")?,
            compare: as_bool(j, "compare")?,
            diff_p: match field(j, "diff_p")? {
                Json::Null => None,
                _ => Some(as_f64(j, "diff_p")?),
            },
        }),
        "significant" => Ok(AnalysisRequest::Significant {
            resolution: as_f64(j, "resolution")?,
        }),
        "sweep" => Ok(AnalysisRequest::Sweep {
            resolution: as_f64(j, "resolution")?,
            steps: as_usize(j, "steps")?,
        }),
        "pvalues" => Ok(AnalysisRequest::PValues {
            resolution: as_f64(j, "resolution")?,
        }),
        "inspect" => Ok(AnalysisRequest::Inspect {
            leaf: as_usize(j, "leaf")?,
            slice: as_usize(j, "slice")?,
            p: as_f64(j, "p")?,
            coarse: as_bool(j, "coarse")?,
        }),
        "render-overview" => Ok(AnalysisRequest::RenderOverview {
            p: as_f64(j, "p")?,
            coarse: as_bool(j, "coarse")?,
            min_rows: as_f64(j, "min_rows")?,
            level_resolution: match field(j, "level_resolution")? {
                Json::Null => None,
                _ => Some(as_f64(j, "level_resolution")?),
            },
        }),
        "stats" => Ok(AnalysisRequest::Stats),
        "reslice" => Ok(AnalysisRequest::Reslice {
            n_slices: as_usize(j, "slices")?,
            range: range_from_json(j, "range")?,
        }),
        "subscribe" => Ok(AnalysisRequest::Subscribe {
            inner: Box::new(request_from_json(field(j, "inner")?)?),
        }),
        other => Err(bad(format!("unknown request kind {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

fn shape_to_json(s: &ModelShape) -> Json {
    obj(vec![
        ("n_leaves", int(s.n_leaves)),
        ("n_slices", int(s.n_slices)),
        ("n_states", int(s.n_states)),
        ("metric", strv(&s.metric)),
        ("t_start", num(s.t_start)),
        ("t_end", num(s.t_end)),
    ])
}

fn shape_from_json(j: &Json) -> Result<ModelShape, QueryError> {
    Ok(ModelShape {
        n_leaves: as_usize(j, "n_leaves")?,
        n_slices: as_usize(j, "n_slices")?,
        n_states: as_usize(j, "n_states")?,
        metric: as_str(j, "metric")?.to_string(),
        t_start: as_f64(j, "t_start")?,
        t_end: as_f64(j, "t_end")?,
    })
}

fn area_to_json(a: &AreaRow) -> Json {
    obj(vec![
        ("path", strv(&a.path)),
        ("first_slice", int(a.first_slice)),
        ("last_slice", int(a.last_slice)),
        ("t0", num(a.t0)),
        ("t1", num(a.t1)),
        ("n_resources", int(a.n_resources)),
        ("mode", a.mode.as_deref().map(strv).unwrap_or(Json::Null)),
        ("confidence", num(a.confidence)),
        ("gain", num(a.gain)),
        ("loss", num(a.loss)),
    ])
}

fn area_from_json(j: &Json) -> Result<AreaRow, QueryError> {
    Ok(AreaRow {
        path: as_str(j, "path")?.to_string(),
        first_slice: as_usize(j, "first_slice")?,
        last_slice: as_usize(j, "last_slice")?,
        t0: as_f64(j, "t0")?,
        t1: as_f64(j, "t1")?,
        n_resources: as_usize(j, "n_resources")?,
        mode: as_opt_str(j, "mode")?,
        confidence: as_f64(j, "confidence")?,
        gain: as_f64(j, "gain")?,
        loss: as_f64(j, "loss")?,
    })
}

fn level_to_json(l: &LevelReply) -> Json {
    obj(vec![
        ("p_low", num(l.p_low)),
        ("p_high", num(l.p_high)),
        ("n_areas", int(l.n_areas)),
        ("loss_ratio", num(l.loss_ratio)),
        ("gain_ratio", num(l.gain_ratio)),
        ("complexity_reduction", num(l.complexity_reduction)),
    ])
}

fn level_from_json(j: &Json) -> Result<LevelReply, QueryError> {
    Ok(LevelReply {
        p_low: as_f64(j, "p_low")?,
        p_high: as_f64(j, "p_high")?,
        n_areas: as_usize(j, "n_areas")?,
        loss_ratio: as_f64(j, "loss_ratio")?,
        gain_ratio: as_f64(j, "gain_ratio")?,
        complexity_reduction: as_f64(j, "complexity_reduction")?,
    })
}

fn reply_to_json(reply: &AnalysisReply) -> Json {
    match reply {
        AnalysisReply::Describe(d) => obj(vec![
            ("kind", strv("describe")),
            ("shape", shape_to_json(&d.shape)),
            ("hierarchy_nodes", int(d.hierarchy_nodes)),
            ("hierarchy_depth", int64(d.hierarchy_depth)),
            (
                "states",
                Json::Arr(d.states.iter().map(|s| strv(s)).collect()),
            ),
            ("backend", strv(&d.backend)),
        ]),
        AnalysisReply::Aggregate(a) => obj(vec![
            ("kind", strv("aggregate")),
            ("p", num(a.p)),
            ("coarse", Json::Bool(a.coarse)),
            ("shape", shape_to_json(&a.shape)),
            ("backend", strv(&a.backend)),
            ("backend_bytes", int64(a.backend_bytes)),
            (
                "summary",
                obj(vec![
                    ("n_areas", int(a.summary.n_areas)),
                    ("n_cells", int(a.summary.n_cells)),
                    ("complexity_reduction", num(a.summary.complexity_reduction)),
                    ("loss", num(a.summary.loss)),
                    ("gain", num(a.summary.gain)),
                    ("loss_ratio", num(a.summary.loss_ratio)),
                    ("gain_ratio", num(a.summary.gain_ratio)),
                    ("pic", num(a.summary.pic)),
                ]),
            ),
            (
                "areas",
                Json::Arr(a.areas.iter().map(area_to_json).collect()),
            ),
            (
                "baselines",
                Json::Arr(
                    a.baselines
                        .iter()
                        .map(|b| {
                            obj(vec![
                                ("name", strv(&b.name)),
                                ("n_areas", int(b.n_areas)),
                                ("pic", num(b.pic)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "diff",
                a.diff
                    .as_ref()
                    .map(|d| {
                        obj(vec![
                            ("p_other", num(d.p_other)),
                            ("n_areas_other", int(d.n_areas_other)),
                            ("variation_of_information", num(d.variation_of_information)),
                            (
                                "normalized_mutual_information",
                                num(d.normalized_mutual_information),
                            ),
                            ("rand_index", num(d.rand_index)),
                        ])
                    })
                    .unwrap_or(Json::Null),
            ),
        ]),
        AnalysisReply::Significant(s) => obj(vec![
            ("kind", strv("significant")),
            ("resolution", num(s.resolution)),
            (
                "levels",
                Json::Arr(s.levels.iter().map(level_to_json).collect()),
            ),
        ]),
        AnalysisReply::Sweep(s) => obj(vec![
            ("kind", strv("sweep")),
            ("resolution", num(s.resolution)),
            (
                "levels",
                Json::Arr(s.levels.iter().map(level_to_json).collect()),
            ),
            (
                "points",
                Json::Arr(
                    s.points
                        .iter()
                        .map(|pt| {
                            obj(vec![
                                ("p", num(pt.p)),
                                ("n_areas", int(pt.n_areas)),
                                ("pic", num(pt.pic)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        AnalysisReply::PValues(p) => obj(vec![
            ("kind", strv("pvalues")),
            ("resolution", num(p.resolution)),
            ("ps", Json::Arr(p.ps.iter().map(|&v| num(v)).collect())),
        ]),
        AnalysisReply::Inspect(i) => obj(vec![
            ("kind", strv("inspect")),
            ("leaf", int(i.leaf)),
            ("slice", int(i.slice)),
            ("p", num(i.p)),
            ("coarse", Json::Bool(i.coarse)),
            ("area", area_to_json(&i.area)),
            ("n_slices_spanned", int(i.n_slices_spanned)),
            (
                "proportions",
                Json::Arr(
                    i.proportions
                        .iter()
                        .map(|(name, rho)| Json::Arr(vec![strv(name), num(*rho)]))
                        .collect(),
                ),
            ),
        ]),
        AnalysisReply::Overview(o) => obj(vec![
            ("kind", strv("overview")),
            ("p", num(o.p)),
            ("n_areas", int(o.n_areas)),
            ("n_data", int(o.n_data)),
            ("n_visual", int(o.n_visual)),
            ("n_leaves", int(o.n_leaves)),
            ("n_slices", int(o.n_slices)),
            ("t_start", num(o.t_start)),
            ("t_end", num(o.t_end)),
            (
                "states",
                Json::Arr(o.states.iter().map(|s| strv(s)).collect()),
            ),
            (
                "clusters",
                Json::Arr(
                    o.clusters
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("name", strv(&c.name)),
                                ("leaf_start", int(c.leaf_start)),
                                ("leaf_end", int(c.leaf_end)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "items",
                Json::Arr(
                    o.items
                        .iter()
                        .map(|it| {
                            obj(vec![
                                ("path", strv(&it.path)),
                                ("leaf_start", int(it.leaf_start)),
                                ("leaf_end", int(it.leaf_end)),
                                ("first_slice", int(it.first_slice)),
                                ("last_slice", int(it.last_slice)),
                                ("state", it.state.map(int).unwrap_or(Json::Null)),
                                ("alpha", num(it.alpha)),
                                ("mark", it.mark.map(|m| strv(m.tag())).unwrap_or(Json::Null)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        AnalysisReply::Stats(s) => obj(vec![
            ("kind", strv("stats")),
            ("shape", shape_to_json(&s.shape)),
            ("hierarchy_nodes", int(s.hierarchy_nodes)),
            ("hierarchy_depth", int64(s.hierarchy_depth)),
            ("events", int64(s.events)),
            ("intervals", int64(s.intervals)),
            ("points", int64(s.points)),
            ("bytes_read", int64(s.bytes_read)),
            ("peak_bytes", int64(s.peak_bytes)),
            ("mode", strv(&s.mode)),
            ("format", strv(&s.format)),
            ("fingerprint", strv(&s.fingerprint)),
            ("shard_count", int64(s.shard_count)),
            (
                "shard_bytes",
                Json::Arr(s.shard_bytes.iter().map(|&b| int64(b)).collect()),
            ),
            ("chunks_total", int64(s.chunks_total)),
            ("chunks_read", int64(s.chunks_read)),
            ("bytes_skipped", int64(s.bytes_skipped)),
        ]),
        AnalysisReply::Reslice(r) => obj(vec![
            ("kind", strv("reslice")),
            ("n_slices", int(r.n_slices)),
            ("hi_slices", int(r.hi_slices)),
            ("window", range_to_json(r.window)),
            ("shape", shape_to_json(&r.shape)),
        ]),
        AnalysisReply::Watch(w) => obj(vec![
            ("kind", strv("watch")),
            ("seq", int64(w.seq)),
            ("done", Json::Bool(w.done)),
            ("events", int64(w.events)),
            ("reply", reply_to_json(&w.reply)),
        ]),
    }
}

fn str_arr(j: &Json, key: &str) -> Result<Vec<String>, QueryError> {
    as_arr(j, key)?
        .iter()
        .map(|v| match v {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(bad(format!("{key:?} items must be strings"))),
        })
        .collect()
}

fn reply_from_json(j: &Json) -> Result<AnalysisReply, QueryError> {
    match as_str(j, "kind")? {
        "describe" => Ok(AnalysisReply::Describe(DescribeReply {
            shape: shape_from_json(field(j, "shape")?)?,
            hierarchy_nodes: as_usize(j, "hierarchy_nodes")?,
            hierarchy_depth: as_u64(j, "hierarchy_depth")?,
            states: str_arr(j, "states")?,
            backend: as_str(j, "backend")?.to_string(),
        })),
        "aggregate" => {
            let summary = field(j, "summary")?;
            Ok(AnalysisReply::Aggregate(AggregateReply {
                p: as_f64(j, "p")?,
                coarse: as_bool(j, "coarse")?,
                shape: shape_from_json(field(j, "shape")?)?,
                backend: as_str(j, "backend")?.to_string(),
                backend_bytes: as_u64(j, "backend_bytes")?,
                summary: PartitionSummary {
                    n_areas: as_usize(summary, "n_areas")?,
                    n_cells: as_usize(summary, "n_cells")?,
                    complexity_reduction: as_f64(summary, "complexity_reduction")?,
                    loss: as_f64(summary, "loss")?,
                    gain: as_f64(summary, "gain")?,
                    loss_ratio: as_f64(summary, "loss_ratio")?,
                    gain_ratio: as_f64(summary, "gain_ratio")?,
                    pic: as_f64(summary, "pic")?,
                },
                areas: as_arr(j, "areas")?
                    .iter()
                    .map(area_from_json)
                    .collect::<Result<_, _>>()?,
                baselines: as_arr(j, "baselines")?
                    .iter()
                    .map(|b| {
                        Ok(BaselineRow {
                            name: as_str(b, "name")?.to_string(),
                            n_areas: as_usize(b, "n_areas")?,
                            pic: as_f64(b, "pic")?,
                        })
                    })
                    .collect::<Result<_, QueryError>>()?,
                diff: match field(j, "diff")? {
                    Json::Null => None,
                    d => Some(DiffReply {
                        p_other: as_f64(d, "p_other")?,
                        n_areas_other: as_usize(d, "n_areas_other")?,
                        variation_of_information: as_f64(d, "variation_of_information")?,
                        normalized_mutual_information: as_f64(d, "normalized_mutual_information")?,
                        rand_index: as_f64(d, "rand_index")?,
                    }),
                },
            }))
        }
        "significant" => Ok(AnalysisReply::Significant(SignificantReply {
            resolution: as_f64(j, "resolution")?,
            levels: as_arr(j, "levels")?
                .iter()
                .map(level_from_json)
                .collect::<Result<_, _>>()?,
        })),
        "sweep" => Ok(AnalysisReply::Sweep(SweepReply {
            resolution: as_f64(j, "resolution")?,
            levels: as_arr(j, "levels")?
                .iter()
                .map(level_from_json)
                .collect::<Result<_, _>>()?,
            points: as_arr(j, "points")?
                .iter()
                .map(|pt| {
                    Ok(SweepPoint {
                        p: as_f64(pt, "p")?,
                        n_areas: as_usize(pt, "n_areas")?,
                        pic: as_f64(pt, "pic")?,
                    })
                })
                .collect::<Result<_, QueryError>>()?,
        })),
        "pvalues" => Ok(AnalysisReply::PValues(PValuesReply {
            resolution: as_f64(j, "resolution")?,
            ps: as_arr(j, "ps")?
                .iter()
                .map(|v| num_value(v, "\"ps\" item"))
                .collect::<Result<_, _>>()?,
        })),
        "inspect" => Ok(AnalysisReply::Inspect(InspectReply {
            leaf: as_usize(j, "leaf")?,
            slice: as_usize(j, "slice")?,
            p: as_f64(j, "p")?,
            coarse: as_bool(j, "coarse")?,
            area: area_from_json(field(j, "area")?)?,
            n_slices_spanned: as_usize(j, "n_slices_spanned")?,
            proportions: as_arr(j, "proportions")?
                .iter()
                .map(|pair| match pair {
                    Json::Arr(kv) if kv.len() == 2 => {
                        let Json::Str(name) = &kv[0] else {
                            return Err(bad("proportion name must be a string"));
                        };
                        let rho = num_value(&kv[1], "proportion value")?;
                        Ok((name.clone(), rho))
                    }
                    _ => Err(bad("proportions must be [name, value] pairs")),
                })
                .collect::<Result<_, _>>()?,
        })),
        "overview" => Ok(AnalysisReply::Overview(OverviewReply {
            p: as_f64(j, "p")?,
            n_areas: as_usize(j, "n_areas")?,
            n_data: as_usize(j, "n_data")?,
            n_visual: as_usize(j, "n_visual")?,
            n_leaves: as_usize(j, "n_leaves")?,
            n_slices: as_usize(j, "n_slices")?,
            t_start: as_f64(j, "t_start")?,
            t_end: as_f64(j, "t_end")?,
            states: str_arr(j, "states")?,
            clusters: as_arr(j, "clusters")?
                .iter()
                .map(|c| {
                    Ok(ClusterReply {
                        name: as_str(c, "name")?.to_string(),
                        leaf_start: as_usize(c, "leaf_start")?,
                        leaf_end: as_usize(c, "leaf_end")?,
                    })
                })
                .collect::<Result<_, QueryError>>()?,
            items: as_arr(j, "items")?
                .iter()
                .map(|it| {
                    Ok(OverviewItem {
                        path: as_str(it, "path")?.to_string(),
                        leaf_start: as_usize(it, "leaf_start")?,
                        leaf_end: as_usize(it, "leaf_end")?,
                        first_slice: as_usize(it, "first_slice")?,
                        last_slice: as_usize(it, "last_slice")?,
                        state: match field(it, "state")? {
                            Json::Null => None,
                            _ => Some(as_usize(it, "state")?),
                        },
                        alpha: as_f64(it, "alpha")?,
                        mark: match field(it, "mark")? {
                            Json::Null => None,
                            Json::Str(s) => Some(
                                VisualMark::from_tag(s)
                                    .ok_or_else(|| bad(format!("unknown mark {s:?}")))?,
                            ),
                            _ => return Err(bad("\"mark\" must be a string or null")),
                        },
                    })
                })
                .collect::<Result<_, QueryError>>()?,
        })),
        "stats" => Ok(AnalysisReply::Stats(StatsReply {
            shape: shape_from_json(field(j, "shape")?)?,
            hierarchy_nodes: as_usize(j, "hierarchy_nodes")?,
            hierarchy_depth: as_u64(j, "hierarchy_depth")?,
            events: as_u64(j, "events")?,
            intervals: as_u64(j, "intervals")?,
            points: as_u64(j, "points")?,
            bytes_read: as_u64(j, "bytes_read")?,
            peak_bytes: as_u64(j, "peak_bytes")?,
            mode: as_str(j, "mode")?.to_string(),
            format: as_str(j, "format")?.to_string(),
            fingerprint: as_str(j, "fingerprint")?.to_string(),
            shard_count: as_u64(j, "shard_count")?,
            shard_bytes: as_arr(j, "shard_bytes")?
                .iter()
                .map(|b| match b {
                    Json::Int(i) if *i >= 0 => Ok(*i as u64),
                    _ => Err(bad("\"shard_bytes\" entries must be non-negative integers")),
                })
                .collect::<Result<_, QueryError>>()?,
            chunks_total: as_u64(j, "chunks_total")?,
            chunks_read: as_u64(j, "chunks_read")?,
            bytes_skipped: as_u64(j, "bytes_skipped")?,
        })),
        "reslice" => Ok(AnalysisReply::Reslice(ResliceReply {
            n_slices: as_usize(j, "n_slices")?,
            hi_slices: as_usize(j, "hi_slices")?,
            window: range_from_json(j, "window")?,
            shape: shape_from_json(field(j, "shape")?)?,
        })),
        "watch" => Ok(AnalysisReply::Watch(WatchReply {
            seq: as_u64(j, "seq")?,
            done: as_bool(j, "done")?,
            events: as_u64(j, "events")?,
            reply: Box::new(reply_from_json(field(j, "reply")?)?),
        })),
        other => Err(bad(format!("unknown reply kind {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

fn envelope(inner: (&str, Json)) -> Json {
    obj(vec![("v", int64(PROTOCOL_VERSION)), (inner.0, inner.1)])
}

fn open_envelope(line: &str) -> Result<Json, QueryError> {
    let j = Json::parse(line).map_err(|e| bad(format!("malformed JSON: {e}")))?;
    match j.get("v") {
        Some(Json::Int(v)) if *v as u64 == PROTOCOL_VERSION => Ok(j),
        Some(Json::Int(v)) => Err(bad(format!(
            "protocol version mismatch: got {v}, expected {PROTOCOL_VERSION}"
        ))),
        _ => Err(bad("missing protocol version \"v\"")),
    }
}

/// Encode a bare request as one envelope line (no trailing newline).
pub fn encode_request(req: &AnalysisRequest) -> String {
    envelope(("request", request_to_json(req))).encode()
}

/// Decode a bare request envelope.
pub fn decode_request(line: &str) -> Result<AnalysisRequest, QueryError> {
    let j = open_envelope(line)?;
    request_from_json(field(&j, "request")?)
}

/// Encode a reply-or-error as one envelope line (no trailing newline).
/// This is the *one* JSON serialization of answers — `--json` CLI output
/// and the server both emit exactly these bytes.
pub fn encode_reply(result: &Result<AnalysisReply, QueryError>) -> String {
    match result {
        Ok(reply) => envelope(("reply", reply_to_json(reply))).encode(),
        Err(e) => envelope((
            "error",
            obj(vec![
                ("kind", strv(e.kind())),
                ("message", strv(e.message())),
            ]),
        ))
        .encode(),
    }
}

/// Decode a reply envelope back into the reply-or-error it carried.
pub fn decode_reply(line: &str) -> Result<Result<AnalysisReply, QueryError>, QueryError> {
    let j = open_envelope(line)?;
    if let Some(err) = j.get("error") {
        return Ok(Err(QueryError::from_parts(
            as_str(err, "kind")?,
            as_str(err, "message")?.to_string(),
        )));
    }
    Ok(Ok(reply_from_json(field(&j, "reply")?)?))
}

/// Session parameters a wire request carries (the subset of
/// [`SessionConfig`] a client may set; retention stays server policy).
fn config_to_json(config: &SessionConfig) -> Json {
    obj(vec![
        ("slices", int(config.n_slices)),
        ("metric", strv(config.metric.tag())),
    ])
}

/// Unknown config fields are ignored, so request lines from older clients
/// (which also sent a `memory` backend choice) still parse.
fn config_from_json(j: &Json) -> Result<SessionConfig, QueryError> {
    let metric: Metric = as_str(j, "metric")?.parse().map_err(|e: String| bad(e))?;
    Ok(SessionConfig {
        n_slices: as_usize(j, "slices")?,
        metric,
        ..SessionConfig::default()
    })
}

/// Encode a server-side request line: the trace to analyze, the session
/// parameters, and the request itself.
pub fn encode_wire_request(trace: &str, config: &SessionConfig, req: &AnalysisRequest) -> String {
    obj(vec![
        ("v", int64(PROTOCOL_VERSION)),
        ("trace", strv(trace)),
        ("config", config_to_json(config)),
        ("request", request_to_json(req)),
    ])
    .encode()
}

/// Decode a server-side request line.
pub fn decode_wire_request(
    line: &str,
) -> Result<(String, SessionConfig, AnalysisRequest), QueryError> {
    let j = open_envelope(line)?;
    let trace = as_str(&j, "trace")?.to_string();
    if trace.is_empty() {
        return Err(bad("\"trace\" must not be empty"));
    }
    let config = config_from_json(field(&j, "config")?)?;
    let request = request_from_json(field(&j, "request")?)?;
    Ok((trace, config, request))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_value_round_trips() {
        let cases = [
            "null",
            "true",
            "-42",
            "0.5",
            "\"hé\\\"llo\\n\"",
            "[1,2,[3,null]]",
            "{\"a\":1,\"b\":{\"c\":[true,false]},\"d\":\"x\"}",
        ];
        for c in cases {
            let v = Json::parse(c).unwrap();
            assert_eq!(Json::parse(&v.encode()).unwrap(), v, "{c}");
        }
    }

    #[test]
    fn parser_rejects_malformed() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "tru",
            "1 2",
            "\"\\q\"",
            "\"unterminated",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::Str("é😀".into()));
        // Raw UTF-8 passes through and re-encodes verbatim.
        let s = Json::Str("cpu∈[0,1)".into());
        assert_eq!(Json::parse(&s.encode()).unwrap(), s);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.0, 0.5, 1.0, 1e-3, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300] {
            let enc = Json::Float(f).encode();
            let back = match Json::parse(&enc).unwrap() {
                Json::Float(g) => g,
                Json::Int(i) => i as f64,
                other => panic!("{other:?}"),
            };
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {enc}");
        }
        // Non-finite values take the string escape hatch.
        assert_eq!(Json::Float(f64::NAN).encode(), "\"NaN\"");
        assert_eq!(Json::Float(f64::INFINITY).encode(), "\"Infinity\"");
    }

    #[test]
    fn request_envelope_round_trips() {
        let reqs = [
            AnalysisRequest::Describe,
            AnalysisRequest::Aggregate {
                p: 0.35,
                coarse: true,
                compare: true,
                diff_p: Some(0.9),
            },
            AnalysisRequest::Significant { resolution: 1e-3 },
            AnalysisRequest::Sweep {
                resolution: 0.01,
                steps: 20,
            },
            AnalysisRequest::PValues { resolution: 0.5 },
            AnalysisRequest::Inspect {
                leaf: 3,
                slice: 12,
                p: 0.5,
                coarse: false,
            },
            AnalysisRequest::RenderOverview {
                p: 0.5,
                coarse: false,
                min_rows: 2.5,
                level_resolution: Some(0.01),
            },
            AnalysisRequest::Stats,
            AnalysisRequest::Reslice {
                n_slices: 60,
                range: None,
            },
            AnalysisRequest::Reslice {
                n_slices: 24,
                range: Some((1.5, 7.25)),
            },
            AnalysisRequest::Subscribe {
                inner: Box::new(AnalysisRequest::Aggregate {
                    p: 0.5,
                    coarse: false,
                    compare: false,
                    diff_p: None,
                }),
            },
        ];
        for req in &reqs {
            let line = encode_request(req);
            assert!(!line.contains('\n'), "one line per request");
            assert_eq!(&decode_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn watch_reply_round_trips() {
        let inner = AnalysisReply::PValues(PValuesReply {
            resolution: 0.01,
            ps: vec![0.25, 0.75],
        });
        let watch = AnalysisReply::Watch(WatchReply {
            seq: 3,
            done: true,
            events: 4096,
            reply: Box::new(inner),
        });
        let line = encode_reply(&Ok(watch.clone()));
        assert!(!line.contains('\n'), "one line per refresh");
        assert!(line.contains("\"kind\":\"watch\""));
        assert_eq!(decode_reply(&line).unwrap(), Ok(watch));
    }

    #[test]
    fn error_reply_round_trips() {
        let e = QueryError::InvalidRequest("p out of range".into());
        let line = encode_reply(&Err(e.clone()));
        assert_eq!(decode_reply(&line).unwrap(), Err(e));
    }

    #[test]
    fn wire_request_round_trips() {
        let config = SessionConfig {
            n_slices: 64,
            metric: Metric::Density,
            ..SessionConfig::default()
        };
        let req = AnalysisRequest::Aggregate {
            p: 0.5,
            coarse: false,
            compare: false,
            diff_p: None,
        };
        let line = encode_wire_request("/tmp/trace.btf", &config, &req);
        let (trace, cfg, back) = decode_wire_request(&line).unwrap();
        assert_eq!(trace, "/tmp/trace.btf");
        assert_eq!(cfg, config);
        assert_eq!(back, req);
        // Older clients also sent a backend choice; it is ignored.
        let legacy = line.replace(
            "\"metric\":\"density\"",
            "\"metric\":\"density\",\"memory\":\"lazy\"",
        );
        assert_ne!(legacy, line);
        assert_eq!(decode_wire_request(&legacy).unwrap(), (trace, cfg, back));
    }

    #[test]
    fn malformed_envelopes_are_protocol_errors() {
        for line in [
            "",
            "{}",
            "{\"v\":99,\"request\":{\"kind\":\"stats\"}}",
            "{\"v\":1}",
            "{\"v\":1,\"request\":{\"kind\":\"nope\"}}",
            "{\"v\":1,\"request\":{\"kind\":\"aggregate\",\"p\":0.5}}",
            "{\"v\":1,\"request\":{\"kind\":\"inspect\",\"leaf\":-1,\"slice\":0,\"p\":0.5,\"coarse\":false}}",
            "not json at all",
        ] {
            assert!(
                matches!(decode_request(line), Err(QueryError::Protocol(_))),
                "{line:?}"
            );
        }
        assert!(matches!(
            decode_wire_request("{\"v\":1,\"trace\":\"\",\"config\":{\"slices\":30,\"metric\":\"states\",\"memory\":\"auto\"},\"request\":{\"kind\":\"stats\"}}"),
            Err(QueryError::Protocol(_))
        ));
    }
}
