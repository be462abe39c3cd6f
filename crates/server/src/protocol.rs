//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message on the wire is one **frame**: a 4-byte big-endian payload
//! length followed by that many bytes of UTF-8 JSON. Each payload is a
//! JSON object whose `type` member tags the variant; both directions use
//! the same framing, so the protocol is trivially inspectable with any
//! JSON tool (and, once real `serde_json` replaces the vendored stub,
//! nothing here changes — the frames already are plain JSON).
//!
//! Requests ([`Request`]):
//!
//! | `type` | members | semantics |
//! |---|---|---|
//! | `ping` | — | liveness probe |
//! | `count` | `query` | execute a `MATCH`, return the match count |
//! | `collect` | `query`, `limit?` | execute, return all rows in one frame |
//! | `stream` | `query`, `limit?` | execute, stream rows in bounded batches |
//! | `ddl` | `statement` | any DDL (`CREATE … VIEW`, `RECONFIGURE …`) |
//! | `reconfigure` | `statement` | `RECONFIGURE PRIMARY INDEXES …` only |
//! | `insert` | `src`, `dst`, `label`, `props?` | insert one edge as one committed epoch |
//! | `delete` | `edge` | delete one edge as one committed epoch |
//! | `epoch` | — | the currently published epoch and the node's role |
//! | `metrics` | — | a point-in-time snapshot of the server's metrics registry |
//! | `profile` | `query` | execute with per-operator instrumentation, return count + profile |
//! | `subscribe` | `have?` | become a replication subscriber (replicas only send this) |
//!
//! Responses ([`Response`]): `pong`, `count`, `rows` (the `collect`
//! answer), `row_batch`* + `stream_end` (the `stream` answer), `ddl_ok`,
//! `inserted` / `deleted` (each carrying the epoch the write committed
//! as — on a durable server the epoch is on disk before the frame is
//! sent), `epoch` (epoch + `role`, one of `primary`/`replica`), and
//! `error` — a structured [`WireError`] carrying the server-side
//! [`QueryError`]'s kind, message and (for syntax errors) byte offset, so
//! clients can point at the offending span of the statement they sent.
//!
//! A `subscribe` request turns the connection into a **replication
//! stream**: the server never reads another request on it and pushes
//! `bootstrap` (a full snapshot, when the subscriber is empty or too far
//! behind a WAL trim), `wal_batch` (one committed epoch's operation log),
//! and `repl_heartbeat` (idle keepalive) frames until either side hangs
//! up. Binary payloads (the checkpoint-codec snapshot, the WAL record's
//! op log) travel hex-encoded — see `docs/REPLICATION.md`.
//!
//! Insert properties travel as an **array of `[name, value]` pairs** (not
//! an object): application order is semantically meaningful server-side
//! (property names and string values intern in first-seen order, which
//! recovery replay must reproduce), and JSON objects do not guarantee
//! member order. Values are integers, strings or `null`.
//!
//! Result rows are `[vertices, edges]` pairs of ID arrays. Unbound slots
//! (the executor's `u32::MAX`/`u64::MAX` sentinels) travel as JSON
//! `null` — edge IDs do not fit JSON's exact-integer range at the
//! sentinel value, and `null` keeps round-trips bit-identical.
//!
//! **Integer exactness bound.** Non-sentinel `u64` values (counts, edge
//! IDs, limits) travel as JSON numbers and are exact up to 2^53 (the
//! vendored `Value` stores numbers as `f64`, like permissive real-world
//! JSON); beyond that, JSON numbers lose integer precision, so values
//! above 2^53 are **out of contract** — the encoder debug-asserts the
//! bound.
//! It is unreachable in practice: vertex IDs are `u32`, edge IDs count
//! actual edges, and a count past 2^53 would require enumerating
//! ~9·10^15 matches.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use aplus_query::engine::DdlOutcome;
use aplus_query::{HistogramSnapshot, HopProfile, LevelProfile, MetricsSnapshot, QueryProfile};
use aplus_query::{QueryError, RawRow};
use serde_json::Value;

/// Frames larger than this are rejected on both sides: real payloads are
/// bounded by `row_batch` batching, so an oversized length prefix means a
/// corrupt or hostile peer.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Writes one frame (4-byte big-endian length + JSON payload) with a
/// single `write`: prefix and payload leave in one buffer, so a small
/// frame is one syscall and, under `TCP_NODELAY`, one segment.
pub fn write_frame(w: &mut impl Write, json: &str) -> io::Result<()> {
    let len = u32::try_from(json.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut frame = Vec::with_capacity(4 + json.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(json.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF *before* a length prefix (the
/// peer hung up between frames). EOF mid-frame is an error, and so is a
/// read timeout. Read sockets through a [`std::io::BufReader`] (as
/// [`crate::Client`] and the server do): the prefix read then pulls the
/// whole of a small frame in with one `read`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    read_frame_with(r, |_, e| Err(e))
}

/// [`read_frame`] for a source whose reads time out every poll tick (a
/// socket with a short read timeout set once): a tick *between* frames
/// asks `keep_waiting` — `false` ends the wait with `Ok(None)` — while
/// ticks *inside* a frame only fail it once they have gone on for longer
/// than `frame_timeout`. No socket option changes per frame.
pub(crate) fn read_frame_polled(
    r: &mut impl Read,
    frame_timeout: Duration,
    mut keep_waiting: impl FnMut() -> bool,
) -> io::Result<Option<String>> {
    let mut stalled_since = None;
    read_frame_with(r, |mid_frame, e| {
        if !mid_frame {
            return Ok(keep_waiting());
        }
        if stalled_since.get_or_insert_with(Instant::now).elapsed() < frame_timeout {
            return Ok(true);
        }
        Err(io::Error::new(
            e.kind(),
            "frame did not arrive in full within the frame timeout",
        ))
    })
}

/// The one frame decoder. `on_timeout(mid_frame, error)` decides what a
/// timed-out read means, given whether any byte of the current frame has
/// arrived: `Ok(true)` retries, `Ok(false)` stops waiting.
fn read_frame_with(
    r: &mut impl Read,
    mut on_timeout: impl FnMut(bool, io::Error) -> io::Result<bool>,
) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match read_full(r, &mut len_buf, |got, e| on_timeout(got > 0, e))? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(eof_mid_frame()),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    if read_full(r, &mut payload, |_, e| on_timeout(true, e))? < payload.len() {
        return Err(eof_mid_frame());
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// Fills `buf`, returning how many bytes arrived: short only at EOF or
/// when `on_timeout(bytes so far, error)` stopped the wait.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    mut on_timeout: impl FnMut(usize, io::Error) -> io::Result<bool>,
) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if !on_timeout(got, e)? {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

fn eof_mid_frame() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-frame")
}

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Count the matches of a `MATCH` query.
    Count {
        /// The query text.
        query: String,
    },
    /// Collect up to `limit` rows, delivered in one `rows` frame.
    Collect {
        /// The query text.
        query: String,
        /// Row cap; `None` = unlimited.
        limit: Option<u64>,
    },
    /// Stream up to `limit` rows as bounded `row_batch` frames.
    Stream {
        /// The query text.
        query: String,
        /// Row cap; `None` = unlimited.
        limit: Option<u64>,
    },
    /// Execute a DDL statement (view creation or reconfiguration).
    Ddl {
        /// The statement text.
        statement: String,
    },
    /// Execute a `RECONFIGURE PRIMARY INDEXES` statement (rejected
    /// server-side if the statement is any other DDL).
    Reconfigure {
        /// The statement text.
        statement: String,
    },
    /// Insert one edge, committed (durably, on a durable server) as one
    /// epoch before the response frame is sent.
    Insert {
        /// Source vertex ID.
        src: u32,
        /// Destination vertex ID.
        dst: u32,
        /// Edge label.
        label: String,
        /// Edge properties, in application order (see the module docs).
        props: Vec<(String, WireProp)>,
    },
    /// Delete one edge, committed as one epoch.
    Delete {
        /// The edge ID to delete.
        edge: u64,
    },
    /// Ask for the currently published epoch (0 for a fresh database,
    /// +1 per committed write batch; stable across restarts on a durable
    /// server) and the node's [`Role`].
    Epoch,
    /// Ask for a point-in-time snapshot of the server's metrics registry
    /// (engine/storage/replication/server metrics in one set).
    Metrics,
    /// Execute a query with per-operator instrumentation; the response
    /// carries the match count and the [`QueryProfile`]. Accepts both
    /// `MATCH …` and `PROFILE MATCH …` spellings.
    Profile {
        /// The query text.
        query: String,
    },
    /// Become a replication subscriber: the server stops reading requests
    /// on this connection and pushes `bootstrap` / `wal_batch` /
    /// `repl_heartbeat` frames. `have` is the newest epoch the subscriber
    /// has published (`None` for an empty replica — always bootstraps).
    /// Only valid on a durable primary.
    Subscribe {
        /// Resume point: the subscriber's newest published epoch.
        have: Option<u64>,
    },
}

/// A node's replication role, as reported by the `epoch` verb and the
/// startup banner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// Accepts writes; the replication source.
    #[default]
    Primary,
    /// Serves reads from replicated state; rejects writes with a
    /// `read_only` error frame.
    Replica,
}

impl Role {
    /// The wire spelling (`primary` / `replica`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
        }
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A property value on an `insert` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireProp {
    /// An integer value (exact up to 2^53 in magnitude — the module-level
    /// integer exactness bound).
    Int(i64),
    /// A string value.
    Str(String),
    /// An explicit null.
    Null,
}

/// A server-to-client response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `ping`.
    Pong,
    /// Answer to `count`.
    Count {
        /// The match count.
        value: u64,
    },
    /// Answer to `collect`: the full result in one frame.
    Rows {
        /// The result rows, in sequential result order.
        rows: Vec<RawRow>,
    },
    /// One bounded batch of a `stream` answer.
    RowBatch {
        /// The next rows, in sequential result order.
        rows: Vec<RawRow>,
    },
    /// Terminates a `stream` answer.
    StreamEnd {
        /// Total rows streamed (across all `row_batch` frames).
        rows: u64,
    },
    /// Answer to `ddl` / `reconfigure`.
    DdlOk {
        /// What the statement did.
        outcome: DdlOutcome,
    },
    /// Answer to `insert`: the new edge's ID and the epoch it committed
    /// as. On a durable server the epoch's WAL record is on disk before
    /// this frame is sent — an acknowledged insert survives `kill -9`.
    Inserted {
        /// The assigned edge ID.
        edge: u64,
        /// The epoch the write committed as.
        epoch: u64,
    },
    /// Answer to `delete`.
    Deleted {
        /// The epoch the delete committed as.
        epoch: u64,
    },
    /// Answer to `epoch`.
    Epoch {
        /// The currently published epoch.
        epoch: u64,
        /// The answering node's replication role.
        role: Role,
    },
    /// Answer to `metrics`: every registered counter, gauge and histogram.
    /// The frame additionally carries the snapshot pre-rendered as
    /// Prometheus-style text (`MetricsSnapshot::render_prometheus`), so a
    /// scraper-side bridge never needs to re-derive the exposition format.
    Metrics {
        /// The snapshot.
        snapshot: MetricsSnapshot,
    },
    /// Answer to `profile`: the count plus what the executors did.
    Profile {
        /// The match count.
        value: u64,
        /// The collected per-operator profile.
        profile: QueryProfile,
    },
    /// Replication stream: a full snapshot for the subscriber to install.
    /// Sent when the subscriber is empty (`have: None`) or its resume
    /// point was trimmed away; [`aplus_query::Database::from_checkpoint_payload`]
    /// rebuilds it.
    Bootstrap {
        /// The epoch the snapshot pins.
        epoch: u64,
        /// The checkpoint-codec payload (hex-encoded on the wire).
        payload: Vec<u8>,
    },
    /// Replication stream: one committed epoch's operation log, exactly
    /// the primary's WAL record for that epoch.
    WalBatch {
        /// The epoch this batch committed as.
        epoch: u64,
        /// The encoded operations (`aplus_query::decode_ops` decodes
        /// them; hex-encoded on the wire).
        payload: Vec<u8>,
    },
    /// Replication stream: idle keepalive, so a subscriber can tell a
    /// quiet primary from a dead one.
    ReplHeartbeat {
        /// The primary's currently published epoch.
        epoch: u64,
    },
    /// Any request can fail with a structured error.
    Error(WireError),
}

/// A server-side error as it travels on the wire: the [`QueryError`]
/// kind, its message, and (for syntax errors) the byte offset into the
/// offending statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable machine-readable kind (e.g. `syntax`, `unknown_variable`).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
    /// Byte offset into the submitted statement, when known.
    pub offset: Option<u64>,
}

impl WireError {
    /// A protocol-level error (malformed request, wrong statement kind).
    #[must_use]
    pub fn protocol(message: impl Into<String>) -> Self {
        Self {
            kind: "protocol".into(),
            message: message.into(),
            offset: None,
        }
    }
}

impl From<&QueryError> for WireError {
    fn from(e: &QueryError) -> Self {
        let (kind, offset) = match e {
            QueryError::Syntax { offset, .. } => ("syntax", Some(*offset as u64)),
            QueryError::UnknownVariable(_) => ("unknown_variable", None),
            QueryError::VariableRoleConflict(_) => ("variable_role_conflict", None),
            QueryError::TooManyQueryVertices { .. } => ("too_many_query_vertices", None),
            QueryError::DisconnectedPattern => ("disconnected_pattern", None),
            QueryError::VertexDomainExceeded { .. } => ("vertex_domain_exceeded", None),
            QueryError::HopCapExceeded { offset, .. } => ("hop_cap_exceeded", Some(*offset as u64)),
            QueryError::VarLengthPredicate(_) => ("var_length_predicate", None),
            QueryError::Graph(_) => ("graph", None),
            QueryError::Index(_) => ("index", None),
            QueryError::NoPlan(_) => ("no_plan", None),
        };
        Self {
            kind: kind.into(),
            message: e.to_string(),
            offset,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.offset {
            Some(o) => write!(f, "[{}] at byte {o}: {}", self.kind, self.message),
            None => write!(f, "[{}] {}", self.kind, self.message),
        }
    }
}

// ---------------------------------------------------------------------------
// JSON encoding/decoding (over the vendored serde_json Value)
// ---------------------------------------------------------------------------

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn str_v(s: &str) -> Value {
    Value::String(s.to_owned())
}

/// Encodes a non-sentinel integer; exact only up to 2^53 (see the module
/// docs on the integer exactness bound).
fn num(n: u64) -> Value {
    debug_assert!(n <= 1 << 53, "JSON numbers are exact only up to 2^53");
    Value::Number(n as f64)
}

fn opt_num(n: Option<u64>) -> Value {
    n.map_or(Value::Null, num)
}

/// Encodes a signed integer; exact only up to 2^53 in magnitude.
fn int_v(n: i64) -> Value {
    debug_assert!(
        n.unsigned_abs() <= 1 << 53,
        "JSON numbers are exact only up to 2^53"
    );
    Value::Number(n as f64)
}

/// Insert properties travel as an array of `[name, value]` pairs (see the
/// module docs for why not an object).
fn encode_props(props: &[(String, WireProp)]) -> Value {
    Value::Array(
        props
            .iter()
            .map(|(name, p)| {
                let v = match p {
                    WireProp::Int(i) => int_v(*i),
                    WireProp::Str(s) => str_v(s),
                    WireProp::Null => Value::Null,
                };
                Value::Array(vec![str_v(name), v])
            })
            .collect(),
    )
}

fn decode_props(v: Option<&Value>) -> Result<Vec<(String, WireProp)>, String> {
    let arr = match v {
        None | Some(Value::Null) => return Ok(Vec::new()),
        Some(v) => v
            .as_array()
            .ok_or("props must be an array of [name, value] pairs")?,
    };
    arr.iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| "each prop must be a [name, value] pair".to_owned())?;
            let name = pair[0]
                .as_str()
                .ok_or("prop name must be a string")?
                .to_owned();
            let value = match &pair[1] {
                Value::Null => WireProp::Null,
                Value::String(s) => WireProp::Str(s.clone()),
                other => {
                    let f = other
                        .as_f64()
                        .ok_or_else(|| format!("bad prop value {other:?}"))?;
                    if f.fract() != 0.0 || f.abs() > (1u64 << 53) as f64 {
                        return Err(format!("prop value {f} is not an exact integer"));
                    }
                    WireProp::Int(f as i64)
                }
            };
            Ok((name, value))
        })
        .collect()
}

fn get_u32(v: &Value, key: &str) -> Result<u32, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("member {key:?} must be an unsigned 32-bit integer"))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("member {key:?} must be an unsigned integer"))
}

/// Unbound-slot sentinels travel as `null` (see the module docs).
fn encode_rows(rows: &[RawRow]) -> Value {
    Value::Array(
        rows.iter()
            .map(|(vs, es)| {
                let vs = vs
                    .iter()
                    .map(|&v| {
                        if v == u32::MAX {
                            Value::Null
                        } else {
                            num(u64::from(v))
                        }
                    })
                    .collect();
                let es = es
                    .iter()
                    .map(|&e| if e == u64::MAX { Value::Null } else { num(e) })
                    .collect();
                Value::Array(vec![Value::Array(vs), Value::Array(es)])
            })
            .collect(),
    )
}

fn decode_rows(v: &Value) -> Result<Vec<RawRow>, String> {
    let rows = v.as_array().ok_or("rows must be an array")?;
    rows.iter()
        .map(|row| {
            let pair = row
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| "each row must be a [vertices, edges] pair".to_owned())?;
            let vs = pair[0]
                .as_array()
                .ok_or("row vertices must be an array")?
                .iter()
                .map(|x| match x {
                    Value::Null => Ok(u32::MAX),
                    _ => x
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| format!("bad vertex id {x:?}")),
                })
                .collect::<Result<Vec<_>, _>>()?;
            let es = pair[1]
                .as_array()
                .ok_or("row edges must be an array")?
                .iter()
                .map(|x| match x {
                    Value::Null => Ok(u64::MAX),
                    _ => x.as_u64().ok_or_else(|| format!("bad edge id {x:?}")),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((vs, es))
        })
        .collect()
}

/// Hex-encodes a binary replication payload. Hex (not base64) keeps the
/// dependency footprint at zero and the frames inspectable; replication
/// payloads are op logs of single batches, far below the frame cap even
/// at 2 bytes per byte.
fn encode_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
        s.push(char::from_digit(u32::from(b & 0xf), 16).unwrap());
    }
    s
}

fn decode_hex(s: &str) -> Result<Vec<u8>, String> {
    if s.len() % 2 != 0 {
        return Err("hex payload has odd length".into());
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16);
            let lo = (pair[1] as char).to_digit(16);
            match (hi, lo) {
                (Some(hi), Some(lo)) => Ok((hi * 16 + lo) as u8),
                _ => Err("hex payload has a non-hex digit".to_owned()),
            }
        })
        .collect()
}

fn get_payload(v: &Value) -> Result<Vec<u8>, String> {
    decode_hex(&get_str(v, "payload")?)
}

fn get_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string member {key:?}"))
}

fn get_opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("member {key:?} must be an unsigned integer")),
    }
}

fn encode_u64_map<'a>(entries: impl Iterator<Item = (&'a String, u64)>) -> Value {
    Value::Object(entries.map(|(k, v)| (k.clone(), num(v))).collect())
}

fn encode_metrics(snapshot: &MetricsSnapshot) -> Vec<(&'static str, Value)> {
    let histograms = Value::Object(
        snapshot
            .histograms
            .iter()
            .map(|(name, h)| {
                let v = obj(vec![
                    (
                        "bounds_us",
                        Value::Array(h.bounds_us.iter().map(|&b| num(b)).collect()),
                    ),
                    (
                        "counts",
                        Value::Array(h.counts.iter().map(|&c| num(c)).collect()),
                    ),
                    ("sum_us", num(h.sum_us)),
                    ("count", num(h.count)),
                ]);
                (name.clone(), v)
            })
            .collect(),
    );
    vec![
        ("type", str_v("metrics")),
        (
            "counters",
            encode_u64_map(snapshot.counters.iter().map(|(k, &v)| (k, v))),
        ),
        (
            "gauges",
            Value::Object(
                snapshot
                    .gauges
                    .iter()
                    .map(|(k, &v)| (k.clone(), int_v(v)))
                    .collect(),
            ),
        ),
        ("histograms", histograms),
        ("prometheus", str_v(&snapshot.render_prometheus())),
    ]
}

fn decode_u64_entry(k: &str, v: &Value) -> Result<(String, u64), String> {
    v.as_u64()
        .map(|n| (k.to_owned(), n))
        .ok_or_else(|| format!("metric {k:?} must be an unsigned integer"))
}

fn decode_u64_array(v: &Value, what: &str) -> Result<Vec<u64>, String> {
    v.as_array()
        .ok_or_else(|| format!("{what} must be an array"))?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| format!("{what} holds a non-integer"))
        })
        .collect()
}

fn decode_metrics(v: &Value) -> Result<MetricsSnapshot, String> {
    let map = |key: &str| -> Result<&BTreeMap<String, Value>, String> {
        v.get(key)
            .and_then(Value::as_object)
            .ok_or_else(|| format!("metrics frame needs an object member {key:?}"))
    };
    let counters = map("counters")?
        .iter()
        .map(|(k, x)| decode_u64_entry(k, x))
        .collect::<Result<_, _>>()?;
    let gauges = map("gauges")?
        .iter()
        .map(|(k, x)| {
            x.as_f64()
                .filter(|f| f.fract() == 0.0)
                .map(|f| (k.clone(), f as i64))
                .ok_or_else(|| format!("gauge {k:?} must be an integer"))
        })
        .collect::<Result<_, _>>()?;
    let histograms = map("histograms")?
        .iter()
        .map(|(k, x)| {
            let h = HistogramSnapshot {
                bounds_us: decode_u64_array(
                    x.get("bounds_us").ok_or("histogram needs bounds_us")?,
                    "bounds_us",
                )?,
                counts: decode_u64_array(
                    x.get("counts").ok_or("histogram needs counts")?,
                    "counts",
                )?,
                sum_us: get_u64(x, "sum_us")?,
                count: get_u64(x, "count")?,
            };
            Ok((k.clone(), h))
        })
        .collect::<Result<_, String>>()?;
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

fn encode_profile(profile: &QueryProfile) -> Value {
    let levels = Value::Array(
        profile
            .levels
            .iter()
            .map(|l| {
                obj(vec![
                    ("op", str_v(&l.op)),
                    ("lists_scanned", num(l.lists_scanned)),
                    ("candidates", num(l.candidates)),
                    ("emitted", num(l.emitted)),
                ])
            })
            .collect(),
    );
    let hops = Value::Array(
        profile
            .hops
            .iter()
            .map(|h| {
                obj(vec![
                    ("frontier", num(h.frontier)),
                    ("visited", num(h.visited)),
                    ("emitted", num(h.emitted)),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("engine", str_v(&profile.engine)),
        ("elapsed_us", num(profile.elapsed_us)),
        ("rows", num(profile.rows)),
        ("levels", levels),
        ("hops", hops),
        ("blocks", num(profile.blocks)),
        ("fc_shortcut_hits", num(profile.fc_shortcut_hits)),
        ("flatten_rows", num(profile.flatten_rows)),
        (
            "early_exit_level",
            opt_num(profile.early_exit_level.map(|l| l as u64)),
        ),
        (
            "morsels_per_worker",
            Value::Array(profile.morsels_per_worker.iter().map(|&m| num(m)).collect()),
        ),
    ])
}

fn decode_profile(v: &Value) -> Result<QueryProfile, String> {
    let levels = v
        .get("levels")
        .and_then(Value::as_array)
        .ok_or("profile needs a levels array")?
        .iter()
        .map(|l| {
            Ok(LevelProfile {
                op: get_str(l, "op")?,
                lists_scanned: get_u64(l, "lists_scanned")?,
                candidates: get_u64(l, "candidates")?,
                emitted: get_u64(l, "emitted")?,
            })
        })
        .collect::<Result<_, String>>()?;
    // Absent on frames from servers predating var-length paths.
    let hops = v
        .get("hops")
        .and_then(Value::as_array)
        .map(|hops| {
            hops.iter()
                .map(|h| {
                    Ok(HopProfile {
                        frontier: get_u64(h, "frontier")?,
                        visited: get_u64(h, "visited")?,
                        emitted: get_u64(h, "emitted")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .transpose()?
        .unwrap_or_default();
    Ok(QueryProfile {
        engine: get_str(v, "engine")?,
        elapsed_us: get_u64(v, "elapsed_us")?,
        rows: get_u64(v, "rows")?,
        levels,
        hops,
        blocks: get_u64(v, "blocks")?,
        fc_shortcut_hits: get_u64(v, "fc_shortcut_hits")?,
        flatten_rows: get_u64(v, "flatten_rows")?,
        early_exit_level: get_opt_u64(v, "early_exit_level")?.map(|l| l as usize),
        morsels_per_worker: decode_u64_array(
            v.get("morsels_per_worker")
                .unwrap_or(&Value::Array(Vec::new())),
            "morsels_per_worker",
        )
        .unwrap_or_default(),
    })
}

impl Request {
    /// Encodes this request as a JSON frame payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let value = match self {
            Request::Ping => obj(vec![("type", str_v("ping"))]),
            Request::Count { query } => {
                obj(vec![("type", str_v("count")), ("query", str_v(query))])
            }
            Request::Collect { query, limit } => obj(vec![
                ("type", str_v("collect")),
                ("query", str_v(query)),
                ("limit", opt_num(*limit)),
            ]),
            Request::Stream { query, limit } => obj(vec![
                ("type", str_v("stream")),
                ("query", str_v(query)),
                ("limit", opt_num(*limit)),
            ]),
            Request::Ddl { statement } => obj(vec![
                ("type", str_v("ddl")),
                ("statement", str_v(statement)),
            ]),
            Request::Reconfigure { statement } => obj(vec![
                ("type", str_v("reconfigure")),
                ("statement", str_v(statement)),
            ]),
            Request::Insert {
                src,
                dst,
                label,
                props,
            } => obj(vec![
                ("type", str_v("insert")),
                ("src", num(u64::from(*src))),
                ("dst", num(u64::from(*dst))),
                ("label", str_v(label)),
                ("props", encode_props(props)),
            ]),
            Request::Delete { edge } => obj(vec![("type", str_v("delete")), ("edge", num(*edge))]),
            Request::Epoch => obj(vec![("type", str_v("epoch"))]),
            Request::Metrics => obj(vec![("type", str_v("metrics"))]),
            Request::Profile { query } => {
                obj(vec![("type", str_v("profile")), ("query", str_v(query))])
            }
            Request::Subscribe { have } => {
                obj(vec![("type", str_v("subscribe")), ("have", opt_num(*have))])
            }
        };
        serde_json::to_string(&value).expect("request serializes")
    }

    /// Decodes a request frame payload.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let v = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let kind = get_str(&v, "type")?;
        match kind.as_str() {
            "ping" => Ok(Request::Ping),
            "count" => Ok(Request::Count {
                query: get_str(&v, "query")?,
            }),
            "collect" => Ok(Request::Collect {
                query: get_str(&v, "query")?,
                limit: get_opt_u64(&v, "limit")?,
            }),
            "stream" => Ok(Request::Stream {
                query: get_str(&v, "query")?,
                limit: get_opt_u64(&v, "limit")?,
            }),
            "ddl" => Ok(Request::Ddl {
                statement: get_str(&v, "statement")?,
            }),
            "reconfigure" => Ok(Request::Reconfigure {
                statement: get_str(&v, "statement")?,
            }),
            "insert" => Ok(Request::Insert {
                src: get_u32(&v, "src")?,
                dst: get_u32(&v, "dst")?,
                label: get_str(&v, "label")?,
                props: decode_props(v.get("props"))?,
            }),
            "delete" => Ok(Request::Delete {
                edge: get_u64(&v, "edge")?,
            }),
            "epoch" => Ok(Request::Epoch),
            "metrics" => Ok(Request::Metrics),
            "profile" => Ok(Request::Profile {
                query: get_str(&v, "query")?,
            }),
            "subscribe" => Ok(Request::Subscribe {
                have: get_opt_u64(&v, "have")?,
            }),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

impl Response {
    /// Encodes this response as a JSON frame payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let value = match self {
            Response::Pong => obj(vec![("type", str_v("pong"))]),
            Response::Count { value } => {
                obj(vec![("type", str_v("count")), ("value", num(*value))])
            }
            Response::Rows { rows } => {
                obj(vec![("type", str_v("rows")), ("rows", encode_rows(rows))])
            }
            Response::RowBatch { rows } => obj(vec![
                ("type", str_v("row_batch")),
                ("rows", encode_rows(rows)),
            ]),
            Response::StreamEnd { rows } => {
                obj(vec![("type", str_v("stream_end")), ("rows", num(*rows))])
            }
            Response::DdlOk { outcome } => match outcome {
                DdlOutcome::Reconfigured => obj(vec![
                    ("type", str_v("ddl_ok")),
                    ("outcome", str_v("reconfigured")),
                ]),
                DdlOutcome::Created(name) => obj(vec![
                    ("type", str_v("ddl_ok")),
                    ("outcome", str_v("created")),
                    ("name", str_v(name)),
                ]),
            },
            Response::Inserted { edge, epoch } => obj(vec![
                ("type", str_v("inserted")),
                ("edge", num(*edge)),
                ("epoch", num(*epoch)),
            ]),
            Response::Deleted { epoch } => {
                obj(vec![("type", str_v("deleted")), ("epoch", num(*epoch))])
            }
            Response::Epoch { epoch, role } => obj(vec![
                ("type", str_v("epoch")),
                ("epoch", num(*epoch)),
                ("role", str_v(role.as_str())),
            ]),
            Response::Metrics { snapshot } => obj(encode_metrics(snapshot)),
            Response::Profile { value, profile } => {
                let mut members = vec![("type", str_v("profile")), ("value", num(*value))];
                let encoded = encode_profile(profile);
                members.push(("profile", encoded));
                obj(members)
            }
            Response::Bootstrap { epoch, payload } => obj(vec![
                ("type", str_v("bootstrap")),
                ("epoch", num(*epoch)),
                ("payload", Value::String(encode_hex(payload))),
            ]),
            Response::WalBatch { epoch, payload } => obj(vec![
                ("type", str_v("wal_batch")),
                ("epoch", num(*epoch)),
                ("payload", Value::String(encode_hex(payload))),
            ]),
            Response::ReplHeartbeat { epoch } => obj(vec![
                ("type", str_v("repl_heartbeat")),
                ("epoch", num(*epoch)),
            ]),
            Response::Error(e) => obj(vec![
                ("type", str_v("error")),
                ("kind", str_v(&e.kind)),
                ("message", str_v(&e.message)),
                ("offset", opt_num(e.offset)),
            ]),
        };
        serde_json::to_string(&value).expect("response serializes")
    }

    /// Decodes a response frame payload.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let v = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let kind = get_str(&v, "type")?;
        match kind.as_str() {
            "pong" => Ok(Response::Pong),
            "count" => Ok(Response::Count {
                value: get_opt_u64(&v, "value")?.ok_or("count needs a value")?,
            }),
            "rows" => Ok(Response::Rows {
                rows: decode_rows(v.get("rows").ok_or("rows frame needs rows")?)?,
            }),
            "row_batch" => Ok(Response::RowBatch {
                rows: decode_rows(v.get("rows").ok_or("row_batch frame needs rows")?)?,
            }),
            "stream_end" => Ok(Response::StreamEnd {
                rows: get_opt_u64(&v, "rows")?.ok_or("stream_end needs a row count")?,
            }),
            "ddl_ok" => {
                let outcome = get_str(&v, "outcome")?;
                match outcome.as_str() {
                    "reconfigured" => Ok(Response::DdlOk {
                        outcome: DdlOutcome::Reconfigured,
                    }),
                    "created" => Ok(Response::DdlOk {
                        outcome: DdlOutcome::Created(get_str(&v, "name")?),
                    }),
                    other => Err(format!("unknown ddl outcome {other:?}")),
                }
            }
            "inserted" => Ok(Response::Inserted {
                edge: get_u64(&v, "edge")?,
                epoch: get_u64(&v, "epoch")?,
            }),
            "deleted" => Ok(Response::Deleted {
                epoch: get_u64(&v, "epoch")?,
            }),
            "epoch" => Ok(Response::Epoch {
                epoch: get_u64(&v, "epoch")?,
                // Pre-replication servers sent no role; they were all
                // primaries.
                role: match v.get("role").and_then(Value::as_str) {
                    Some("replica") => Role::Replica,
                    _ => Role::Primary,
                },
            }),
            "metrics" => Ok(Response::Metrics {
                snapshot: decode_metrics(&v)?,
            }),
            "profile" => Ok(Response::Profile {
                value: get_u64(&v, "value")?,
                profile: decode_profile(v.get("profile").ok_or("profile frame needs a profile")?)?,
            }),
            "bootstrap" => Ok(Response::Bootstrap {
                epoch: get_u64(&v, "epoch")?,
                payload: get_payload(&v)?,
            }),
            "wal_batch" => Ok(Response::WalBatch {
                epoch: get_u64(&v, "epoch")?,
                payload: get_payload(&v)?,
            }),
            "repl_heartbeat" => Ok(Response::ReplHeartbeat {
                epoch: get_u64(&v, "epoch")?,
            }),
            "error" => Ok(Response::Error(WireError {
                kind: get_str(&v, "kind")?,
                message: get_str(&v, "message")?,
                offset: get_opt_u64(&v, "offset")?,
            })),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Ping,
            Request::Count {
                query: "MATCH a-[r:W]->b".into(),
            },
            Request::Collect {
                query: "MATCH a-[r]->b WHERE a.name = 'Alice'".into(),
                limit: Some(10),
            },
            Request::Stream {
                query: "MATCH a-[r]->b".into(),
                limit: None,
            },
            Request::Ddl {
                statement: "CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd INDEX AS FW".into(),
            },
            Request::Reconfigure {
                statement: "RECONFIGURE PRIMARY INDEXES SORT BY vnbr.ID".into(),
            },
            Request::Insert {
                src: 0,
                dst: 2,
                label: "W".into(),
                props: vec![
                    ("amt".into(), WireProp::Int(42)),
                    ("currency".into(), WireProp::Str("USD".into())),
                    ("memo".into(), WireProp::Null),
                    ("delta".into(), WireProp::Int(-7)),
                ],
            },
            Request::Insert {
                src: 1,
                dst: 3,
                label: "DD".into(),
                props: Vec::new(),
            },
            Request::Delete { edge: 17 },
            Request::Epoch,
            Request::Metrics,
            Request::Profile {
                query: "PROFILE MATCH a-[r]->b".into(),
            },
            Request::Subscribe { have: None },
            Request::Subscribe { have: Some(12) },
        ];
        for req in cases {
            let json = req.to_json();
            assert_eq!(Request::from_json(&json).unwrap(), req, "{json}");
        }
    }

    #[test]
    fn responses_round_trip_including_sentinels() {
        let cases = [
            Response::Pong,
            Response::Count { value: 123 },
            Response::Rows {
                rows: vec![
                    (vec![0, 5], vec![17]),
                    // Unbound sentinels survive the wire bit-identically.
                    (vec![u32::MAX, 2], vec![u64::MAX, 3]),
                ],
            },
            Response::RowBatch {
                rows: vec![(vec![1], vec![])],
            },
            Response::StreamEnd { rows: 7 },
            Response::DdlOk {
                outcome: DdlOutcome::Reconfigured,
            },
            Response::DdlOk {
                outcome: DdlOutcome::Created("BigUsd".into()),
            },
            Response::Error(WireError {
                kind: "syntax".into(),
                message: "expected a MATCH query".into(),
                offset: Some(4),
            }),
            Response::Inserted { edge: 25, epoch: 3 },
            Response::Deleted { epoch: 4 },
            Response::Epoch {
                epoch: 0,
                role: Role::Primary,
            },
            Response::Epoch {
                epoch: 9,
                role: Role::Replica,
            },
            Response::Bootstrap {
                epoch: 5,
                payload: vec![0x00, 0x7f, 0xff, 0x10],
            },
            Response::WalBatch {
                epoch: 6,
                payload: Vec::new(),
            },
            Response::ReplHeartbeat { epoch: 6 },
            Response::Metrics {
                snapshot: sample_metrics(),
            },
            Response::Profile {
                value: 9,
                profile: sample_profile(),
            },
            Response::Error(WireError::protocol("unknown request type")),
        ];
        for resp in cases {
            let json = resp.to_json();
            assert_eq!(Response::from_json(&json).unwrap(), resp, "{json}");
        }
    }

    fn sample_metrics() -> MetricsSnapshot {
        let registry = aplus_query::MetricsRegistry::new();
        registry
            .counter("aplus_server_requests_total{verb=\"count\"}")
            .add(3);
        registry.gauge("aplus_engine_published_epoch").set(7);
        registry.gauge("negative_gauge").set(-2);
        let h = registry.histogram("aplus_wal_append_seconds");
        h.observe_us(12);
        h.observe_us(3_000_000);
        registry.snapshot()
    }

    fn sample_profile() -> QueryProfile {
        QueryProfile {
            engine: "block".into(),
            elapsed_us: 1234,
            rows: 9,
            levels: vec![
                LevelProfile {
                    op: "Scan v0".into(),
                    lists_scanned: 0,
                    candidates: 12,
                    emitted: 12,
                },
                LevelProfile {
                    op: "E/I v1 ⋂[fwd]".into(),
                    lists_scanned: 12,
                    candidates: 40,
                    emitted: 9,
                },
            ],
            hops: vec![HopProfile {
                frontier: 1,
                visited: 1,
                emitted: 4,
            }],
            blocks: 1,
            fc_shortcut_hits: 2,
            flatten_rows: 0,
            early_exit_level: Some(2),
            morsels_per_worker: vec![5, 3],
        }
    }

    #[test]
    fn metrics_frames_carry_prometheus_text() {
        let snapshot = sample_metrics();
        let json = Response::Metrics {
            snapshot: snapshot.clone(),
        }
        .to_json();
        // The pre-rendered exposition rides along for scraper bridges…
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let text = v.get("prometheus").and_then(Value::as_str).unwrap();
        assert!(
            text.contains("aplus_server_requests_total{verb=\"count\"} 3"),
            "{text}"
        );
        // …and the structured snapshot round-trips exactly.
        assert_eq!(
            Response::from_json(&json).unwrap(),
            Response::Metrics { snapshot }
        );
    }

    #[test]
    fn epoch_without_a_role_reads_as_primary() {
        // Frames from pre-replication servers carry no role member.
        assert_eq!(
            Response::from_json("{\"type\":\"epoch\",\"epoch\":3}").unwrap(),
            Response::Epoch {
                epoch: 3,
                role: Role::Primary,
            }
        );
    }

    #[test]
    fn malformed_hex_payloads_are_rejected() {
        assert!(
            Response::from_json("{\"type\":\"wal_batch\",\"epoch\":1,\"payload\":\"abc\"}")
                .is_err(),
            "odd length"
        );
        assert!(
            Response::from_json("{\"type\":\"bootstrap\",\"epoch\":1,\"payload\":\"zz\"}").is_err(),
            "non-hex digit"
        );
    }

    #[test]
    fn wire_error_maps_query_error_spans() {
        let e = QueryError::Syntax {
            message: "boom".into(),
            offset: 9,
        };
        let w = WireError::from(&e);
        assert_eq!(w.kind, "syntax");
        assert_eq!(w.offset, Some(9));
        assert!(w.to_string().contains("byte 9"), "{w}");
        let w = WireError::from(&QueryError::DisconnectedPattern);
        assert_eq!(w.kind, "disconnected_pattern");
        assert_eq!(w.offset, None);
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\":\"ping\"}").unwrap();
        write_frame(&mut buf, "{\"type\":\"pong\"}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"type\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"type\":\"pong\"}");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err(), "oversized length");
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc"); // 3 of 8 payload bytes
        assert!(read_frame(&mut &buf[..]).is_err(), "EOF mid-frame");
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]); // not UTF-8
        assert!(read_frame(&mut &buf[..]).is_err(), "non-UTF-8 payload");
    }

    /// A `Write` that counts calls, accepting everything offered.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A `Read` that replays a script: each step hands out at most that
    /// many bytes of `data`, `0` standing for one timed-out read; after
    /// the script it behaves like EOF. Counts the calls.
    struct ScriptedReader {
        data: Vec<u8>,
        pos: usize,
        script: std::collections::VecDeque<usize>,
        reads: usize,
    }

    impl ScriptedReader {
        fn new(data: Vec<u8>, script: impl IntoIterator<Item = usize>) -> Self {
            Self {
                data,
                pos: 0,
                script: script.into_iter().collect(),
                reads: 0,
            }
        }
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            match self.script.pop_front() {
                None => Ok(0),
                Some(0) => Err(io::Error::new(io::ErrorKind::WouldBlock, "tick")),
                Some(step) => {
                    let n = step.min(buf.len()).min(self.data.len() - self.pos);
                    buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                    self.pos += n;
                    Ok(n)
                }
            }
        }
    }

    const PING: &str = "{\"type\":\"ping\"}";
    const PONG: &str = "{\"type\":\"pong\"}";

    fn frames(payloads: &[&str]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for p in payloads {
            write_frame(&mut bytes, p).unwrap();
        }
        bytes
    }

    #[test]
    fn a_frame_is_written_with_exactly_one_write() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, PING).unwrap();
        assert_eq!(w.writes, 1, "prefix and payload leave together");
        assert_eq!(w.bytes, frames(&[PING]));
        let big = "x".repeat(100_000);
        let mut w = CountingWriter::default();
        write_frame(&mut w, &big).unwrap();
        assert_eq!(w.writes, 1);
    }

    #[test]
    fn a_frame_arriving_one_byte_at_a_time_decodes() {
        let bytes = frames(&[PING]);
        let n = bytes.len();
        let mut r = ScriptedReader::new(bytes, std::iter::repeat_n(1, n));
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), PING);
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn two_frames_in_one_segment_cost_one_read() {
        let bytes = frames(&[PING, PONG]);
        let n = bytes.len();
        let mut r = std::io::BufReader::new(ScriptedReader::new(bytes, [n]));
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), PING);
        assert_eq!(r.get_ref().reads, 1, "a small frame is one read");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), PONG);
        assert_eq!(
            r.get_ref().reads,
            1,
            "the second frame was already buffered"
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn a_frame_split_across_the_buffer_boundary_decodes() {
        // A 16-byte buffer: the first frame ends inside the second fill,
        // the second frame's prefix straddles a refill, and the long
        // payload is larger than the whole buffer.
        let long = format!("{{\"type\":\"count\",\"query\":\"{}\"}}", "q".repeat(100));
        let bytes = frames(&[PING, PONG, &long, PING]);
        for chunk in [1usize, 3, 7, 16, 1000] {
            let script = std::iter::repeat_n(chunk, bytes.len());
            let reader = ScriptedReader::new(bytes.clone(), script);
            let mut r = std::io::BufReader::with_capacity(16, reader);
            for want in [PING, PONG, long.as_str(), PING] {
                assert_eq!(read_frame(&mut r).unwrap().unwrap(), want, "chunk {chunk}");
            }
            assert_eq!(read_frame(&mut r).unwrap(), None, "chunk {chunk}");
        }
    }

    #[test]
    fn bad_prefixes_and_torn_frames_are_clean_errors_through_a_buffer() {
        let oversized = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
        let mut r = std::io::BufReader::new(ScriptedReader::new(oversized, [4]));
        let e = read_frame(&mut r).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        // EOF inside the prefix and inside the payload.
        let bytes = frames(&[PING]);
        for cut in [1, 3, 4, 5, bytes.len() - 1] {
            let torn = bytes[..cut].to_vec();
            let mut r = std::io::BufReader::new(ScriptedReader::new(torn, [cut]));
            let e = read_frame(&mut r).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // A plain `read_frame` treats a timed-out read as the error it is.
        let mut r = ScriptedReader::new(frames(&[PING]), [2, 0]);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
    }

    #[test]
    fn polled_reads_wait_between_frames_and_bound_a_started_frame() {
        let bytes = frames(&[PING]);
        let n = bytes.len();
        // Idle ticks ask `keep_waiting`; ticks inside the frame do not.
        let mut r = ScriptedReader::new(bytes.clone(), [0, 0, 2, 0, 2, 0, n]);
        let mut idle_ticks = 0;
        let frame = read_frame_polled(&mut r, Duration::from_secs(60), || {
            idle_ticks += 1;
            true
        });
        assert_eq!(frame.unwrap().unwrap(), PING);
        assert_eq!(idle_ticks, 2, "only the ticks before the first byte");
        // `keep_waiting` answering no ends an idle wait cleanly…
        let mut r = ScriptedReader::new(bytes.clone(), [0, 0, n]);
        let stopped = read_frame_polled(&mut r, Duration::from_secs(60), || false);
        assert_eq!(stopped.unwrap(), None);
        // …but never abandons a frame that has started: that is bounded by
        // the frame timeout instead.
        let mut r = ScriptedReader::new(bytes, [2, 0, n]);
        let late = read_frame_polled(&mut r, Duration::ZERO, || panic!("not idle"));
        assert_eq!(late.unwrap_err().kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(Request::from_json("not json").is_err());
        assert!(Request::from_json("{\"type\":\"warp\"}").is_err());
        assert!(
            Request::from_json("{\"type\":\"count\"}").is_err(),
            "no query"
        );
        assert!(Response::from_json("{\"type\":\"rows\",\"rows\":[[1]]}").is_err());
        assert!(
            Request::from_json("{\"type\":\"collect\",\"query\":\"q\",\"limit\":-1}").is_err(),
            "negative limit"
        );
    }
}
