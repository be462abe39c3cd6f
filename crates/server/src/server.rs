//! The TCP server: a thread-per-connection accept loop over a
//! [`SharedDatabase`].
//!
//! Every connection handler holds a cheap [`SharedDatabase`] clone, so all
//! queries of all clients execute on the **one shared** `MorselPool` and
//! all mutation serializes through the one write gate — the server adds
//! no execution machinery of its own, only the wire. Reads (`count`,
//! `collect`, `stream`) pin an immutable database snapshot and **never
//! wait on writers**: a `reconfigure` rebuilding every index delays no
//! reader, and a reader crash can never poison anything.
//!
//! # The request path
//!
//! A connection is one thread and nothing else: it reads frames through
//! a per-connection buffer (a small request is one `read`; the socket's
//! read timeout is set once, to the idle poll interval), answers each
//! with one `write`, and bumps per-verb metric handles that were resolved
//! once for the whole server. No request spawns a thread or changes a
//! socket option.
//!
//! # Streaming and slow clients
//!
//! A `stream` request runs the query on the connection thread with a
//! [`RowSink`] that buffers rows and writes a `row_batch` frame when
//! [`ServerConfig::frame_rows`] rows are waiting, when the stream ends,
//! or when the oldest buffered row has waited [`STREAM_FLUSH_AFTER`]
//! (checked as rows are pushed). The query executes against one pinned
//! snapshot, so the client observes a transactionally consistent result
//! no matter how many writes commit mid-stream — and those writers are
//! never delayed by it. The socket is the back-pressure: a client that
//! stops reading eventually blocks the frame write; after
//! [`ServerConfig::write_timeout`] the write fails, the sink returns
//! [`std::ops::ControlFlow::Break`] — the disconnect-cancellation path,
//! which stops the query cooperatively — and the connection is dropped,
//! releasing the snapshot version an abandoned stream would pin forever.
//!
//! # Graceful shutdown
//!
//! [`ServerHandle::shutdown`] triggers the shared
//! [`aplus_runtime::Shutdown`] signal: the accept loop stops accepting
//! (it blocks in `accept`, so `shutdown` wakes it with a loopback
//! connection to itself; new connections are refused once the listener
//! closes), idle connections close at their next poll, in-flight requests
//! run to completion and flush their responses, and `shutdown` joins
//! every thread before returning.

use std::io::{self, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aplus_common::{EdgeId, VertexId};
use aplus_graph::Value;
use aplus_obs::{Counter, Histogram, MetricsRegistry};
use aplus_query::engine::DdlOutcome;
use aplus_query::{RawRow, RowSink, SharedDatabase};
use aplus_runtime::Shutdown;

use crate::protocol::{
    read_frame_polled, write_frame, Request, Response, Role, WireError, WireProp,
};

/// How long the oldest row of a partly filled `row_batch` may wait before
/// the batch is sent anyway, so a slow query still delivers its rows
/// promptly. Checked as rows are pushed.
pub const STREAM_FLUSH_AFTER: Duration = Duration::from_millis(1);

/// Wire-facing metric names. Per-verb and per-subscriber series embed a
/// literal Prometheus-style label set in the name — the registry treats
/// the whole string as the key, and the text rendering passes it through
/// (histogram `le` labels splice into the existing braces).
pub mod metric {
    /// Gauge: connections currently being served.
    pub const CONNECTIONS: &str = "aplus_server_connections";
    /// Counter: connections accepted over the server's lifetime.
    pub const CONNECTIONS_TOTAL: &str = "aplus_server_connections_total";
    /// Counter: streams torn down mid-flight because the client was gone
    /// or too slow to drain (the back-pressure write timeout fired).
    pub const STREAM_DISCONNECTS: &str = "aplus_server_stream_disconnects_total";

    /// Counter name for requests of one verb.
    #[must_use]
    pub fn requests_total(verb: &str) -> String {
        format!("aplus_server_requests_total{{verb=\"{verb}\"}}")
    }

    /// Latency histogram name for one verb (request/response verbs only;
    /// `subscribe` never completes, so it has no latency series).
    #[must_use]
    pub fn request_seconds(verb: &str) -> String {
        format!("aplus_server_request_seconds{{verb=\"{verb}\"}}")
    }

    /// Gauge name for one subscriber's replication lag (primary epoch
    /// minus the newest epoch the subscriber holds). Converges to 0 on an
    /// idle, caught-up topology.
    #[must_use]
    pub fn subscriber_lag(peer: u64) -> String {
        format!("aplus_repl_subscriber_lag{{peer=\"{peer}\"}}")
    }
}

/// The wire verbs, as spelled in a request's `type` member; a verb's
/// position indexes [`VerbMetrics`].
const VERBS: [&str; 12] = [
    "ping",
    "count",
    "collect",
    "stream",
    "ddl",
    "reconfigure",
    "insert",
    "delete",
    "epoch",
    "metrics",
    "profile",
    "subscribe",
];

/// The index of a request's verb in [`VERBS`].
fn request_verb(request: &Request) -> usize {
    match request {
        Request::Ping => 0,
        Request::Count { .. } => 1,
        Request::Collect { .. } => 2,
        Request::Stream { .. } => 3,
        Request::Ddl { .. } => 4,
        Request::Reconfigure { .. } => 5,
        Request::Insert { .. } => 6,
        Request::Delete { .. } => 7,
        Request::Epoch => 8,
        Request::Metrics => 9,
        Request::Profile { .. } => 10,
        Request::Subscribe { .. } => 11,
    }
}

/// One server's per-verb `requests_total` / `request_seconds` handles,
/// each resolved on first use and shared by every connection — the
/// request path bumps atomics, it never formats a series name or takes
/// the registry lock. (Lazily, so a series still appears only once it has
/// a sample: `subscribe` never completes, so it gets no latency series.)
#[derive(Default)]
struct VerbMetrics {
    requests_total: [OnceLock<Counter>; VERBS.len()],
    request_seconds: [OnceLock<Histogram>; VERBS.len()],
}

impl VerbMetrics {
    fn requests_total(&self, verb: usize, registry: &MetricsRegistry) -> &Counter {
        self.requests_total[verb]
            .get_or_init(|| registry.counter(&metric::requests_total(VERBS[verb])))
    }

    fn request_seconds(&self, verb: usize, registry: &MetricsRegistry) -> &Histogram {
        self.request_seconds[verb]
            .get_or_init(|| registry.histogram(&metric::request_seconds(VERBS[verb])))
    }
}

/// Decrements the live-connection gauge however the handler exits.
struct ConnectionGuard(aplus_obs::Gauge);

impl ConnectionGuard {
    fn enter(shared: &SharedDatabase) -> Self {
        let metrics = shared.metrics();
        metrics.counter(metric::CONNECTIONS_TOTAL).inc();
        let gauge = metrics.gauge(metric::CONNECTIONS);
        gauge.inc();
        Self(gauge)
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum rows per `row_batch` frame — also the most rows a stream
    /// ever holds server-side (the socket is the back-pressure).
    pub frame_rows: usize,
    /// How long one socket write may block before the client is declared
    /// too slow and disconnected (which cancels its in-flight stream).
    pub write_timeout: Duration,
    /// How often idle connections (and idle replication subscriptions)
    /// check the shutdown signal. The accept loop does not poll.
    pub poll_interval: Duration,
    /// How long a started request frame may stall (reads timing out every
    /// `poll_interval`) before the connection is dropped.
    pub frame_timeout: Duration,
    /// Most rows one `collect` answer may carry. A `collect` travels as a
    /// single frame, so this bounds server-side result materialization;
    /// larger results get a `result_too_large` error directing the client
    /// to `stream` (which is bounded by `frame_rows` instead).
    pub collect_row_cap: usize,
    /// How often an idle replication subscription sends a
    /// `repl_heartbeat` frame, so subscribers can tell a quiet primary
    /// from a dead one. The WAL is polled every `poll_interval`
    /// regardless — this only paces keepalives.
    pub repl_heartbeat: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            frame_rows: 256,
            write_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(50),
            frame_timeout: Duration::from_secs(30),
            collect_row_cap: 262_144,
            repl_heartbeat: Duration::from_millis(500),
        }
    }
}

/// A running server: the accept thread plus the shutdown signal. Dropping
/// the handle shuts the server down gracefully.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when `addr` used
    /// port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully shuts down: refuses new connections, drains in-flight
    /// requests, joins every server thread.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.shutdown.trigger();
        let Some(accept_thread) = self.accept_thread.take() else {
            return;
        };
        // The accept loop blocks in `accept` (an idle listener costs
        // nothing and a fresh connection is served at once); a loopback
        // connection to ourselves wakes it to see the signal.
        match TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1)) {
            Ok(_) => {
                let _ = accept_thread.join();
            }
            // Could not dial ourselves (descriptors exhausted, a bind
            // address that is not self-dialable): joining would hang, so
            // the accept thread is left to exit at its next wake-up.
            // Connections still see the signal and drain on their own.
            Err(e) => aplus_obs::log::warn(format_args!(
                "aplus_server: could not wake the accept loop for shutdown: {e}"
            )),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// The address that reaches a listener bound to `bound` from this host:
/// a wildcard bind is dialled through loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Binds `addr` and serves `shared` until [`ServerHandle::shutdown`], as
/// a primary (writes accepted; durable primaries also serve `subscribe`
/// replication streams).
pub fn serve(
    shared: SharedDatabase,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    serve_with_role(shared, addr, config, Role::Primary)
}

/// [`serve`] with an explicit [`Role`]. Under [`Role::Replica`] the
/// server rejects every mutating request (`insert`, `delete`, `ddl`,
/// `reconfigure`) with a `read_only` error frame and refuses `subscribe`
/// (replicas do not chain) — reads and `epoch` work unchanged, serving
/// whatever epochs the replica's applier has published.
pub fn serve_with_role(
    shared: SharedDatabase,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    role: Role,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(Shutdown::new());
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread = std::thread::Builder::new()
        .name("aplus-accept".into())
        .spawn(move || accept_loop(&listener, &shared, &config, role, &accept_shutdown))?;
    Ok(ServerHandle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(
    listener: &TcpListener,
    shared: &SharedDatabase,
    config: &ServerConfig,
    role: Role,
    shutdown: &Arc<Shutdown>,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    let mut accept_errors = 0u32;
    let verbs = Arc::new(VerbMetrics::default());
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                accept_errors = 0;
                if shutdown.is_triggered() {
                    drop(stream); // refuse: no request is ever read
                    break;
                }
                // Reap finished handlers so the registry stays small on
                // long-lived servers.
                connections.retain(|c| !c.is_finished());
                let shared = shared.clone();
                let config = config.clone();
                let shutdown = Arc::clone(shutdown);
                let verbs = Arc::clone(&verbs);
                let spawned =
                    std::thread::Builder::new()
                        .name("aplus-conn".into())
                        .spawn(move || {
                            // A connection panic kills only that connection
                            // (and, since readers pin snapshots and a
                            // crashed writer's head is discarded
                            // unpublished, never the database).
                            handle_connection(stream, &shared, &config, role, &shutdown, &verbs);
                        });
                match spawned {
                    Ok(handle) => connections.push(handle),
                    Err(e) => aplus_obs::log::error(format_args!(
                        "aplus_server: could not spawn handler: {e}"
                    )),
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::Interrupted) => continue,
            Err(e) => {
                if shutdown.is_triggered() {
                    break;
                }
                // Transient failures (fd exhaustion, an aborted handshake)
                // clear on their own: back off one poll interval and keep
                // accepting instead of leaving a dead server behind a
                // live-looking handle. Log the first few only.
                accept_errors += 1;
                if accept_errors <= 8 {
                    aplus_obs::log::warn(format_args!(
                        "aplus_server: accept failed (retrying): {e}"
                    ));
                }
                if shutdown.wait_timeout(config.poll_interval) {
                    break;
                }
            }
        }
        if shutdown.is_triggered() {
            break;
        }
    }
    // Drain: in-flight requests complete; idle connections notice the
    // signal within one poll interval; stalled stream writes are bounded
    // by the write timeout.
    for c in connections {
        let _ = c.join();
    }
}

/// Reads the next request frame, checking the shutdown signal before a
/// frame starts and at every idle poll tick. `Ok(None)` means the
/// connection is done (peer EOF or shutdown). A frame that has started
/// must arrive within the frame timeout, shutdown or not — an in-flight
/// request is served before the connection closes.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    config: &ServerConfig,
    shutdown: &Shutdown,
) -> io::Result<Option<String>> {
    if shutdown.is_triggered() {
        return Ok(None);
    }
    read_frame_polled(reader, config.frame_timeout, || !shutdown.is_triggered())
}

fn handle_connection(
    stream: TcpStream,
    shared: &SharedDatabase,
    config: &ServerConfig,
    role: Role,
    shutdown: &Shutdown,
    verbs: &VerbMetrics,
) {
    // Socket options are set here, once: reads tick every poll interval
    // (that is how an idle connection notices shutdown), writes give up on
    // a client too slow to drain.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.poll_interval));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let metrics = shared.metrics();
    let _guard = ConnectionGuard::enter(shared);
    let mut reader = BufReader::new(stream);
    loop {
        let frame = match read_request(&mut reader, config, shutdown) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return,
        };
        // Responses go straight to the socket under the read buffer.
        let stream = reader.get_mut();
        let request = match Request::from_json(&frame) {
            Ok(r) => r,
            Err(e) => {
                // The framing is intact (we read a complete frame), so a
                // malformed payload gets a structured error and the
                // connection lives on.
                let resp = Response::Error(WireError::protocol(format!("bad request: {e}")));
                if respond(stream, &resp) {
                    continue;
                }
                return;
            }
        };
        if role == Role::Replica && is_write_request(&request) {
            // Structured rejection: the client learns this node's role and
            // can redirect the write to the primary.
            let resp = Response::Error(WireError {
                kind: "read_only".into(),
                message: "this node is a read replica; send writes to the primary".into(),
                offset: None,
            });
            if respond(stream, &resp) {
                continue;
            }
            return;
        }
        let verb = request_verb(&request);
        verbs.requests_total(verb, &metrics).inc();
        // Slow-query logging wants the text after the (consuming) dispatch
        // below; only pay for the clone when the threshold is configured.
        let slow_threshold = aplus_obs::slow_query_threshold();
        let query_text = slow_threshold.and_then(|_| match &request {
            Request::Count { query }
            | Request::Collect { query, .. }
            | Request::Stream { query, .. }
            | Request::Profile { query } => Some(query.clone()),
            _ => None,
        });
        let started = Instant::now();
        let keep_going = match request {
            Request::Ping => respond(stream, &Response::Pong),
            Request::Count { query } => {
                let resp = match shared.count(&query) {
                    Ok(value) => Response::Count { value },
                    Err(e) => Response::Error(WireError::from(&e)),
                };
                respond(stream, &resp)
            }
            Request::Collect { query, limit } => {
                let resp = run_collect(shared, config, &query, decode_limit(limit));
                let json = bounded_response_json(&resp, crate::protocol::MAX_FRAME_LEN as usize);
                write_frame(stream, &json).is_ok()
            }
            Request::Ddl { statement } => {
                // Transactional: a failed statement aborts its write
                // batch, so no epoch is published for an error frame.
                let resp = match shared.ddl(&statement) {
                    Ok(outcome) => Response::DdlOk { outcome },
                    Err(e) => Response::Error(WireError::from(&e)),
                };
                respond(stream, &resp)
            }
            Request::Reconfigure { statement } => {
                let resp = run_reconfigure(shared, &statement);
                respond(stream, &resp)
            }
            Request::Insert {
                src,
                dst,
                label,
                props,
            } => respond(stream, &run_insert(shared, src, dst, &label, &props)),
            Request::Delete { edge } => respond(stream, &run_delete(shared, edge)),
            Request::Epoch => respond(
                stream,
                &Response::Epoch {
                    epoch: shared.epoch(),
                    role,
                },
            ),
            Request::Stream { query, limit } => {
                handle_stream(stream, shared, config, &query, decode_limit(limit))
            }
            Request::Metrics => respond(
                stream,
                &Response::Metrics {
                    snapshot: metrics.snapshot(),
                },
            ),
            Request::Profile { query } => {
                let resp = match shared.profile_count(&query) {
                    Ok((value, profile)) => Response::Profile { value, profile },
                    Err(e) => Response::Error(WireError::from(&e)),
                };
                respond(stream, &resp)
            }
            Request::Subscribe { have } => {
                // The connection becomes a push-only replication stream;
                // when the subscription ends, so does the connection.
                // (Counted above; no latency series — it never returns.)
                serve_subscription(stream, shared, config, role, have, shutdown);
                return;
            }
        };
        let elapsed = started.elapsed();
        verbs.request_seconds(verb, &metrics).observe(elapsed);
        if let (Some(threshold), Some(query)) = (slow_threshold, query_text) {
            if elapsed >= threshold {
                aplus_obs::log::warn(format_args!(
                    "aplus_server: slow {} ({} ms): {query}",
                    VERBS[verb],
                    elapsed.as_millis()
                ));
            }
        }
        if !keep_going {
            return;
        }
    }
}

fn decode_limit(limit: Option<u64>) -> usize {
    limit.map_or(usize::MAX, |l| usize::try_from(l).unwrap_or(usize::MAX))
}

/// Requests a replica must reject (everything that would mint an epoch).
fn is_write_request(request: &Request) -> bool {
    matches!(
        request,
        Request::Insert { .. }
            | Request::Delete { .. }
            | Request::Ddl { .. }
            | Request::Reconfigure { .. }
    )
}

/// Serves one replication subscription: resolves the subscriber's start
/// point (WAL tail from `have`, or a snapshot bootstrap when the
/// subscriber is empty or behind a trim), then pushes every newly
/// committed WAL record, heartbeating when idle. Runs until shutdown, a
/// dead subscriber, or a primary-side WAL failure.
///
/// The loop reads the WAL through its own read handle
/// ([`SharedDatabase::wal_tail`]) — writers and the checkpointer are
/// never blocked by a subscriber, however slow. Because the primary
/// appends a record *before* publishing its epoch, everything a reader
/// could observe is always shippable; a torn in-flight append reads as
/// end-of-log and is picked up on the next poll.
fn serve_subscription(
    stream: &mut TcpStream,
    shared: &SharedDatabase,
    config: &ServerConfig,
    role: Role,
    have: Option<u64>,
    shutdown: &Shutdown,
) {
    if role == Role::Replica {
        let resp = Response::Error(WireError {
            kind: "read_only".into(),
            message: "replicas do not serve replication streams; subscribe to the primary".into(),
            offset: None,
        });
        respond(stream, &resp);
        return;
    }
    if !shared.is_durable() {
        let resp = Response::Error(WireError {
            kind: "replication".into(),
            message: "this primary has no WAL to ship (start it with APLUS_DATA_DIR)".into(),
            offset: None,
        });
        respond(stream, &resp);
        return;
    }
    // `have = None` (an empty replica) bootstraps immediately; a resuming
    // replica starts from its own newest epoch and gets the WAL tail —
    // unless the tail was trimmed, which the poll below detects.
    let mut have = match have {
        Some(h) => h,
        None => match send_bootstrap(stream, shared) {
            Some(epoch) => epoch,
            None => return,
        },
    };
    // One lag series per subscription over the server's lifetime; the
    // gauge tracks how far this subscriber trails the published epoch and
    // reads 0 whenever it is caught up.
    static NEXT_PEER: AtomicU64 = AtomicU64::new(0);
    let lag = shared.metrics().gauge(&metric::subscriber_lag(
        NEXT_PEER.fetch_add(1, Ordering::Relaxed),
    ));
    let mut last_beat = std::time::Instant::now();
    loop {
        if shutdown.is_triggered() {
            return;
        }
        lag.set(i64::try_from(shared.epoch().saturating_sub(have)).unwrap_or(i64::MAX));
        match shared.wal_tail(have) {
            Ok(aplus_query::WalTail::Records(records)) => {
                if records.is_empty() {
                    // Idle (or a torn in-flight append): heartbeat so the
                    // subscriber can tell us from a dead peer, then park.
                    if last_beat.elapsed() >= config.repl_heartbeat {
                        let beat = Response::ReplHeartbeat {
                            epoch: shared.epoch(),
                        };
                        if !respond(stream, &beat) {
                            return;
                        }
                        last_beat = std::time::Instant::now();
                    }
                    if shutdown.wait_timeout(config.poll_interval) {
                        return;
                    }
                    continue;
                }
                for record in records {
                    let frame = Response::WalBatch {
                        epoch: record.epoch,
                        payload: record.payload,
                    };
                    if !respond(stream, &frame) {
                        return;
                    }
                    have = record.epoch;
                    last_beat = std::time::Instant::now();
                }
            }
            Ok(aplus_query::WalTail::Trimmed { .. }) => {
                // The subscriber's resume point is gone: restart it from a
                // fresh snapshot of the current epoch.
                match send_bootstrap(stream, shared) {
                    Some(epoch) => have = epoch,
                    None => return,
                }
                last_beat = std::time::Instant::now();
            }
            Err(e) => {
                // A primary-side read failure: tell the subscriber (best
                // effort) and drop the stream; it will reconnect.
                let resp = Response::Error(WireError {
                    kind: "replication".into(),
                    message: format!("WAL tail read failed: {e}"),
                    offset: None,
                });
                respond(stream, &resp);
                return;
            }
        }
    }
}

/// Pushes one `bootstrap` frame (the current snapshot); returns the epoch
/// it pins, or `None` when the subscriber is gone.
fn send_bootstrap(stream: &mut TcpStream, shared: &SharedDatabase) -> Option<u64> {
    let (epoch, payload) = shared.bootstrap_payload();
    respond(stream, &Response::Bootstrap { epoch, payload }).then_some(epoch)
}

/// Serves one `collect`: the execution limit is capped at
/// [`ServerConfig::collect_row_cap`] **before** materializing, so an
/// unlimited collect on a huge result costs at most cap+1 rows of server
/// memory — crossing the cap returns `result_too_large` instead of a
/// multi-gigabyte materialization that the frame-size check would then
/// throw away.
fn run_collect(
    shared: &SharedDatabase,
    config: &ServerConfig,
    query: &str,
    limit: usize,
) -> Response {
    let cap = config.collect_row_cap.max(1);
    match shared.collect(query, limit.min(cap.saturating_add(1))) {
        Ok(rows) if rows.len() > cap => Response::Error(WireError {
            kind: "result_too_large".into(),
            message: format!(
                "collect result exceeds the server's {cap}-row cap; \
                 use a stream request or a smaller limit"
            ),
            offset: None,
        }),
        Ok(rows) => Response::Rows { rows },
        Err(e) => Response::Error(WireError::from(&e)),
    }
}

/// Serves one `insert`: a single-edge write batch. The guard op failing
/// (an unknown vertex, a bad label) aborts the batch and publishes no
/// epoch; the op succeeding but the durable commit failing (a full disk,
/// an injected crash) also publishes nothing — the `durability`-kind
/// error frame tells the client the edge is NOT on disk.
fn run_insert(
    shared: &SharedDatabase,
    src: u32,
    dst: u32,
    label: &str,
    props: &[(String, WireProp)],
) -> Response {
    let values: Vec<(&str, Value<'_>)> = props
        .iter()
        .map(|(name, prop)| {
            let value = match prop {
                WireProp::Int(i) => Value::Int(*i),
                WireProp::Str(s) => Value::Str(s.as_str()),
                WireProp::Null => Value::Null,
            };
            (name.as_str(), value)
        })
        .collect();
    let mut writer = shared.writer();
    match writer.insert_edge(VertexId(src), VertexId(dst), label, &values) {
        Ok(edge) => match writer.commit() {
            Ok(epoch) => Response::Inserted {
                edge: edge.0,
                epoch,
            },
            Err(e) => Response::Error(durability_error(&e)),
        },
        Err(e) => {
            writer.abort();
            Response::Error(WireError {
                kind: "graph".into(),
                message: e.to_string(),
                offset: None,
            })
        }
    }
}

/// Serves one `delete`: the single-edge counterpart of [`run_insert`].
fn run_delete(shared: &SharedDatabase, edge: u64) -> Response {
    let mut writer = shared.writer();
    match writer.delete_edge(EdgeId(edge)) {
        Ok(()) => match writer.commit() {
            Ok(epoch) => Response::Deleted { epoch },
            Err(e) => Response::Error(durability_error(&e)),
        },
        Err(e) => {
            writer.abort();
            Response::Error(WireError {
                kind: "graph".into(),
                message: e.to_string(),
                offset: None,
            })
        }
    }
}

fn durability_error(e: &aplus_query::DurabilityError) -> WireError {
    WireError {
        kind: "durability".into(),
        message: e.to_string(),
        offset: None,
    }
}

/// `reconfigure` is the narrow request: any statement other than
/// `RECONFIGURE PRIMARY INDEXES …` is rejected before touching the writer
/// lock (generic DDL goes through the `ddl` request).
fn run_reconfigure(shared: &SharedDatabase, statement: &str) -> Response {
    if !is_reconfigure(statement) {
        let start = aplus_query::parser::statement_offset(statement);
        return Response::Error(WireError {
            kind: "protocol".into(),
            message: "reconfigure requests accept only RECONFIGURE PRIMARY INDEXES statements \
                      (use a ddl request for view creation)"
                .into(),
            offset: Some(start as u64),
        });
    }
    match shared.ddl(statement) {
        Ok(outcome) => Response::DdlOk { outcome },
        Err(e) => Response::Error(WireError::from(&e)),
    }
}

/// Writes one response frame; `false` means the connection is dead.
fn respond(stream: &mut TcpStream, response: &Response) -> bool {
    write_frame(stream, &response.to_json()).is_ok()
}

/// Encodes `response`, downgrading to a structured `error` frame when the
/// payload would exceed `max_len` — a `collect` answer travels as one
/// frame, so an enormous result must become an actionable error (use
/// `stream`, or a `limit`) instead of a dead connection.
fn bounded_response_json(response: &Response, max_len: usize) -> String {
    let json = response.to_json();
    if json.len() <= max_len {
        return json;
    }
    Response::Error(WireError {
        kind: "result_too_large".into(),
        message: format!(
            "collect result encodes to {} bytes, over the {max_len}-byte frame limit; \
             use a stream request or a smaller limit",
            json.len()
        ),
        offset: None,
    })
    .to_json()
}

/// The [`RowSink`] of one `stream` request: buffers rows and writes them
/// as `row_batch` frames (see the module docs for the flush rule). A
/// failed or timed-out write answers `Break`, cancelling the query.
struct FrameSink<'a> {
    stream: &'a mut TcpStream,
    shared: &'a SharedDatabase,
    frame_rows: usize,
    batch: Vec<RawRow>,
    /// When the oldest row of `batch` was pushed.
    oldest: Instant,
    sent: u64,
    alive: bool,
}

impl FrameSink<'_> {
    /// Sends the buffered rows, if any, as one `row_batch` frame.
    fn flush(&mut self) -> ControlFlow<()> {
        if self.batch.is_empty() {
            return ControlFlow::Continue(());
        }
        let rows = std::mem::take(&mut self.batch);
        self.sent += rows.len() as u64;
        if respond(self.stream, &Response::RowBatch { rows }) {
            ControlFlow::Continue(())
        } else {
            // Client too slow (write timeout) or gone.
            let metrics = self.shared.metrics();
            metrics.counter(metric::STREAM_DISCONNECTS).inc();
            self.alive = false;
            ControlFlow::Break(())
        }
    }
}

impl RowSink for FrameSink<'_> {
    fn push(&mut self, row: RawRow) -> ControlFlow<()> {
        if self.batch.is_empty() {
            self.oldest = Instant::now();
        }
        self.batch.push(row);
        if self.batch.len() >= self.frame_rows || self.oldest.elapsed() >= STREAM_FLUSH_AFTER {
            self.flush()
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Serves one `stream` request on the connection thread (see the module
/// docs). Returns `false` when the connection died mid-stream — a
/// cancelled client, whose query the sink has already stopped.
fn handle_stream(
    stream: &mut TcpStream,
    shared: &SharedDatabase,
    config: &ServerConfig,
    query: &str,
    limit: usize,
) -> bool {
    let mut sink = FrameSink {
        stream,
        shared,
        frame_rows: config.frame_rows.max(1),
        batch: Vec::new(),
        oldest: Instant::now(),
        sent: 0,
        alive: true,
    };
    let result = shared.stream(query, limit, &mut sink);
    if !sink.alive {
        return false;
    }
    match result {
        Ok(()) => {
            sink.flush().is_continue()
                && respond(sink.stream, &Response::StreamEnd { rows: sink.sent })
        }
        // Query errors surface before any row is produced (prepare runs
        // first), so the error frame replaces the whole stream.
        Err(e) => respond(sink.stream, &Response::Error(WireError::from(&e))),
    }
}

/// Convenience for binaries: `RECONFIGURE`-vs-`DDL` routing used by the
/// shell; kept here so server and shell agree on the split.
#[must_use]
pub fn is_reconfigure(statement: &str) -> bool {
    let start = aplus_query::parser::statement_offset(statement);
    statement[start..]
        .to_ascii_uppercase()
        .starts_with("RECONFIGURE")
}

/// Formats a [`DdlOutcome`] for human output.
#[must_use]
pub fn describe_outcome(outcome: &DdlOutcome) -> String {
    match outcome {
        DdlOutcome::Reconfigured => "primary indexes reconfigured".into(),
        DdlOutcome::Created(name) => format!("index {name} created"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_collect_becomes_a_structured_error() {
        let rows = Response::Rows {
            rows: vec![(vec![1, 2, 3], vec![4, 5]); 100],
        };
        let ok = bounded_response_json(&rows, usize::MAX);
        assert_eq!(Response::from_json(&ok).unwrap(), rows, "under the limit");
        let clipped = bounded_response_json(&rows, 64);
        match Response::from_json(&clipped).unwrap() {
            Response::Error(e) => {
                assert_eq!(e.kind, "result_too_large");
                assert!(e.message.contains("stream"), "{e}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn reconfigure_detection() {
        assert!(is_reconfigure(
            "RECONFIGURE PRIMARY INDEXES SORT BY vnbr.ID"
        ));
        assert!(is_reconfigure("  reconfigure primary indexes"));
        assert!(!is_reconfigure("CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd"));
        assert!(!is_reconfigure(""));
    }
}
