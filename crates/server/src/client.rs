//! The blocking client: the other side of the wire.
//!
//! [`Client`] speaks the length-prefixed JSON protocol over one
//! [`TcpStream`], one request at a time (the protocol is strictly
//! request/response per connection; open several clients for
//! concurrency). [`Client::stream`] returns a [`RowStream`] iterator that
//! decodes `row_batch` frames lazily; **dropping it before the stream
//! ends hangs up the connection**, which the server turns into a
//! cooperative cancellation of the producing query — the client-side half
//! of the disconnect-cancellation path.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader};
use std::net::{Shutdown as SocketShutdown, TcpStream, ToSocketAddrs};

use aplus_query::engine::DdlOutcome;
use aplus_query::RawRow;

use crate::protocol::{read_frame, write_frame, Request, Response, Role, WireError, WireProp};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or was closed.
    Io(io::Error),
    /// The peer sent something outside the protocol.
    Protocol(String),
    /// The server executed the request and reported a structured error
    /// (carrying the server-side `QueryError` kind/message/span).
    Server(WireError),
    /// The client was used after a mid-stream hangup (drop of an
    /// unfinished [`RowStream`]); reconnect to continue.
    Disconnected,
    /// [`Client::wait_for_epoch`] ran out of patience: the server had not
    /// published `wanted` when the timeout elapsed (`observed` is the
    /// newest epoch it reported). On a replica this usually means the
    /// node is lagging — retry, or read from another node.
    WaitTimeout {
        /// The epoch waited for.
        wanted: u64,
        /// The newest epoch the server reported before the timeout.
        observed: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => write!(f, "server error {e}"),
            ClientError::Disconnected => {
                write!(
                    f,
                    "connection was hung up mid-stream; reconnect to continue"
                )
            }
            ClientError::WaitTimeout { wanted, observed } => write!(
                f,
                "timed out waiting for epoch {wanted}; the server is at epoch {observed}"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to an `aplus_server`.
#[derive(Debug)]
pub struct Client {
    /// Reads go through the buffer (a small response is one `read`);
    /// writes go straight to the socket underneath it.
    stream: BufReader<TcpStream>,
    /// Set when a `RowStream` was dropped mid-stream: the wire is no
    /// longer at a request boundary, so further requests would desync.
    disconnected: bool,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream: BufReader::new(stream),
            disconnected: false,
        })
    }

    /// One request/response round trip.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        if self.disconnected {
            return Err(ClientError::Disconnected);
        }
        write_frame(self.stream.get_mut(), &request.to_json())?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let frame = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        Response::from_json(&frame).map_err(ClientError::Protocol)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Counts the matches of a `MATCH` query on the server.
    pub fn count(&mut self, query: &str) -> Result<u64, ClientError> {
        match self.call(&Request::Count {
            query: query.to_owned(),
        })? {
            Response::Count { value } => Ok(value),
            other => Err(unexpected("count", &other)),
        }
    }

    /// Collects up to `limit` rows; the row sequence is bit-identical to
    /// `Database::collect` on the server's database.
    pub fn collect(&mut self, query: &str, limit: usize) -> Result<Vec<RawRow>, ClientError> {
        match self.call(&Request::Collect {
            query: query.to_owned(),
            limit: encode_limit(limit),
        })? {
            Response::Rows { rows } => Ok(rows),
            other => Err(unexpected("rows", &other)),
        }
    }

    /// Executes any DDL statement.
    pub fn ddl(&mut self, statement: &str) -> Result<DdlOutcome, ClientError> {
        match self.call(&Request::Ddl {
            statement: statement.to_owned(),
        })? {
            Response::DdlOk { outcome } => Ok(outcome),
            other => Err(unexpected("ddl_ok", &other)),
        }
    }

    /// Executes a `RECONFIGURE PRIMARY INDEXES` statement (the dedicated
    /// request type; other DDL is rejected server-side).
    pub fn reconfigure(&mut self, statement: &str) -> Result<(), ClientError> {
        match self.call(&Request::Reconfigure {
            statement: statement.to_owned(),
        })? {
            Response::DdlOk { .. } => Ok(()),
            other => Err(unexpected("ddl_ok", &other)),
        }
    }

    /// Inserts one edge as its own write batch; returns `(edge, epoch)`,
    /// where `epoch` is the published epoch the insert committed as. On a
    /// durable server a returned epoch is on disk (per the server's fsync
    /// policy) — a `durability`-kind [`ClientError::Server`] means the
    /// edge was NOT committed.
    pub fn insert(
        &mut self,
        src: u32,
        dst: u32,
        label: &str,
        props: &[(String, WireProp)],
    ) -> Result<(u64, u64), ClientError> {
        match self.call(&Request::Insert {
            src,
            dst,
            label: label.to_owned(),
            props: props.to_vec(),
        })? {
            Response::Inserted { edge, epoch } => Ok((edge, epoch)),
            other => Err(unexpected("inserted", &other)),
        }
    }

    /// Deletes one edge as its own write batch; returns the published
    /// epoch, with the same durability contract as [`Client::insert`].
    pub fn delete(&mut self, edge: u64) -> Result<u64, ClientError> {
        match self.call(&Request::Delete { edge })? {
            Response::Deleted { epoch } => Ok(epoch),
            other => Err(unexpected("deleted", &other)),
        }
    }

    /// A point-in-time snapshot of the server's metrics registry: engine,
    /// storage, replication, and per-verb server series in one set. Render
    /// it with [`aplus_query::MetricsSnapshot::render_prometheus`] or read
    /// individual series with `counter`/`gauge`.
    pub fn metrics(&mut self) -> Result<aplus_query::MetricsSnapshot, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { snapshot } => Ok(snapshot),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Runs `query` with per-operator instrumentation; returns the match
    /// count and the [`aplus_query::QueryProfile`] the executors collected.
    pub fn profile(
        &mut self,
        query: &str,
    ) -> Result<(u64, aplus_query::QueryProfile), ClientError> {
        match self.call(&Request::Profile {
            query: query.to_owned(),
        })? {
            Response::Profile { value, profile } => Ok((value, profile)),
            other => Err(unexpected("profile", &other)),
        }
    }

    /// The server's current published epoch.
    pub fn epoch(&mut self) -> Result<u64, ClientError> {
        self.epoch_and_role().map(|(epoch, _)| epoch)
    }

    /// The server's current published epoch and its replication role.
    /// Servers from before the replication protocol report
    /// [`Role::Primary`] (they sent no role member and accepted writes).
    pub fn epoch_and_role(&mut self) -> Result<(u64, Role), ClientError> {
        match self.call(&Request::Epoch)? {
            Response::Epoch { epoch, role } => Ok((epoch, role)),
            other => Err(unexpected("epoch", &other)),
        }
    }

    /// Blocks until the server has published at least `epoch`, polling
    /// the `epoch` verb, and returns the epoch that satisfied the wait.
    /// This is the **read-your-writes** primitive: wait on a replica for
    /// the epoch a write acked on the primary, and every read after the
    /// wait observes that write (epochs only move forward).
    ///
    /// ```
    /// use std::time::Duration;
    /// use aplus_datagen::build_financial_graph;
    /// use aplus_query::Database;
    /// use aplus_server::{serve, Client, ServerConfig};
    ///
    /// let db = Database::new(build_financial_graph().graph).unwrap();
    /// let handle = serve(db.into_shared(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    /// let mut writer = Client::connect(handle.local_addr()).unwrap();
    /// let mut reader = Client::connect(handle.local_addr()).unwrap();
    ///
    /// let (_edge, epoch) = writer.insert(0, 2, "W", &[]).unwrap();
    /// // After waiting for the acked epoch, the write is visible here.
    /// let seen = reader.wait_for_epoch(epoch, Duration::from_secs(5)).unwrap();
    /// assert!(seen >= epoch);
    /// assert_eq!(reader.count("MATCH a-[r:W]->b").unwrap(), 10);
    /// handle.shutdown();
    /// ```
    ///
    /// # Errors
    /// [`ClientError::WaitTimeout`] when `timeout` elapses first; any
    /// transport error from the underlying `epoch` calls.
    pub fn wait_for_epoch(
        &mut self,
        epoch: u64,
        timeout: std::time::Duration,
    ) -> Result<u64, ClientError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut observed = self.epoch()?;
        loop {
            if observed >= epoch {
                return Ok(observed);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(ClientError::WaitTimeout {
                    wanted: epoch,
                    observed,
                });
            }
            // Poll gently: replication latency is one WAL poll interval,
            // so a few milliseconds of sleep costs little and spares the
            // server a busy-loop of epoch requests.
            std::thread::sleep((deadline - now).min(std::time::Duration::from_millis(2)));
            observed = self.epoch()?;
        }
    }

    /// Starts streaming up to `limit` rows. Drive the returned iterator
    /// to `None` to keep the connection reusable; dropping it early
    /// hangs up the connection (cancelling the server-side query) and
    /// poisons this client.
    pub fn stream(&mut self, query: &str, limit: usize) -> Result<RowStream<'_>, ClientError> {
        if self.disconnected {
            return Err(ClientError::Disconnected);
        }
        write_frame(
            self.stream.get_mut(),
            &Request::Stream {
                query: query.to_owned(),
                limit: encode_limit(limit),
            }
            .to_json(),
        )?;
        Ok(RowStream {
            client: self,
            buffered: VecDeque::new(),
            finished: false,
        })
    }

    /// Streams and materializes — a convenience that exercises the full
    /// streaming path but returns a vector like [`Client::collect`].
    pub fn stream_collect(
        &mut self,
        query: &str,
        limit: usize,
    ) -> Result<Vec<RawRow>, ClientError> {
        self.stream(query, limit)?.collect()
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    match got {
        Response::Error(e) => ClientError::Server(e.clone()),
        other => ClientError::Protocol(format!("expected a {wanted} frame, got {other:?}")),
    }
}

fn encode_limit(limit: usize) -> Option<u64> {
    if limit == usize::MAX {
        None
    } else {
        Some(limit as u64)
    }
}

/// A lazily-decoded server-side row stream. See [`Client::stream`] for
/// the drop semantics.
#[derive(Debug)]
pub struct RowStream<'a> {
    client: &'a mut Client,
    buffered: VecDeque<RawRow>,
    finished: bool,
}

impl RowStream<'_> {
    /// Whether the stream ended cleanly (`stream_end` or error frame
    /// consumed); a finished stream leaves the client reusable.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished && self.buffered.is_empty()
    }
}

impl Iterator for RowStream<'_> {
    type Item = Result<RawRow, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.buffered.pop_front() {
                return Some(Ok(row));
            }
            if self.finished {
                return None;
            }
            match self.client.read_response() {
                Ok(Response::RowBatch { rows }) => {
                    self.buffered.extend(rows);
                    // An empty batch is not produced by the server, but
                    // looping keeps the client robust to one.
                }
                Ok(Response::StreamEnd { .. }) => {
                    self.finished = true;
                    return None;
                }
                Ok(Response::Error(e)) => {
                    self.finished = true;
                    return Some(Err(ClientError::Server(e)));
                }
                Ok(other) => {
                    self.finished = true;
                    self.client.disconnected = true;
                    return Some(Err(ClientError::Protocol(format!(
                        "unexpected frame mid-stream: {other:?}"
                    ))));
                }
                Err(e) => {
                    self.finished = true;
                    self.client.disconnected = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl Drop for RowStream<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // Hanging up mid-stream: the server's next write fails, which
            // cancels the producing query. This client can no longer
            // frame-align, so it is poisoned.
            let _ = self.client.stream.get_ref().shutdown(SocketShutdown::Both);
            self.client.disconnected = true;
        }
    }
}
