//! Replication: WAL shipping from a durable primary to read replicas.
//!
//! A **replica** is an in-memory [`SharedDatabase`] kept bit-identical to
//! its primary by an **applier thread**: the applier subscribes over the
//! ordinary wire protocol (`subscribe`), installs the initial `bootstrap`
//! snapshot, then applies every `wal_batch` frame through the same
//! deterministic replay the primary's own crash recovery uses —
//! publishing each batch as *exactly the epoch its WAL record names*. A
//! replica at epoch N therefore serves the same counts and rows as the
//! primary at epoch N, and the epoch number itself becomes a cluster-wide
//! consistency token (see [`ReplicaSet`]).
//!
//! Robustness model:
//!
//! * **Reconnect with resume.** Every (re)connection subscribes with the
//!   replica's newest published epoch; the primary ships the WAL tail it
//!   still holds, or a fresh `bootstrap` when a checkpoint already
//!   trimmed past the resume point. Applying is idempotent — batches at
//!   or below the replica's epoch are skipped — so overlap on resume is
//!   harmless.
//! * **Torn streams.** A connection can die mid-frame; the applier just
//!   reconnects. Nothing half-applied is ever published: a batch is
//!   replayed onto a private copy and published with one pointer swap,
//!   the same transactionality the primary's writers have.
//! * **Deterministic faults.** [`ReplicaConfig::injector`] reuses the
//!   storage crate's [`CrashPoint`] hooks: the applier fires
//!   [`CrashPoint::PreCommit`] before publishing each batch, and an
//!   injected crash stops the applier thread dead (its replica keeps
//!   serving its last published epoch, exactly like a killed process
//!   would). Tests then re-attach with [`attach_replica`] to exercise the
//!   resume path.

use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use aplus_query::{
    decode_ops, CrashPoint, Database, DurabilityError, FaultInjector, SharedDatabase,
};
use aplus_runtime::Shutdown;

use crate::client::{Client, ClientError};
use crate::protocol::{
    read_frame, read_frame_polled, write_frame, Request, Response, WireError, WireProp,
};

/// Tuning knobs of one replica applier.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Pause between reconnection attempts after a lost session.
    pub reconnect_backoff: Duration,
    /// How long a session waits for the next frame before declaring the
    /// primary dead and reconnecting. Primaries heartbeat every
    /// `ServerConfig::repl_heartbeat` (500 ms by default), so several
    /// seconds of silence really is a dead peer.
    pub frame_timeout: Duration,
    /// Deterministic crash injection: [`CrashPoint::PreCommit`] fires
    /// before each batch publishes, and an injected crash kills the
    /// applier thread mid-stream (see the module docs).
    pub injector: FaultInjector,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            reconnect_backoff: Duration::from_millis(100),
            frame_timeout: Duration::from_secs(5),
            injector: FaultInjector::none(),
        }
    }
}

/// Replication failure — the replica-side counterpart of [`ClientError`].
#[derive(Debug)]
pub enum ReplError {
    /// The connection to the primary failed.
    Io(io::Error),
    /// The primary sent something outside the replication protocol.
    Protocol(String),
    /// The primary answered `subscribe` with an error frame (not durable,
    /// or not a primary).
    Server(WireError),
    /// The bootstrap payload or a batch failed to install locally.
    Apply(DurabilityError),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "replication connection error: {e}"),
            Self::Protocol(m) => write!(f, "replication protocol error: {m}"),
            Self::Server(e) => write!(f, "primary refused the subscription: {e}"),
            Self::Apply(e) => write!(f, "replica apply failed: {e}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<io::Error> for ReplError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// A running replica applier thread. Dropping the handle stops it; the
/// replica [`SharedDatabase`] itself lives on (it is just an `Arc`'d
/// snapshot chain) and keeps serving its last published epoch.
#[derive(Debug)]
pub struct ReplicaHandle {
    shutdown: Arc<Shutdown>,
    thread: Option<JoinHandle<()>>,
}

impl ReplicaHandle {
    /// Whether the applier thread is still alive. `false` after an
    /// injected crash or a fatal divergence — the replica is then frozen
    /// at its last epoch until a new applier is [`attach_replica`]ed.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.thread.as_ref().is_some_and(|t| !t.is_finished())
    }

    /// Stops the applier and joins its thread.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.shutdown.trigger();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Bootstraps a fresh replica of the primary at `primary_addr`: dials,
/// subscribes empty, installs the initial snapshot **synchronously** (the
/// returned database is query-ready at the primary's bootstrap epoch),
/// then keeps it converging on a background applier thread. Serve the
/// returned [`SharedDatabase`] with
/// [`serve_with_role`](crate::serve_with_role) under
/// [`Role::Replica`](crate::Role::Replica).
///
/// # Errors
/// [`ReplError::Io`] when the primary is unreachable, [`ReplError::Server`]
/// when it refuses the subscription (e.g. it is not durable),
/// [`ReplError::Apply`]/[`ReplError::Protocol`] on a bad bootstrap.
pub fn start_replica(
    primary_addr: &str,
    config: ReplicaConfig,
) -> Result<(SharedDatabase, ReplicaHandle), ReplError> {
    let mut stream = dial(primary_addr, &config)?;
    send_subscribe(&mut stream, None)?;
    let (epoch, payload) = match read_push(&mut stream)? {
        Response::Bootstrap { epoch, payload } => (epoch, payload),
        Response::Error(e) => return Err(ReplError::Server(e)),
        other => {
            return Err(ReplError::Protocol(format!(
                "expected a bootstrap frame, got {other:?}"
            )))
        }
    };
    let db = Database::from_checkpoint_payload(&payload).map_err(ReplError::Apply)?;
    let shared = SharedDatabase::replica(db, epoch);
    let handle = spawn_applier(
        shared.clone(),
        primary_addr.to_owned(),
        config,
        Some(stream),
    );
    Ok((shared, handle))
}

/// Attaches a (new) applier to an existing replica database — the resume
/// path after the previous applier died (crash injection, a fatal error)
/// or was shut down. The applier subscribes from the replica's current
/// epoch; the primary ships the missing tail or a fresh bootstrap.
#[must_use]
pub fn attach_replica(
    shared: SharedDatabase,
    primary_addr: &str,
    config: ReplicaConfig,
) -> ReplicaHandle {
    spawn_applier(shared, primary_addr.to_owned(), config, None)
}

fn spawn_applier(
    shared: SharedDatabase,
    primary_addr: String,
    config: ReplicaConfig,
    initial: Option<TcpStream>,
) -> ReplicaHandle {
    let shutdown = Arc::new(Shutdown::new());
    let signal = Arc::clone(&shutdown);
    let thread = std::thread::Builder::new()
        .name("aplus-replica".into())
        .spawn(move || applier_loop(&shared, &primary_addr, &config, &signal, initial))
        .expect("spawning the replica applier thread");
    ReplicaHandle {
        shutdown,
        thread: Some(thread),
    }
}

/// How one replication session ended.
enum SessionEnd {
    /// Shutdown was requested: the applier exits cleanly.
    Shutdown,
    /// The session died recoverably (connection loss, a missed epoch, a
    /// torn frame): back off and reconnect with resume-from-epoch.
    Retry(ReplError),
    /// The applier must stop: an injected crash (the simulated `kill -9`
    /// of the fault hook) or a divergence no reconnect can fix.
    Fatal(ReplError),
}

fn applier_loop(
    shared: &SharedDatabase,
    primary_addr: &str,
    config: &ReplicaConfig,
    shutdown: &Shutdown,
    mut initial: Option<TcpStream>,
) {
    let mut reported = 0u32;
    while !shutdown.is_triggered() {
        let session = match initial.take() {
            Some(stream) => Ok(stream),
            None => dial(primary_addr, config).and_then(|mut stream| {
                send_subscribe(&mut stream, Some(shared.epoch()))?;
                Ok(stream)
            }),
        };
        let end = match session {
            Ok(mut stream) => run_session(&mut stream, shared, config, shutdown),
            Err(e) => SessionEnd::Retry(e),
        };
        match end {
            SessionEnd::Shutdown => return,
            SessionEnd::Fatal(e) => {
                aplus_obs::log::error(format_args!("aplus-replica: applier stopping: {e}"));
                return;
            }
            SessionEnd::Retry(e) => {
                // Log the first few: a primary restart produces a burst of
                // these and they all mean the same thing.
                reported += 1;
                if reported <= 4 {
                    aplus_obs::log::warn(format_args!(
                        "aplus-replica: session lost (reconnecting): {e}"
                    ));
                }
                if shutdown.wait_timeout(config.reconnect_backoff) {
                    return;
                }
            }
        }
    }
}

/// Drains one subscription stream, applying frames until it ends.
fn run_session(
    stream: &mut TcpStream,
    shared: &SharedDatabase,
    config: &ReplicaConfig,
    shutdown: &Shutdown,
) -> SessionEnd {
    // Short read ticks for the whole session, so waiting for a frame can
    // watch the shutdown signal (see `read_push_polled`).
    if let Err(e) = stream.set_read_timeout(Some(poll_slice(config))) {
        return SessionEnd::Retry(e.into());
    }
    loop {
        if shutdown.is_triggered() {
            return SessionEnd::Shutdown;
        }
        let frame = match read_push_polled(stream, config, shutdown) {
            Ok(Some(frame)) => frame,
            Ok(None) => return SessionEnd::Shutdown,
            Err(e) => return SessionEnd::Retry(e),
        };
        match frame {
            Response::WalBatch { epoch, payload } => {
                let ops = match decode_ops(&payload) {
                    Ok(ops) => ops,
                    // A corrupt batch cannot have come from a healthy
                    // primary WAL; resubscribing re-reads it from disk.
                    Err(e) => return SessionEnd::Retry(ReplError::Apply(e.into())),
                };
                if config.injector.fire(CrashPoint::PreCommit) {
                    // The simulated kill: stop without publishing. The
                    // batch is not lost — it is still in the primary's
                    // WAL, and the next applier resumes from our epoch.
                    return SessionEnd::Fatal(ReplError::Apply(DurabilityError::Storage(
                        aplus_query::StorageError::InjectedCrash(CrashPoint::PreCommit),
                    )));
                }
                match shared.apply_replica_batch(epoch, &ops) {
                    Ok(_) => {}
                    Err(e @ DurabilityError::Replication(_)) => {
                        // An epoch gap: we missed records (e.g. the
                        // server bootstrapped another subscriber state).
                        // Resubscribing from our epoch repairs it.
                        return SessionEnd::Retry(ReplError::Apply(e));
                    }
                    Err(e) => return SessionEnd::Fatal(ReplError::Apply(e)),
                }
            }
            Response::Bootstrap { epoch, payload } => {
                let db = match Database::from_checkpoint_payload(&payload) {
                    Ok(db) => db,
                    Err(e) => return SessionEnd::Retry(ReplError::Apply(e)),
                };
                if let Err(e) = shared.install_replica_snapshot(db, epoch) {
                    // `epoch < current` cannot happen on a faithful
                    // primary (bootstraps are of its newest snapshot);
                    // treat it as divergence.
                    return SessionEnd::Fatal(ReplError::Apply(e));
                }
            }
            Response::ReplHeartbeat { .. } => {}
            Response::Error(e) => {
                if e.kind == "read_only" {
                    // We subscribed to a replica: retrying cannot help.
                    return SessionEnd::Fatal(ReplError::Server(e));
                }
                return SessionEnd::Retry(ReplError::Server(e));
            }
            other => {
                return SessionEnd::Retry(ReplError::Protocol(format!(
                    "unexpected frame on the replication stream: {other:?}"
                )))
            }
        }
    }
}

fn dial(addr: &str, config: &ReplicaConfig) -> Result<TcpStream, ReplError> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(config.frame_timeout))?;
    Ok(stream)
}

fn send_subscribe(stream: &mut TcpStream, have: Option<u64>) -> Result<(), ReplError> {
    write_frame(stream, &Request::Subscribe { have }.to_json())?;
    Ok(())
}

/// Reads one pushed frame, blocking up to the configured frame timeout.
fn read_push(stream: &mut TcpStream) -> Result<Response, ReplError> {
    let frame = read_frame(stream)?.ok_or_else(primary_closed)?;
    Response::from_json(&frame).map_err(ReplError::Protocol)
}

/// How often a session waiting for the next frame checks for shutdown.
fn poll_slice(config: &ReplicaConfig) -> Duration {
    config.frame_timeout.min(Duration::from_millis(50))
}

/// [`read_push`], but interruptible: the session's socket reads time out
/// every [`poll_slice`], and between frames each tick honors the shutdown
/// signal. `Ok(None)` means shutdown. Heartbeats bound the gap between
/// frames, so a full `frame_timeout` of silence is a dead primary
/// (surfaced as a timeout error -> session retry).
fn read_push_polled(
    stream: &mut TcpStream,
    config: &ReplicaConfig,
    shutdown: &Shutdown,
) -> Result<Option<Response>, ReplError> {
    let mut waited = Duration::ZERO;
    let frame = read_frame_polled(stream, config.frame_timeout, || {
        waited += poll_slice(config);
        waited < config.frame_timeout && !shutdown.is_triggered()
    })?;
    match frame {
        Some(frame) => Response::from_json(&frame)
            .map(Some)
            .map_err(ReplError::Protocol),
        None if shutdown.is_triggered() => Ok(None),
        None if waited >= config.frame_timeout => Err(ReplError::Io(io::Error::new(
            io::ErrorKind::TimedOut,
            "no frame (not even a heartbeat) within the frame timeout",
        ))),
        None => Err(primary_closed()),
    }
}

fn primary_closed() -> ReplError {
    ReplError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "primary closed the stream",
    ))
}

/// The client-side router over one primary and N replicas: writes go to
/// the primary, reads fan out round-robin across the replicas with
/// **read-your-writes** — the router remembers the epoch of its last
/// acked write (the *epoch token*) and makes a replica wait for that
/// epoch ([`Client::wait_for_epoch`]) before serving the read. A replica
/// that cannot catch up within [`ReplicaSet::set_read_patience`] (or is
/// dead) is skipped for the next one; when every replica is out, the read
/// falls back to the primary, which by definition has the newest epoch.
///
/// The consistency contract is *session-level monotonicity for this
/// router's own writes*: a read issued after an acked write never
/// observes a database state older than that write. Reads may of course
/// observe newer epochs (other clients keep writing).
#[derive(Debug)]
pub struct ReplicaSet {
    primary: Client,
    replicas: Vec<Client>,
    /// Round-robin cursor over `replicas`.
    next: usize,
    /// The epoch token: newest epoch this router's writes acked at.
    token: u64,
    read_patience: Duration,
}

impl ReplicaSet {
    /// Connects to the primary and every replica.
    pub fn connect<A: std::net::ToSocketAddrs>(
        primary: A,
        replicas: impl IntoIterator<Item = A>,
    ) -> io::Result<Self> {
        let primary = Client::connect(primary)?;
        let replicas = replicas
            .into_iter()
            .map(Client::connect)
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self {
            primary,
            replicas,
            next: 0,
            token: 0,
            read_patience: Duration::from_secs(5),
        })
    }

    /// How long a replica may lag behind the epoch token before a read
    /// skips it (default 5 s — replication lag is normally one WAL poll
    /// interval, so a blown patience means a stuck node).
    pub fn set_read_patience(&mut self, patience: Duration) {
        self.read_patience = patience;
    }

    /// The epoch token: the newest epoch a write through this router
    /// acked at. Reads are guaranteed to observe at least this epoch.
    #[must_use]
    pub fn last_write_epoch(&self) -> u64 {
        self.token
    }

    /// Inserts one edge via the primary; returns `(edge, epoch)` and
    /// advances the epoch token.
    pub fn insert(
        &mut self,
        src: u32,
        dst: u32,
        label: &str,
        props: &[(String, WireProp)],
    ) -> Result<(u64, u64), ClientError> {
        let (edge, epoch) = self.primary.insert(src, dst, label, props)?;
        self.token = self.token.max(epoch);
        Ok((edge, epoch))
    }

    /// Deletes one edge via the primary; returns the epoch and advances
    /// the epoch token.
    pub fn delete(&mut self, edge: u64) -> Result<u64, ClientError> {
        let epoch = self.primary.delete(edge)?;
        self.token = self.token.max(epoch);
        Ok(epoch)
    }

    /// Executes DDL via the primary and advances the epoch token to the
    /// primary's epoch after the statement (the `ddl_ok` frame carries no
    /// epoch, so the router asks).
    pub fn ddl(&mut self, statement: &str) -> Result<aplus_query::engine::DdlOutcome, ClientError> {
        let outcome = self.primary.ddl(statement)?;
        self.token = self.token.max(self.primary.epoch()?);
        Ok(outcome)
    }

    /// Counts matches on a replica (read-your-writes; see the type docs).
    pub fn count(&mut self, query: &str) -> Result<u64, ClientError> {
        let q = query.to_owned();
        self.route_read(move |c| c.count(&q))
    }

    /// Collects rows on a replica (read-your-writes; see the type docs).
    pub fn collect(
        &mut self,
        query: &str,
        limit: usize,
    ) -> Result<Vec<aplus_query::RawRow>, ClientError> {
        let q = query.to_owned();
        self.route_read(move |c| c.collect(&q, limit))
    }

    /// Routes one read: round-robin over replicas, each first waiting for
    /// the epoch token; server-reported query errors return immediately
    /// (every node would answer the same), transport errors and lag move
    /// on to the next node, and the primary is the last resort.
    fn route_read<T>(
        &mut self,
        run: impl Fn(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let n = self.replicas.len();
        for i in 0..n {
            let idx = (self.next + i) % n;
            let replica = &mut self.replicas[idx];
            let attempt = replica
                .wait_for_epoch(self.token, self.read_patience)
                .and_then(|_| run(replica));
            match attempt {
                Ok(v) => {
                    self.next = (idx + 1) % n;
                    return Ok(v);
                }
                Err(ClientError::Server(e)) => return Err(ClientError::Server(e)),
                Err(_) => {} // lagging past patience, or dead: next node
            }
        }
        run(&mut self.primary)
    }
}
