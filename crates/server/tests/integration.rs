//! End-to-end tests of the network front-end: every request type over a
//! real TCP connection, multi-client stress against concurrent writers,
//! the writer-starvation regression (slow streaming clients must not pin
//! the read lock), graceful shutdown, and shell/`Database::collect`
//! parity on the quickstart workload.

use std::io::Write as _;
use std::time::{Duration, Instant};

use aplus_common::VertexId;
use aplus_datagen::{build_financial_graph, generate, GeneratorConfig};
use aplus_graph::Value;
use aplus_query::{Database, MorselPool, SharedDatabase};
use aplus_server::{protocol, serve, shell, Client, ClientError, ServerConfig};

const WIRES: &str = "MATCH a-[r:W]->b";
const DEPOSITS: &str = "MATCH a-[r:DD]->b";
const TWO_HOP: &str = "MATCH a1-[r1]->a2-[r2]->a3";

fn financial_shared(threads: usize) -> SharedDatabase {
    let db = Database::new(build_financial_graph().graph).unwrap();
    SharedDatabase::with_pool(db, MorselPool::new(threads))
}

#[test]
fn every_request_type_round_trips() {
    let shared = financial_shared(2);
    let direct = shared.clone();
    let handle = serve(shared, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    client.ping().unwrap();
    assert_eq!(client.count(WIRES).unwrap(), 9);
    assert_eq!(
        client.collect(WIRES, usize::MAX).unwrap(),
        direct.collect(WIRES, usize::MAX).unwrap(),
        "collect over the wire is bit-identical to the direct API"
    );
    assert_eq!(
        client.collect(TWO_HOP, 7).unwrap(),
        direct.collect(TWO_HOP, 7).unwrap(),
        "limits apply over the wire"
    );
    assert_eq!(
        client.stream_collect(TWO_HOP, usize::MAX).unwrap(),
        direct.collect(TWO_HOP, usize::MAX).unwrap(),
        "streamed rows arrive in collect order"
    );
    // `limit == 0` reaches the one driver's guard through both row verbs:
    // a well-formed, empty answer.
    assert_eq!(client.collect(TWO_HOP, 0).unwrap(), vec![]);
    assert_eq!(client.stream_collect(TWO_HOP, 0).unwrap(), vec![]);

    // DDL + the dedicated reconfigure request.
    let outcome = client
        .ddl(
            "CREATE 1-HOP VIEW NetUsd MATCH vs-[eadj]->vd WHERE eadj.currency = USD \
             INDEX AS FW PARTITION BY eadj.label SORT BY vnbr.ID",
        )
        .unwrap();
    assert_eq!(
        outcome,
        aplus_query::engine::DdlOutcome::Created("NetUsd".into())
    );
    client
        .reconfigure(
            "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.ID",
        )
        .unwrap();
    assert_eq!(
        client.count(WIRES).unwrap(),
        9,
        "tuning never changes results"
    );

    // reconfigure refuses non-RECONFIGURE statements before the writer lock.
    let err = client
        .reconfigure("CREATE 1-HOP VIEW X MATCH vs-[eadj]->vd INDEX AS FW")
        .unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.kind, "protocol", "{e}"),
        other => panic!("expected a server error, got {other:?}"),
    }

    // Error frames carry the QueryError span: DDL sent as a query reports
    // the statement offset past the leading whitespace.
    let err = client
        .count("  \n RECONFIGURE PRIMARY INDEXES SORT BY vnbr.ID")
        .unwrap_err();
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.kind, "syntax", "{e}");
            assert_eq!(e.offset, Some(4), "span points at the keyword: {e}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    // And ordinary syntax errors keep their lexer offset.
    let err = client.count("MATCH a-[r]->b WHERE a.x @ 1").unwrap_err();
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.kind, "syntax");
            assert_eq!(e.offset, Some(25), "offset of the stray '@': {e}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }

    // The connection survives all those errors.
    client.ping().unwrap();
    handle.shutdown();
}

#[test]
fn malformed_frames_get_structured_errors_and_keep_the_connection() {
    let handle = serve(financial_shared(1), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut raw = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    protocol::write_frame(&mut raw, "this is not json").unwrap();
    let reply = protocol::read_frame(&mut raw).unwrap().unwrap();
    match protocol::Response::from_json(&reply).unwrap() {
        protocol::Response::Error(e) => assert_eq!(e.kind, "protocol", "{e}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // Framing stayed aligned: a well-formed request still works.
    protocol::write_frame(&mut raw, &protocol::Request::Ping.to_json()).unwrap();
    let reply = protocol::read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(
        protocol::Response::from_json(&reply).unwrap(),
        protocol::Response::Pong
    );
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_refuses() {
    let handle = serve(financial_shared(2), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    handle.shutdown(); // joins every server thread
                       // The old connection is closed…
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, ClientError::Io(_)),
        "post-shutdown request fails with a transport error, got {err:?}"
    );
    // …and new connections are refused (the listener is gone).
    match std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(s) => {
            // Platform-dependent: a connect can still succeed briefly in
            // TIME_WAIT handoff; it must at least yield EOF, not service.
            let mut s = s;
            s.write_all(&4u32.to_be_bytes()).unwrap_or(());
            let mut buf = [0u8; 1];
            use std::io::Read as _;
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            assert_eq!(
                s.read(&mut buf).unwrap_or(0),
                0,
                "no service after shutdown"
            );
        }
    }
}

/// Satellite regression: a stream pins a snapshot, not a lock — a client
/// that never reads the response does **not** block writers.
#[test]
fn undrained_stream_does_not_block_writers() {
    let shared = financial_shared(2);
    let writer_handle = shared.clone();
    let handle = serve(shared, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let mut rows = client.stream("MATCH a-[r]->b", usize::MAX).unwrap();
    // One row proves the producing query started (and the lock was held).
    rows.next().unwrap().unwrap();
    // The client now stalls without draining — the writer must not wait
    // on it.
    let t = Instant::now();
    writer_handle
        .writer()
        .insert_edge(VertexId(0), VertexId(2), "W", &[("amt", Value::Int(1))])
        .unwrap();
    let waited = t.elapsed();
    assert!(
        waited < Duration::from_secs(5),
        "writer waited {waited:?} behind an undrained stream"
    );
    drop(rows); // hang up mid-stream
    let mut fresh = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(fresh.count(WIRES).unwrap(), 10, "the insert landed");
    handle.shutdown();
}

/// Satellite regression, the hard half: a stream much larger than every
/// buffer with a client that stops reading. The write timeout declares
/// the client too slow, the disconnect cancels the producing query, the
/// read lock frees, and the writer proceeds — bounded, never indefinite.
#[test]
fn slow_stream_client_is_cancelled_and_writers_proceed() {
    let graph = generate(&GeneratorConfig::social(500, 20_000, 2, 2));
    let db = Database::new(graph).unwrap();
    let shared = SharedDatabase::with_pool(db, MorselPool::new(2));
    let writer_handle = shared.clone();
    let config = ServerConfig {
        frame_rows: 64,
        write_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let handle = serve(shared, "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    // ~800k two-hop rows: no socket buffer swallows that.
    let mut rows = client.stream(TWO_HOP, usize::MAX).unwrap();
    rows.next().unwrap().unwrap(); // the query is live and holds the lock
    let stalled = Instant::now();
    // The stream runs on its connection's thread: no producer thread.
    let threads = thread_names();
    assert!(threads.iter().any(|t| t == "aplus-conn"), "{threads:?}");
    assert!(!threads.iter().any(|t| t == "aplus-stream"), "{threads:?}");
    writer_handle
        .writer()
        .insert_edge(VertexId(0), VertexId(1), "E0", &[])
        .unwrap();
    let waited = stalled.elapsed();
    assert!(
        waited < Duration::from_secs(30),
        "writer starved {waited:?} behind a stalled streaming client"
    );
    // We never read again: once the socket buffers fill, a frame write
    // blocks, times out, and the sink's `Break` cancels the query — well
    // before the ~800k rows could have been produced and sent.
    wait_until(
        "the stalled stream is cancelled",
        Duration::from_secs(20),
        || stream_disconnects(&writer_handle) == 1,
    );
    wait_until("its connection closes", Duration::from_secs(5), || {
        connections(&writer_handle) == 0
    });
    drop(rows);
    handle.shutdown();
}

/// Dropping a `RowStream` early hangs up, which fails the server's next
/// frame write and cancels the query the same way.
#[test]
fn early_stream_drop_cancels_a_large_stream() {
    let graph = generate(&GeneratorConfig::social(500, 20_000, 2, 2));
    let shared = SharedDatabase::with_pool(Database::new(graph).unwrap(), MorselPool::new(2));
    let metrics = shared.clone();
    let handle = serve(shared, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    {
        let mut rows = client.stream(TWO_HOP, usize::MAX).unwrap();
        rows.next().unwrap().unwrap();
    }
    wait_until(
        "the abandoned stream is cancelled",
        Duration::from_secs(20),
        || stream_disconnects(&metrics) == 1 && connections(&metrics) == 0,
    );
    handle.shutdown();
}

/// A query error surfaces before any row: the whole stream is one `error`
/// frame (no `row_batch`, no `stream_end`) and the connection lives on.
#[test]
fn a_failing_stream_is_exactly_one_error_frame() {
    let handle = serve(financial_shared(1), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut raw = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let request = protocol::Request::Stream {
        query: "MATCH a-[r]->b WHERE a.x @ 1".into(),
        limit: None,
    };
    protocol::write_frame(&mut raw, &request.to_json()).unwrap();
    let reply = protocol::read_frame(&mut raw).unwrap().unwrap();
    match protocol::Response::from_json(&reply).unwrap() {
        protocol::Response::Error(e) => assert_eq!(e.kind, "syntax", "{e}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The next frame answers the next request — nothing trailed the error.
    protocol::write_frame(&mut raw, &protocol::Request::Ping.to_json()).unwrap();
    let reply = protocol::read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(
        protocol::Response::from_json(&reply).unwrap(),
        protocol::Response::Pong
    );
    handle.shutdown();
}

/// The accept loop blocks in `accept` instead of polling: a fresh
/// connection is served at once however long `poll_interval` is (it used
/// to wait out what was left of the interval), and shutdown wakes the
/// loop instead of waiting for its next tick.
#[test]
fn accept_and_shutdown_do_not_wait_for_the_poll_interval() {
    let config = ServerConfig {
        poll_interval: Duration::from_secs(3),
        ..ServerConfig::default()
    };
    let shared = financial_shared(1);
    let handle = serve(shared.clone(), "127.0.0.1:0", config).unwrap();
    for _ in 0..5 {
        let t = Instant::now();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.ping().unwrap();
        let took = t.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "connect + first request took {took:?}"
        );
        // Hang up before the next round, so no idle connection is left to
        // bound the shutdown below by `poll_interval`.
        drop(client);
    }
    wait_until(
        "the probes' connections close",
        Duration::from_secs(5),
        || connections(&shared) == 0,
    );
    let t = Instant::now();
    handle.shutdown();
    let took = t.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}

fn stream_disconnects(shared: &SharedDatabase) -> u64 {
    let snapshot = shared.metrics().snapshot();
    snapshot
        .counter(aplus_server::server::metric::STREAM_DISCONNECTS)
        .unwrap_or(0)
}

fn connections(shared: &SharedDatabase) -> i64 {
    let snapshot = shared.metrics().snapshot();
    snapshot
        .gauge(aplus_server::server::metric::CONNECTIONS)
        .unwrap_or(0)
}

fn wait_until(what: &str, deadline: Duration, mut ready: impl FnMut() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(start.elapsed() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The names of this process's threads (the server runs in-process).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("thread names are read from /proc (Linux)")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_owned())
        .collect()
}

/// Satellite: N concurrent clients issuing mixed count/collect/stream
/// requests against concurrent writers, at server pool sizes {1, 2, 4}.
/// Queries over labels the writer never touches must be bit-identical to
/// the direct `SharedDatabase` API; the written label obeys snapshot
/// bounds and per-client monotonicity.
#[test]
fn multi_client_stress_with_concurrent_writers() {
    const CLIENTS: usize = 4;
    const ITERS: usize = 6;
    const INSERTS: u64 = 24;
    const BASE_WIRES: u64 = 9;

    for threads in [1usize, 2, 4] {
        let shared = financial_shared(threads);
        let direct = shared.clone();
        // Exact comparisons stick to the DD label, which the writer never
        // touches: its adjacency lists *and* statistics are invariant
        // under W inserts, so plans — and therefore row orders — are too.
        let dd_two_hop = "MATCH a1-[r1:DD]->a2-[r2:DD]->a3";
        let expect_dd_count = direct.count(DEPOSITS).unwrap();
        let expect_dd_rows = direct.collect(DEPOSITS, usize::MAX).unwrap();
        let expect_dd_two_hop = direct.collect(dd_two_hop, usize::MAX).unwrap();
        let handle = serve(shared, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.local_addr();

        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for c in 0..CLIENTS {
                let expect_dd_rows = &expect_dd_rows;
                let expect_dd_two_hop = &expect_dd_two_hop;
                workers.push(scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut last_wires = 0u64;
                    for i in 0..ITERS {
                        // Static-label queries: exact, bit-identical.
                        assert_eq!(client.count(DEPOSITS).unwrap(), expect_dd_count);
                        assert_eq!(
                            &client.collect(DEPOSITS, usize::MAX).unwrap(),
                            expect_dd_rows,
                            "client {c} iter {i} ({threads} threads)"
                        );
                        assert_eq!(
                            &client.stream_collect(dd_two_hop, usize::MAX).unwrap(),
                            expect_dd_two_hop,
                            "client {c} iter {i} streamed ({threads} threads)"
                        );
                        // The written label: consistent snapshots only.
                        let wires = client.count(WIRES).unwrap();
                        assert!(
                            (BASE_WIRES..=BASE_WIRES + INSERTS).contains(&wires),
                            "client {c}: wires {wires} out of bounds"
                        );
                        assert!(wires >= last_wires, "client {c}: snapshots monotone");
                        last_wires = wires;
                        for (vs, es) in client.collect(WIRES, usize::MAX).unwrap() {
                            assert_eq!(vs.len(), 2, "torn row");
                            assert_eq!(es.len(), 1, "torn row");
                            assert!(vs.iter().all(|&v| v != u32::MAX) && es[0] != u64::MAX);
                        }
                    }
                }));
            }
            // The writer interleaves inserts + flushes through the direct
            // service handle while clients hammer the wire.
            for i in 0..INSERTS {
                direct
                    .writer()
                    .insert_edge(
                        VertexId(0),
                        VertexId(2),
                        "W",
                        &[("amt", Value::Int(i64::try_from(i).unwrap()))],
                    )
                    .unwrap();
                if i % 8 == 7 {
                    direct.writer().flush();
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            for w in workers {
                w.join().unwrap();
            }
        });
        // Quiescent end state: the wire agrees with the direct API exactly.
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.count(WIRES).unwrap(), BASE_WIRES + INSERTS);
        assert_eq!(
            client.collect(WIRES, usize::MAX).unwrap(),
            direct.collect(WIRES, usize::MAX).unwrap()
        );
        handle.shutdown();
    }
}

/// Acceptance: the shell, connected over TCP, prints row-for-row exactly
/// what `Database::collect` returns for every query of
/// `examples/quickstart.rs`, DDL reconfigurations included.
#[test]
fn shell_matches_database_collect_on_the_quickstart_workload() {
    // The quickstart script: Examples 1–4 + 6, with their DDL statements
    // applied mid-session exactly like examples/quickstart.rs does.
    let q1 = "MATCH c1-[r1]->a1-[r2]->a2 WHERE c1.name = 'Alice'";
    let q2 = "MATCH c1-[r1:O]->a1-[r2:W]->a2 WHERE c1.name = 'Alice'";
    let q3 = "MATCH a1-[r1:W]->a2-[r2:W]->a3, a3-[r3:W]->a1 WHERE a1.ID = 0";
    let ddl4 = "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.ID";
    let q4 = "MATCH c1-[r1:O]->a1-[r2:W]->a2 WHERE c1.name = 'Alice', r2.currency = USD";
    let ddl6 = "CREATE 1-HOP VIEW LargeUSDTrnx MATCH vs-[eadj]->vd \
                WHERE eadj.currency = USD, eadj.amt > 60 \
                INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.ID";
    let q6 = "MATCH a-[r]->b WHERE r.currency = USD, r.amt > 70";

    // Direct reference: the same statements through Database itself.
    fn expect_query(expected: &mut String, db: &Database, q: &str) {
        let rows = db.collect(q, usize::MAX).unwrap();
        expected.push_str(&format!("{}{q}\n", shell::PROMPT));
        for row in &rows {
            expected.push_str(&shell::format_row(row));
            expected.push('\n');
        }
        expected.push_str(&format!("{} row(s)\n", rows.len()));
    }
    let mut reference = Database::new(build_financial_graph().graph).unwrap();
    let mut expected = String::new();
    expect_query(&mut expected, &reference, q1);
    expect_query(&mut expected, &reference, q2);
    expect_query(&mut expected, &reference, q3);
    reference.ddl(ddl4).unwrap();
    expected.push_str(&format!(
        "{}{ddl4}\nprimary indexes reconfigured\n",
        shell::PROMPT
    ));
    expect_query(&mut expected, &reference, q4);
    reference.ddl(ddl6).unwrap();
    expected.push_str(&format!(
        "{}{ddl6}\nindex LargeUSDTrnx created\n",
        shell::PROMPT
    ));
    expect_query(&mut expected, &reference, q6);
    expected.push_str(&format!("{}:quit\nbye\n", shell::PROMPT));

    // The same session through aplus-shell over TCP. (DDL statements are
    // single lines in the shell.)
    let script = [q1, q2, q3, ddl4, q4, ddl6, q6, ":quit"]
        .map(|l| l.replace('\n', " "))
        .join("\n");
    let handle = serve(financial_shared(2), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let mut output = Vec::new();
    shell::run(&mut client, script.as_bytes(), &mut output).unwrap();
    let output = String::from_utf8(output).unwrap();
    // The DDL statements contain internal runs of spaces when embedded in
    // this source file; normalize both sides the same way.
    let normalize = |s: &str| {
        s.lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        normalize(&output),
        normalize(&expected),
        "shell transcript diverged from Database::collect\n--- shell ---\n{output}"
    );
    handle.shutdown();
}

/// Variable-length path queries over the wire: counts, collects and
/// streams match the direct API bit-for-bit, a hop-count request past the
/// cap comes back as a structured `hop_cap_exceeded` error citing the
/// offset of the `*` spec, and a predicate over a var-length edge
/// variable is `var_length_predicate`. A single-hop self-loop is
/// `self_loop` (a var-length one counts), and 65 query edges or conjuncts
/// are `too_many_query_edges` / `too_many_predicates` (64 count) — all
/// without dropping the connection.
#[test]
fn var_length_round_trips_and_reports_structured_errors() {
    let shared = financial_shared(2);
    let direct = shared.clone();
    let handle = serve(shared, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let rings = "MATCH a-[:W*1..3]->b";
    assert_eq!(client.count(rings).unwrap(), direct.count(rings).unwrap());
    assert_eq!(
        client.collect(rings, usize::MAX).unwrap(),
        direct.collect(rings, usize::MAX).unwrap(),
        "var-length collect over the wire is bit-identical to the direct API"
    );
    assert_eq!(
        client.stream_collect(rings, usize::MAX).unwrap(),
        direct.collect(rings, usize::MAX).unwrap(),
        "var-length streamed rows arrive in collect order"
    );

    // `*1..100` exceeds the default hop cap of 64: structured error kind,
    // offset citing the `*` that opened the spec (column 11).
    let err = client.count("MATCH a-[:W*1..100]->b").unwrap_err();
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.kind, "hop_cap_exceeded", "{e}");
            assert_eq!(e.offset, Some(11), "span points at the spec: {e}");
            assert!(e.message.contains("64"), "message names the cap: {e}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    // A minimum past the cap can never be satisfied either.
    let err = client.count("MATCH a-[:W*70..80]->b").unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.kind, "hop_cap_exceeded", "{e}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    // Var-length edge variables bind no single edge, so predicates over
    // them are rejected at bind time.
    let err = client
        .count("MATCH a-[r:W*1..2]->b WHERE r.amt > 0")
        .unwrap_err();
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.kind, "var_length_predicate", "{e}");
            assert_eq!(e.offset, None, "{e}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }

    let err = client.count("MATCH a-[r:W]->a").unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.kind, "self_loop", "{e}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    let ring = "MATCH a-[:W*1..2]->a";
    assert_eq!(client.count(ring).unwrap(), direct.count(ring).unwrap());
    // The optimizer tracks query edges and conjuncts as u64 bits.
    let parallel = |n: usize| {
        let edges: Vec<String> = (0..n).map(|i| format!("a-[r{i}]->b")).collect();
        format!("MATCH {}", edges.join(", "))
    };
    let conjuncts = |n: usize| {
        format!(
            "MATCH a-[r:W]->b WHERE {}",
            vec!["a.ID >= 0"; n].join(" AND ")
        )
    };
    for (q, kind) in [
        (parallel(65), "too_many_query_edges"),
        (conjuncts(65), "too_many_predicates"),
    ] {
        match client.count(&q).unwrap_err() {
            ClientError::Server(e) => assert_eq!(e.kind, kind, "{e}"),
            other => panic!("expected a server error, got {other:?}"),
        }
    }
    assert_eq!(client.count(&parallel(64)).unwrap(), 0);
    assert_eq!(client.count(&conjuncts(64)).unwrap(), 9);

    // The connection survives all those errors.
    client.ping().unwrap();
    assert_eq!(client.count(rings).unwrap(), direct.count(rings).unwrap());
    handle.shutdown();
}

/// A collect whose result crosses the server's row cap gets a structured
/// `result_too_large` error (pointing at stream) instead of an unbounded
/// materialization; capped and limited collects still work.
#[test]
fn collect_row_cap_bounds_materialization() {
    let config = ServerConfig {
        collect_row_cap: 5,
        ..ServerConfig::default()
    };
    let handle = serve(financial_shared(1), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let err = client.collect(WIRES, usize::MAX).unwrap_err(); // 9 rows > cap 5
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.kind, "result_too_large", "{e}");
            assert!(e.message.contains("stream"), "{e}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    // Within the cap — explicitly limited or naturally small — still fine.
    assert_eq!(client.collect(WIRES, 5).unwrap().len(), 5);
    assert_eq!(client.collect(DEPOSITS, 3).unwrap().len(), 3);
    // Streaming is the unbounded path and is unaffected by the cap.
    assert_eq!(client.stream_collect(WIRES, usize::MAX).unwrap().len(), 9);
    handle.shutdown();
}

/// A shell session whose connection dies mid-session reports the failure
/// and returns an error (so the binary exits nonzero), instead of
/// pretending the script completed.
#[test]
fn shell_surfaces_transport_failures_as_errors() {
    let handle = serve(financial_shared(1), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.ping().unwrap();
    handle.shutdown(); // the server goes away mid-session
    let script = format!("{WIRES}\n");
    let mut output = Vec::new();
    let res = shell::run(&mut client, script.as_bytes(), &mut output);
    assert!(res.is_err(), "dead connection must fail the session");
    let output = String::from_utf8(output).unwrap();
    assert!(
        output.contains("error:"),
        "the failure is reported: {output}"
    );
}

/// Streaming to a client that hangs up mid-iteration cancels the query
/// and poisons only that client; the server keeps serving others.
#[test]
fn early_disconnect_cancels_and_server_survives() {
    let handle = serve(financial_shared(2), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut victim = Client::connect(handle.local_addr()).unwrap();
    {
        let mut rows = victim.stream(TWO_HOP, usize::MAX).unwrap();
        rows.next().unwrap().unwrap();
        // Drop mid-stream: hangs up the connection.
    }
    let err = victim.count(WIRES).unwrap_err();
    assert!(
        matches!(err, ClientError::Disconnected),
        "a hung-up client is poisoned, got {err:?}"
    );
    let mut other = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(other.count(WIRES).unwrap(), 9, "the server kept serving");
    handle.shutdown();
}
