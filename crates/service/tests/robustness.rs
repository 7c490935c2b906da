//! Serving-layer robustness: deadlines, load shedding, graceful drain,
//! and client retry behaviour against a real server.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xse_service::proto::ErrorCode;
use xse_service::{
    Client, ClientConfig, EmbeddingRegistry, RegistryConfig, RetryPolicy, RetryingClient, Server,
    ServerConfig, ServerHandle, ServiceError,
};

fn wrap_pair() -> (String, String) {
    let s1 =
        "<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (c*)>\n<!ELEMENT c (#PCDATA)>";
    let s2 = "<!ELEMENT r (x, y)>\n<!ELEMENT x (a)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT y (w)>\n<!ELEMENT w (c2*)>\n<!ELEMENT c2 (c)>\n<!ELEMENT c (#PCDATA)>";
    (s1.to_string(), s2.to_string())
}

fn test_registry(capacity: usize) -> Arc<EmbeddingRegistry> {
    Arc::new(EmbeddingRegistry::new(RegistryConfig {
        capacity,
        ..RegistryConfig::default()
    }))
}

fn spawn_with(config: ServerConfig) -> ServerHandle {
    Server::bind(("127.0.0.1", 0), test_registry(8), config).expect("bind ephemeral port")
}

/// A client that connects, sends half a frame, and goes quiet must be
/// disconnected within 2× the read deadline — and its worker must return
/// to the pool, proven by a fresh request succeeding afterwards.
#[test]
fn stalled_client_is_disconnected_and_frees_its_worker() {
    let read_timeout = Duration::from_millis(250);
    let server = spawn_with(ServerConfig {
        // One worker: if the stalled connection pinned it, the follow-up
        // request could never be served.
        workers: 1,
        read_timeout: Some(read_timeout),
        ..ServerConfig::default()
    });

    let mut stalled = TcpStream::connect(server.addr()).unwrap();
    // Half a frame header, then silence: the peer is mid-frame, stalled.
    stalled.write_all(&[0x00, 0x00]).unwrap();
    stalled.flush().unwrap();

    // The server must sever the connection within 2× the read deadline.
    stalled.set_read_timeout(Some(2 * read_timeout)).unwrap();
    let t0 = Instant::now();
    let mut sink = Vec::new();
    let outcome = stalled.read_to_end(&mut sink);
    let waited = t0.elapsed();
    assert!(
        outcome.is_ok(),
        "expected EOF (server closed), got {outcome:?} after {waited:?}"
    );
    assert!(
        waited <= 2 * read_timeout,
        "disconnect took {waited:?}, over 2× the {read_timeout:?} deadline"
    );

    // The lone worker is free again: a real request completes promptly.
    let (s, t) = wrap_pair();
    let mut client = Client::connect(server.addr()).unwrap();
    let (sh, th, _) = client.compile(&s, &t).unwrap();
    assert_ne!(sh, th);
}

/// An idle connection (no bytes of a next frame) is closed silently at
/// the read deadline — no timeout error frame.
#[test]
fn idle_connection_expires_silently() {
    let server = spawn_with(ServerConfig {
        workers: 1,
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    let (s, t) = wrap_pair();
    let mut client = Client::connect(server.addr()).unwrap();
    client.compile(&s, &t).unwrap();
    // Don't send anything else; the server should close cleanly (EOF at a
    // frame boundary → ServiceError::Closed), not send an error frame.
    std::thread::sleep(Duration::from_millis(400));
    let err = client.recv().unwrap_err();
    assert!(
        matches!(err, ServiceError::Closed),
        "expected clean close, got {err:?}"
    );
}

/// With the accept queue bounded at zero, every connection is shed with a
/// structured `Overloaded` frame instead of queueing.
#[test]
fn overloaded_server_sheds_with_a_structured_error() {
    let server = spawn_with(ServerConfig {
        workers: 1,
        max_queued: 0,
        read_timeout: Some(Duration::from_millis(500)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.stats().unwrap_err();
    match err {
        ServiceError::Remote { code, .. } => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(server.shed_count() >= 1, "shed counter must record it");
}

/// A retrying client records its attempts against a persistently-shedding
/// server and surfaces the final `Overloaded` frame — shedding happens
/// before the request is read, so retrying it was always safe.
#[test]
fn retrying_client_records_shed_retries() {
    let server = spawn_with(ServerConfig {
        workers: 1,
        max_queued: 0,
        read_timeout: Some(Duration::from_millis(500)),
        ..ServerConfig::default()
    });
    let mut client = RetryingClient::new(
        server.addr(),
        ClientConfig::default(),
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            seed: 11,
        },
    )
    .unwrap();
    let (s, t) = wrap_pair();
    let outcome = client.call(&xse_service::Request::Compile {
        source_dtd: s,
        target_dtd: t,
    });
    match outcome {
        Ok(xse_service::Response::Error { code, .. }) => {
            assert_eq!(code, ErrorCode::Overloaded);
        }
        other => panic!("expected the final Overloaded frame, got {other:?}"),
    }
    let stats = client.stats();
    assert_eq!(stats.attempts, 3, "{stats:?}");
    assert_eq!(stats.retries, 2, "{stats:?}");
    assert_eq!(
        stats.reconnects, 3,
        "shed connections are closed server-side, so each attempt re-dials: {stats:?}"
    );
    assert!(server.shed_count() >= 3, "{}", server.shed_count());
}

/// Graceful drain: shutdown answers queued-but-unserved connections with
/// `Overloaded`, finishes in-flight work, and joins within the deadline.
#[test]
fn shutdown_drains_within_its_deadline() {
    let mut server = spawn_with(ServerConfig {
        workers: 2,
        read_timeout: Some(Duration::from_millis(250)),
        drain_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let (s, t) = wrap_pair();
    let mut client = Client::connect(server.addr()).unwrap();
    client.compile(&s, &t).unwrap();
    // Keep the connection open (in-flight from the server's viewpoint).
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    // Bounded by: poke + read deadline on the idle conn + drain polling,
    // comfortably under read deadline + drain deadline + slack.
    assert!(
        took < Duration::from_secs(2),
        "shutdown took {took:?} — drain deadline not honoured"
    );
    // The drained server refuses further work (connection dead).
    let err = client.stats().unwrap_err();
    assert!(
        matches!(
            err,
            ServiceError::Closed | ServiceError::Io(_) | ServiceError::Timeout(_)
        ),
        "{err:?}"
    );
}

/// Connecting to a dead port through the deadline-bounded connect path
/// surfaces a typed error promptly — it never hangs.
#[test]
fn connect_failure_is_typed_and_bounded() {
    // Grab an ephemeral port and close it again: connecting afterwards is
    // refused (or, on exotic stacks, times out) — either way the bounded
    // connect must return quickly with a typed ServiceError.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let t0 = Instant::now();
    let result = Client::connect_with(
        dead,
        &ClientConfig {
            connect_timeout: Some(Duration::from_millis(300)),
            ..ClientConfig::default()
        },
    );
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(5), "connect took {took:?}");
    match result {
        Err(ServiceError::Timeout(_) | ServiceError::Io(_)) => {}
        other => panic!("expected a typed connect failure, got {:?}", other.err()),
    }
}
