//! Chaos soak: drive real traffic through the [`FaultProxy`] and assert
//! the invariants that matter — the server never wedges, corrupted frames
//! are never misread as successes, the fault schedule is deterministic,
//! and the retrying client converges through injected failures.

use std::sync::Arc;
use std::time::Duration;

use xse_service::fault::{Direction, FaultAction, FaultPlan, FaultProxy};
use xse_service::loadgen::{self, Endpoint, LoadConfig};
use xse_service::{
    Client, ClientConfig, EmbeddingRegistry, PipelinedClient, RegistryConfig, Request, Response,
    RetryPolicy, RetryingClient, Server, ServerConfig, ServerHandle,
};
use xse_workloads::traffic::TrafficMix;

fn wrap_pair() -> (String, String) {
    let s1 =
        "<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (c*)>\n<!ELEMENT c (#PCDATA)>";
    let s2 = "<!ELEMENT r (x, y)>\n<!ELEMENT x (a)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT y (w)>\n<!ELEMENT w (c2*)>\n<!ELEMENT c2 (c)>\n<!ELEMENT c (#PCDATA)>";
    (s1.to_string(), s2.to_string())
}

fn spawn_server() -> ServerHandle {
    Server::bind(
        ("127.0.0.1", 0),
        Arc::new(EmbeddingRegistry::new(RegistryConfig {
            capacity: 8,
            ..RegistryConfig::default()
        })),
        ServerConfig {
            read_timeout: Some(Duration::from_millis(750)),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(1)),
        read_timeout: Some(Duration::from_secs(3)),
        write_timeout: Some(Duration::from_secs(1)),
    }
}

/// `break_first_conns` deterministically resets the first N connections'
/// first request; the retrying client re-dials through them and lands the
/// call on connection N, with exactly N retries recorded.
#[test]
fn retrying_client_converges_through_deterministic_resets() {
    let server = spawn_server();
    let plan = FaultPlan {
        break_first_conns: 2,
        ..FaultPlan::calm(5)
    };
    let proxy = FaultProxy::spawn(server.addr(), plan).unwrap();
    let mut client = RetryingClient::new(
        proxy.addr(),
        chaos_client_config(),
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            seed: 3,
        },
    )
    .unwrap();
    let (s, t) = wrap_pair();
    let resp = client
        .call(&Request::Compile {
            source_dtd: s,
            target_dtd: t,
        })
        .expect("converges once the broken connections are exhausted");
    assert!(
        matches!(resp, Response::Compiled { .. }),
        "expected a compiled response, got {resp:?}"
    );
    let stats = client.stats();
    assert_eq!(
        stats.retries, 2,
        "one retry per broken connection: {stats:?}"
    );
    assert_eq!(stats.attempts, 3, "{stats:?}");
    assert_eq!(stats.reconnects, 3, "{stats:?}");
    // The proxy logged exactly the two scheduled resets.
    let faults = proxy.faults();
    assert_eq!(faults.len(), 2, "{faults:?}");
    assert!(faults
        .iter()
        .all(|f| f.action == FaultAction::Reset && f.frame == 0));
}

/// A frame truncated mid-payload surfaces as a structured transport error
/// on the client — never a short or garbled success — and the server
/// survives to serve a fresh connection.
#[test]
fn truncated_response_is_a_clean_transport_error() {
    let server = spawn_server();
    // Truncate every response frame (server → client), pass requests.
    let plan = FaultPlan {
        truncate_per_mille: 1000,
        ..FaultPlan::calm(9)
    };
    // Only fault the response direction: leave requests intact by
    // overriding decide via direction-specific plan — simplest is to
    // truncate everything; the request path truncation also exercises the
    // server's Truncated handling, which is equally valid for this test.
    let proxy = FaultProxy::spawn(server.addr(), plan).unwrap();
    let mut client = Client::connect_with(proxy.addr(), &chaos_client_config()).unwrap();
    let (s, t) = wrap_pair();
    let err = client.compile(&s, &t).unwrap_err();
    // Either direction's truncation yields a typed transport error:
    // Protocol (response truncated), Closed, Io, or Timeout — never Ok.
    let msg = format!("{err}");
    assert!(!msg.is_empty());

    // The server is not wedged: a direct (un-proxied) request succeeds.
    let mut direct = Client::connect(server.addr()).unwrap();
    let (sh, th, _) = direct.compile(&s, &t).unwrap();
    assert_ne!(sh, th);
}

/// A corrupted request opcode is answered with a structured error frame
/// (`unknown opcode`), not misdecoded — and the retrying client treats it
/// as safe to retry; with corruption on every frame it reports the final
/// error rather than a fabricated success.
#[test]
fn corrupted_frames_never_become_successes() {
    let server = spawn_server();
    let plan = FaultPlan {
        corrupt_per_mille: 1000,
        ..FaultPlan::calm(13)
    };
    let proxy = FaultProxy::spawn(server.addr(), plan).unwrap();
    let mut client = RetryingClient::new(
        proxy.addr(),
        chaos_client_config(),
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            seed: 4,
        },
    )
    .unwrap();
    let outcome = client.call(&Request::Stats);
    match outcome {
        // The corrupted request draws an `unknown opcode` error frame,
        // whose own opcode is then corrupted on the way back — whichever
        // side surfaces first, the client must report an error, never a
        // fabricated Stats success.
        Ok(Response::Error { .. }) | Err(_) => {}
        Ok(other) => panic!("corruption produced a success: {other:?}"),
    }

    // Post-chaos, the server still works directly.
    let mut direct = Client::connect(server.addr()).unwrap();
    assert!(direct.stats().is_ok());
}

/// The full soak: a mixed traffic replay through the standard chaos plan.
/// Some ops succeed, zero responses are misinterpreted, and the server
/// serves fresh connections afterwards. Runs twice with the same seeds to
/// confirm the injected-fault schedule is identical.
#[test]
fn chaos_soak_is_deterministic_and_never_misdecodes() {
    let pairs = loadgen::build_pairs(2, 11);
    let mut schedules = Vec::new();
    for round in 0..2 {
        let server = spawn_server();
        let proxy = FaultProxy::spawn(server.addr(), FaultPlan::standard(21)).unwrap();
        let mut endpoints = [Endpoint::Retry(
            RetryingClient::new(
                proxy.addr(),
                chaos_client_config(),
                RetryPolicy {
                    max_attempts: 4,
                    base_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(20),
                    seed: 17,
                },
            )
            .unwrap(),
        )];
        let summary = loadgen::run(
            &mut endpoints,
            &pairs,
            &LoadConfig {
                mix: TrafficMix::mixed(),
                ops: 120,
                seed: 6,
                inflight: 1,
            },
        );
        assert_eq!(
            summary.misinterpretations,
            0,
            "round {round}: corrupted traffic decoded as wrong-kind successes: {}",
            summary.to_json()
        );
        assert!(
            summary.ops > 0,
            "round {round}: nothing completed under chaos: {}",
            summary.to_json()
        );
        assert!(summary.qps > 0.0, "round {round}");
        if let Some(retry) = summary.retry {
            assert!(retry.attempts >= summary.ops, "round {round}: {retry:?}");
        }

        // Post-chaos: the server still serves a fresh, direct connection.
        let (s, t) = wrap_pair();
        let mut direct = Client::connect(server.addr()).unwrap();
        direct.compile(&s, &t).unwrap();

        // The *decision schedule* is what determinism promises: the same
        // plan maps the same (direction, conn, frame) grid to the same
        // faults on every run. (The set of frames that actually flow can
        // shift with retry timing, so we compare the pure schedule, not
        // the observed log.)
        let plan = FaultPlan::standard(21);
        let schedule: Vec<FaultAction> = (0..32)
            .flat_map(|conn| {
                (0..16).flat_map(move |frame| {
                    [
                        plan.decide(Direction::ClientToServer, conn, frame),
                        plan.decide(Direction::ServerToClient, conn, frame),
                    ]
                })
            })
            .collect();
        schedules.push(schedule);

        // Every fault the proxy *did* log agrees with the pure schedule.
        for f in proxy.faults() {
            assert_eq!(
                f.action,
                plan.decide(f.direction, f.conn, f.frame),
                "logged fault diverges from the schedule: {f:?}"
            );
        }
    }
    assert_eq!(
        schedules[0], schedules[1],
        "same seed must produce the same fault schedule"
    );
}

/// Pipelined soak through the fault proxy: windows of in-flight requests
/// cross a link that delays, resets, truncates and corrupts frames. A
/// transport fault kills at most the current connection — the driver
/// re-dials — and no response is ever matched to the wrong request or
/// misdecoded as a wrong-kind success.
#[test]
fn pipelined_chaos_soak_never_misdecodes() {
    let server = spawn_server();
    let proxy = FaultProxy::spawn(server.addr(), FaultPlan::standard(29)).unwrap();
    let (s, t) = wrap_pair();
    let reqs = [
        Request::Compile {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
        },
        Request::Stats,
        Request::Translate {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
            query: "b/c".into(),
        },
        Request::Stats,
    ];

    let mut completed = 0u64;
    let mut transport_failures = 0u64;
    let mut client: Option<PipelinedClient> = None;
    for round in 0..30 {
        let conn = match client.take() {
            Some(c) => c,
            None => match PipelinedClient::connect_with(proxy.addr(), &chaos_client_config()) {
                Ok(c) => c,
                Err(_) => {
                    transport_failures += 1;
                    continue;
                }
            },
        };
        let mut conn = conn;
        // Window of 4 in flight; any transport error abandons the whole
        // connection (ids in flight are unrecoverable once framing dies).
        let mut sent = Vec::new();
        let mut broken = false;
        for req in &reqs {
            match conn.submit(req) {
                Ok(id) => sent.push((id, req)),
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        for &(sent_id, req) in &sent {
            if broken {
                break;
            }
            match conn.recv() {
                Ok((id, resp)) => {
                    assert_eq!(
                        id, sent_id,
                        "round {round}: answers must come back in submission order"
                    );
                    assert!(
                        loadgen::response_matches(req, &resp),
                        "round {round}: id {id} answered with wrong-kind {resp:?}"
                    );
                    completed += 1;
                }
                Err(_) => broken = true,
            }
        }
        if broken {
            transport_failures += 1;
        } else {
            client = Some(conn);
        }
    }
    assert!(
        completed > 0,
        "nothing completed under pipelined chaos ({transport_failures} broken connections)"
    );

    // The server survived the soak: a direct pipelined connection works.
    let mut direct = PipelinedClient::connect(server.addr()).unwrap();
    let responses = direct
        .call_pipelined(&[Request::Stats, Request::Stats], 2)
        .unwrap();
    assert!(responses.iter().all(|r| matches!(r, Response::Stats(_))));
}
