//! Pipelining end-to-end: request-id correlation under shuffled response
//! ordering, per-request error isolation mid-pipeline, out-of-order
//! completion on the real server, the per-connection thread cap, strict
//! lockstep on the id-0 lane, and legacy/pipelined coexistence.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use xse_service::loadgen;
use xse_service::proto::{read_frame, write_frame};
use xse_service::{
    Client, EmbeddingRegistry, ErrorCode, PipelinedClient, RegistryConfig, Request, Response,
    Server, ServerConfig, ServerHandle,
};

fn wrap_pair() -> (String, String) {
    let s1 =
        "<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (c*)>\n<!ELEMENT c (#PCDATA)>";
    let s2 = "<!ELEMENT r (x, y)>\n<!ELEMENT x (a)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT y (w)>\n<!ELEMENT w (c2*)>\n<!ELEMENT c2 (c)>\n<!ELEMENT c (#PCDATA)>";
    (s1.to_string(), s2.to_string())
}

fn spawn_server(workers: usize) -> ServerHandle {
    Server::bind(
        ("127.0.0.1", 0),
        Arc::new(EmbeddingRegistry::new(RegistryConfig {
            capacity: 16,
            ..RegistryConfig::default()
        })),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// A similarity hook that sleeps before delegating, making every compile
/// take ≥ 150 ms of *blocked* (not compute-bound) time — so on any
/// machine, however loaded, a concurrent executor gets the core and the
/// fast requests provably finish inside the window.
fn slow_sim(s: &xse_dtd::Dtd, t: &xse_dtd::Dtd) -> xse_core::SimilarityMatrix {
    std::thread::sleep(Duration::from_millis(150));
    xse_service::registry::default_similarity(s, t)
}

fn spawn_slow_compile_server(config: ServerConfig) -> ServerHandle {
    Server::bind(
        ("127.0.0.1", 0),
        Arc::new(EmbeddingRegistry::new(RegistryConfig {
            capacity: 16,
            sim: slow_sim,
            ..RegistryConfig::default()
        })),
        config,
    )
    .expect("bind ephemeral port")
}

/// A scripted stand-in server: accepts one connection, reads `n` request
/// frames, then answers them in an arbitrary caller-chosen order with
/// caller-chosen payloads. This pins the *client-side* pipelining
/// contract without depending on real scheduling.
fn scripted_peer(
    n: usize,
    respond: impl FnOnce(Vec<(u32, Vec<u8>)>) -> Vec<(u32, Response)> + Send + 'static,
) -> std::net::SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut seen = Vec::new();
        for _ in 0..n {
            seen.push(read_frame(&mut reader).unwrap());
        }
        for (id, resp) in respond(seen) {
            write_frame(&mut writer, id, &resp.encode()).unwrap();
        }
        writer.flush().unwrap();
    });
    addr
}

/// Shuffled response ordering round-trips correctly: the scripted peer
/// answers (3, 1, 2) for submissions (1, 2, 3), and a mid-pipeline
/// `Timeout` error frame fails only its own request.
#[test]
fn shuffled_responses_match_by_id_and_timeout_isolates() {
    let addr = scripted_peer(3, |seen| {
        assert_eq!(
            seen.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "client must number requests 1, 2, 3"
        );
        vec![
            (3, Response::Stats(xse_service::RegistryStats::default())),
            (1, Response::Evicted { existed: false }),
            (
                2,
                Response::Error {
                    code: ErrorCode::Timeout,
                    message: "budget exceeded".into(),
                },
            ),
        ]
    });

    let mut client = PipelinedClient::connect(addr).unwrap();
    let (s, t) = wrap_pair();
    let reqs = [
        Request::Evict {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
        },
        Request::Stats,
        Request::Stats,
    ];
    let ids: Vec<u32> = reqs.iter().map(|r| client.submit(r).unwrap()).collect();
    assert_eq!(ids, vec![1, 2, 3]);
    assert_eq!(client.in_flight(), 3);

    // Completion order is the peer's (3, 1, 2); each response lands on
    // its own request, and the Timeout poisons only id 2.
    let (id, resp) = client.recv().unwrap();
    assert_eq!(id, 3);
    assert!(matches!(resp, Response::Stats(_)), "{resp:?}");
    let (id, resp) = client.recv().unwrap();
    assert_eq!(id, 1);
    assert!(
        matches!(resp, Response::Evicted { existed: false }),
        "{resp:?}"
    );
    let (id, resp) = client.recv().unwrap();
    assert_eq!(id, 2);
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Timeout,
                ..
            }
        ),
        "{resp:?}"
    );
    assert_eq!(client.in_flight(), 0);
}

/// An unknown response id is a protocol violation, surfaced as a typed
/// error instead of being silently dropped or misattributed.
#[test]
fn unknown_response_id_is_a_protocol_error() {
    let addr = scripted_peer(1, |_| vec![(77, Response::Evicted { existed: true })]);
    let mut client = PipelinedClient::connect(addr).unwrap();
    client.submit(&Request::Stats).unwrap();
    let err = client.recv().unwrap_err();
    assert!(
        format!("{err}").contains("77"),
        "error should name the bogus id: {err}"
    );
}

/// Against the real server: eight requests in flight on one connection,
/// every response matched to its request by id — and because the first
/// request is a compile whose similarity hook *sleeps* 150 ms, the seven
/// stats calls deterministically complete first: completion is
/// out-of-order by construction, not by scheduling luck.
#[test]
fn eight_in_flight_complete_out_of_order_on_the_real_server() {
    let server = spawn_slow_compile_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (s, t) = wrap_pair();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let compile_id = client
        .submit(&Request::Compile {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
        })
        .unwrap();
    let stats_ids: Vec<u32> = (0..7)
        .map(|_| client.submit(&Request::Stats).unwrap())
        .collect();
    assert_eq!(client.in_flight(), 8);

    let mut order = Vec::new();
    for _ in 0..8 {
        let (id, resp) = client.recv().unwrap();
        if id == compile_id {
            assert!(matches!(resp, Response::Compiled { .. }), "{resp:?}");
        } else {
            assert!(stats_ids.contains(&id), "unexpected id {id}");
            assert!(matches!(resp, Response::Stats(_)), "{resp:?}");
        }
        order.push(id);
    }
    assert_eq!(client.in_flight(), 0);
    assert_eq!(
        *order.last().unwrap(),
        compile_id,
        "the sleeping compile must finish after every stats call: {order:?}"
    );
    assert_ne!(
        order[0], compile_id,
        "completion stayed in submission order"
    );
}

/// Real-server Timeout isolation: with a 40 ms request budget, the
/// sleeping compile (150 ms) is answered with a `Timeout` error frame on
/// its own id while the stats calls sharing the pipeline all succeed,
/// and the connection remains usable afterwards.
#[test]
fn mid_pipeline_timeout_fails_only_the_slow_request() {
    let server = spawn_slow_compile_server(ServerConfig {
        workers: 1,
        request_budget: Some(Duration::from_millis(40)),
        ..ServerConfig::default()
    });
    let (s, t) = wrap_pair();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let compile_id = client
        .submit(&Request::Compile {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
        })
        .unwrap();
    let stats_ids: Vec<u32> = (0..3)
        .map(|_| client.submit(&Request::Stats).unwrap())
        .collect();

    for _ in 0..4 {
        let (id, resp) = client.recv().unwrap();
        if id == compile_id {
            assert!(
                matches!(
                    resp,
                    Response::Error {
                        code: ErrorCode::Timeout,
                        ..
                    }
                ),
                "the over-budget compile must time out: {resp:?}"
            );
        } else {
            assert!(stats_ids.contains(&id), "unexpected id {id}");
            assert!(
                matches!(resp, Response::Stats(_)),
                "a neighbor of the timed-out request failed: {resp:?}"
            );
        }
    }

    // The timeout poisoned neither the connection nor the server.
    let more = client.call_pipelined(&[Request::Stats], 1).unwrap();
    assert!(matches!(more[0], Response::Stats(_)));
}

/// A deterministic mid-pipeline application error (bad query) is answered
/// on its own id; the requests around it succeed and the connection
/// stays usable.
#[test]
fn mid_pipeline_bad_query_fails_only_its_own_request() {
    let server = spawn_server(1);
    let (s, t) = wrap_pair();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();

    let reqs = vec![
        Request::Compile {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
        },
        Request::Translate {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
            query: "](((".into(),
        },
        Request::Translate {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
            query: "b/c".into(),
        },
        Request::Stats,
    ];
    let responses = client.call_pipelined(&reqs, 4).unwrap();
    assert_eq!(responses.len(), 4);
    assert!(
        matches!(responses[0], Response::Compiled { .. }),
        "{:?}",
        responses[0]
    );
    assert!(
        matches!(
            responses[1],
            Response::Error {
                code: ErrorCode::BadQuery,
                ..
            }
        ),
        "{:?}",
        responses[1]
    );
    assert!(
        matches!(responses[2], Response::Translated { .. }),
        "{:?}",
        responses[2]
    );
    assert!(
        matches!(responses[3], Response::Stats(_)),
        "{:?}",
        responses[3]
    );

    // The connection survived the mid-pipeline error.
    let more = client.call_pipelined(&[Request::Stats], 1).unwrap();
    assert!(matches!(more[0], Response::Stats(_)));
}

/// Compatibility: a legacy id-0 client and a pipelined client share the
/// same server concurrently; each lane keeps its own semantics.
#[test]
fn legacy_and_pipelined_connections_coexist() {
    let server = spawn_server(2);
    let (s, t) = wrap_pair();

    let mut legacy = Client::connect(server.addr()).unwrap();
    let mut piped = PipelinedClient::connect(server.addr()).unwrap();

    let (sh, th, _) = legacy.compile(&s, &t).unwrap();
    assert_ne!(sh, th);

    let responses = piped
        .call_pipelined(&[Request::Stats, Request::Stats], 2)
        .unwrap();
    assert!(responses.iter().all(|r| matches!(r, Response::Stats(_))));

    // Legacy lane still strictly in-order after the pipelined traffic.
    let stats = legacy.stats().unwrap();
    assert_eq!(stats.compiles, 1);
}

/// Windowed pipelining against the real server round-trips a full
/// traffic slice in request order, whatever the completion order was.
#[test]
fn call_pipelined_preserves_request_order_across_windows() {
    let server = spawn_server(1);
    let pairs = loadgen::build_pairs(2, 11);
    let mut client = PipelinedClient::connect(server.addr()).unwrap();

    let mut reqs = Vec::new();
    for p in &pairs {
        reqs.push(Request::Compile {
            source_dtd: p.source_text.clone(),
            target_dtd: p.target_text.clone(),
        });
        if let Some(doc) = p.docs.first() {
            reqs.push(Request::Apply {
                source_dtd: p.source_text.clone(),
                target_dtd: p.target_text.clone(),
                xml: doc.clone(),
            });
        }
        reqs.push(Request::Stats);
    }
    let responses = client.call_pipelined(&reqs, 3).unwrap();
    assert_eq!(responses.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&responses) {
        assert!(
            loadgen::response_matches(req, resp),
            "request {req:?} answered by wrong-kind {resp:?}"
        );
        assert!(
            !matches!(resp, Response::Error { .. }),
            "clean traffic must not error: {resp:?}"
        );
    }
}

/// The legacy lane is strict lockstep even when the peer does not wait:
/// two id-0 frames written back to back on one raw socket — a compile
/// whose similarity hook sleeps 150 ms, then `Stats` — are answered in
/// submission order, both with id 0, and the `Stats` answer already
/// counts the compile. Served concurrently, the `Stats` would overtake
/// the sleeping compile and miss it.
#[test]
fn back_to_back_id0_frames_are_answered_in_lockstep() {
    let server = spawn_slow_compile_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (s, t) = wrap_pair();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let compile = Request::Compile {
        source_dtd: s,
        target_dtd: t,
    };
    write_frame(&mut conn, 0, &compile.encode()).unwrap();
    write_frame(&mut conn, 0, &Request::Stats.encode()).unwrap();

    let mut reader = BufReader::new(conn);
    let (id, payload) = read_frame(&mut reader).unwrap();
    assert_eq!(id, 0);
    let first = Response::decode(&payload).unwrap();
    assert!(matches!(first, Response::Compiled { .. }), "{first:?}");
    let (id, payload) = read_frame(&mut reader).unwrap();
    assert_eq!(id, 0);
    match Response::decode(&payload).unwrap() {
        Response::Stats(stats) => assert_eq!(stats.compiles, 1, "{stats:?}"),
        other => panic!("second answer must be the stats: {other:?}"),
    }
}

/// Calls of [`counting_sim`] running right now, and the most seen at once.
static SIM_ACTIVE: AtomicUsize = AtomicUsize::new(0);
static SIM_PEAK: AtomicUsize = AtomicUsize::new(0);

/// A similarity hook that sleeps 100 ms and records how many calls
/// overlapped. Only [`tagged_requests_run_concurrently_up_to_the_thread_cap`]
/// uses it, so the statics see no other test's compiles.
fn counting_sim(s: &xse_dtd::Dtd, t: &xse_dtd::Dtd) -> xse_core::SimilarityMatrix {
    let now = SIM_ACTIVE.fetch_add(1, Ordering::SeqCst) + 1;
    SIM_PEAK.fetch_max(now, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(100));
    SIM_ACTIVE.fetch_sub(1, Ordering::SeqCst);
    xse_service::registry::default_similarity(s, t)
}

/// Eight tagged compiles of distinct pairs on one connection run
/// concurrently (out-of-order execution, not just out-of-order replies),
/// but never on more than four threads: the per-connection cap, the
/// pool worker included.
#[test]
fn tagged_requests_run_concurrently_up_to_the_thread_cap() {
    let server = Server::bind(
        ("127.0.0.1", 0),
        Arc::new(EmbeddingRegistry::new(RegistryConfig {
            capacity: 16,
            sim: counting_sim,
            ..RegistryConfig::default()
        })),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    for i in 0..8 {
        let dtd = format!("<!ELEMENT r{i} (a)>\n<!ELEMENT a (#PCDATA)>");
        client
            .submit(&Request::Compile {
                source_dtd: dtd.clone(),
                target_dtd: dtd,
            })
            .unwrap();
    }
    for _ in 0..8 {
        let (_, resp) = client.recv().unwrap();
        assert!(matches!(resp, Response::Compiled { .. }), "{resp:?}");
    }
    let peak = SIM_PEAK.load(Ordering::SeqCst);
    assert!(
        (2..=4).contains(&peak),
        "peak of {peak} concurrent compiles on one connection"
    );
}

/// An id-0 call must not overlap tagged requests on one connection: the
/// client refuses it with a protocol error, and the tagged request it
/// would have raced is still answered afterwards.
#[test]
fn call_is_refused_while_tagged_requests_are_in_flight() {
    let server = spawn_server(1);
    let mut client = Client::connect(server.addr()).unwrap();
    let id = client.submit(&Request::Stats).unwrap();
    let err = client.call(&Request::Stats).unwrap_err();
    assert!(
        matches!(err, xse_service::ServiceError::Protocol(_)),
        "{err:?}"
    );
    let (got, resp) = client.recv().unwrap();
    assert_eq!(got, id);
    assert!(matches!(resp, Response::Stats(_)), "{resp:?}");
    assert!(matches!(
        client.call(&Request::Stats),
        Ok(Response::Stats(_))
    ));
}
