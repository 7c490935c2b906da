//! Pipelining end-to-end: the ordered-lane contract (answers in
//! submission order, an out-of-order id is a protocol error, an id-0 error
//! frame answers the oldest request), per-request error isolation
//! mid-pipeline, arrival-order answers on the real server, one request at
//! a time per connection with parallelism across connections, and
//! lockstep and windowed clients side by side.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use xse_service::loadgen;
use xse_service::proto::{read_frame, write_frame};
use xse_service::{
    Client, EmbeddingRegistry, ErrorCode, PipelinedClient, RegistryConfig, Request, Response,
    Server, ServerConfig, ServerHandle, ServiceError,
};

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
            capacity: 16,
            ..RegistryConfig::default()
        })),
        ServerConfig::default(),
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
/// frames, answers with caller-chosen ids and payloads in a caller-chosen
/// order, then closes. This pins the *client-side* pipelining contract
/// without depending on real scheduling.
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

/// The lane is ordered: a peer that answers submissions (1, 2) with ids
/// (2, 1) breaks the contract, and the first `recv` is a protocol error
/// naming both ids rather than a misattributed answer.
#[test]
fn out_of_order_answer_is_a_protocol_error() {
    let addr = scripted_peer(2, |_| {
        vec![
            (2, Response::Stats(xse_service::RegistryStats::default())),
            (1, Response::Evicted { existed: false }),
        ]
    });
    let mut client = PipelinedClient::connect(addr).unwrap();
    client.submit(&Request::Stats).unwrap();
    client.submit(&Request::Stats).unwrap();
    match client.recv() {
        Err(ServiceError::Protocol(msg)) => {
            assert!(msg.contains('1') && msg.contains('2'), "{msg}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

/// In-order answers round-trip, and a `Timeout` error frame mid-window
/// fails only the request it answers: the scripted peer answers ids
/// (1, 2, 3) in order, with the error on id 2.
#[test]
fn in_order_answers_with_a_mid_window_timeout_fail_only_their_own_request() {
    let addr = scripted_peer(3, |seen| {
        assert_eq!(
            seen.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "client must number requests 1, 2, 3"
        );
        vec![
            (1, Response::Evicted { existed: false }),
            (
                2,
                Response::Error {
                    code: ErrorCode::Timeout,
                    message: "budget exceeded".into(),
                },
            ),
            (3, Response::Stats(xse_service::RegistryStats::default())),
        ]
    });

    let mut client = PipelinedClient::connect(addr).unwrap();
    let (s, t) = wrap_pair();
    let reqs = [
        Request::Evict {
            source_dtd: s,
            target_dtd: t,
        },
        Request::Stats,
        Request::Stats,
    ];
    let ids: Vec<u32> = reqs.iter().map(|r| client.submit(r).unwrap()).collect();
    assert_eq!(ids, vec![1, 2, 3]);
    assert_eq!(client.in_flight(), 3);

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
    let (id, resp) = client.recv().unwrap();
    assert_eq!(id, 3);
    assert!(matches!(resp, Response::Stats(_)), "{resp:?}");
    assert_eq!(client.in_flight(), 0);
}

/// An id-0 error frame is the server reporting on the oldest request it
/// has not answered (here a shed: `Overloaded`, then close), so it
/// answers that request, and the next read sees the close.
#[test]
fn id0_error_frame_answers_the_oldest_request() {
    let addr = scripted_peer(2, |_| {
        vec![(
            0,
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "connection limit reached".into(),
            },
        )]
    });
    let mut client = PipelinedClient::connect(addr).unwrap();
    client.submit(&Request::Stats).unwrap();
    client.submit(&Request::Stats).unwrap();
    let (id, resp) = client.recv().unwrap();
    assert_eq!(id, 1);
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }
        ),
        "{resp:?}"
    );
    assert_eq!(client.in_flight(), 1);
    assert_eq!(client.recv().unwrap_err(), ServiceError::Closed);
}

/// A response id other than the oldest request's is a protocol
/// violation, surfaced as a typed error naming the id instead of being
/// silently dropped or misattributed.
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

/// Against the real server: eight tagged requests in flight on one
/// connection are answered in submission order, each under its own id.
/// The first is a compile whose similarity hook *sleeps* 150 ms, so seven
/// stats calls run alongside it would overtake it; served in order, the
/// first stats answer already counts the compile.
#[test]
fn tagged_requests_on_one_connection_are_answered_in_submission_order() {
    let server = spawn_slow_compile_server(ServerConfig::default());
    let (s, t) = wrap_pair();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let mut submitted = vec![client
        .submit(&Request::Compile {
            source_dtd: s.clone(),
            target_dtd: t.clone(),
        })
        .unwrap()];
    submitted.extend((0..7).map(|_| client.submit(&Request::Stats).unwrap()));
    assert_eq!(client.in_flight(), 8);

    let mut order = Vec::new();
    for i in 0..8 {
        let (id, resp) = client.recv().unwrap();
        match resp {
            Response::Compiled { .. } if i == 0 => {}
            Response::Stats(stats) if i > 0 => {
                assert_eq!(stats.compiles, 1, "answer {i} missed the compile")
            }
            other => panic!("answer {i} (id {id}) out of order: {other:?}"),
        }
        order.push(id);
    }
    assert_eq!(client.in_flight(), 0);
    assert_eq!(
        order, submitted,
        "answers must echo ids in submission order"
    );
}

/// Real-server Timeout isolation: with a 40 ms request budget, the
/// sleeping compile (150 ms) is answered with a `Timeout` error frame on
/// its own id while the stats calls sharing the pipeline all succeed,
/// and the connection remains usable afterwards.
#[test]
fn mid_pipeline_timeout_fails_only_the_slow_request() {
    let server = spawn_slow_compile_server(ServerConfig {
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
    let server = spawn_server();
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

/// A lockstep client (`call` and the typed helpers) and a windowed
/// client share the server at once, and each sees its own answers.
#[test]
fn legacy_and_pipelined_connections_coexist() {
    let server = spawn_server();
    let (s, t) = wrap_pair();

    let mut legacy = Client::connect(server.addr()).unwrap();
    let mut piped = PipelinedClient::connect(server.addr()).unwrap();

    let (sh, th, _) = legacy.compile(&s, &t).unwrap();
    assert_ne!(sh, th);

    let responses = piped
        .call_pipelined(&[Request::Stats, Request::Stats], 2)
        .unwrap();
    assert!(responses.iter().all(|r| matches!(r, Response::Stats(_))));

    // The lockstep client still reads its own answers after the windowed
    // traffic.
    let stats = legacy.stats().unwrap();
    assert_eq!(stats.compiles, 1);
}

/// Windowed pipelining against the real server round-trips a full
/// traffic slice in request order, whatever the completion order was.
#[test]
fn call_pipelined_preserves_request_order_across_windows() {
    let server = spawn_server();
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

/// The server echoes whatever id a frame carries, 0 included, and answers
/// in arrival order even when the peer does not wait: two id-0 frames
/// written back to back on one raw socket — a compile whose similarity
/// hook sleeps 150 ms, then `Stats` — are answered in submission order,
/// both with id 0, and the `Stats` answer already counts the compile.
/// Served concurrently, the `Stats` would overtake the sleeping compile
/// and miss it.
#[test]
fn back_to_back_id0_frames_are_answered_in_lockstep() {
    let server = spawn_slow_compile_server(ServerConfig::default());
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
/// overlapped. Only [`one_request_at_a_time_per_connection_in_parallel_across_connections`]
/// uses it, so the statics see no other test's compiles.
fn counting_sim(s: &xse_dtd::Dtd, t: &xse_dtd::Dtd) -> xse_core::SimilarityMatrix {
    let now = SIM_ACTIVE.fetch_add(1, Ordering::SeqCst) + 1;
    SIM_PEAK.fetch_max(now, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(100));
    SIM_ACTIVE.fetch_sub(1, Ordering::SeqCst);
    xse_service::registry::default_similarity(s, t)
}

/// Submit a tagged compile of `per_client` distinct identity pairs on each
/// client, named from `first`, then collect every answer. Returns the
/// peak of compiles that overlapped meanwhile.
fn peak_overlapping_compiles(
    clients: &mut [PipelinedClient],
    first: usize,
    per_client: usize,
) -> usize {
    SIM_PEAK.store(0, Ordering::SeqCst);
    let mut next = first;
    for client in clients.iter_mut() {
        for _ in 0..per_client {
            let dtd = format!("<!ELEMENT r{next} (a)>\n<!ELEMENT a (#PCDATA)>");
            next += 1;
            client
                .submit(&Request::Compile {
                    source_dtd: dtd.clone(),
                    target_dtd: dtd,
                })
                .unwrap();
        }
    }
    for client in clients.iter_mut() {
        for _ in 0..per_client {
            let (_, resp) = client.recv().unwrap();
            assert!(matches!(resp, Response::Compiled { .. }), "{resp:?}");
        }
    }
    SIM_PEAK.load(Ordering::SeqCst)
}

/// A connection runs one request at a time: eight tagged compiles of
/// distinct pairs on one connection never overlap. Requests run in
/// parallel across connections: four on each of two connections overlap
/// two at a time.
#[test]
fn one_request_at_a_time_per_connection_in_parallel_across_connections() {
    let server = Server::bind(
        ("127.0.0.1", 0),
        Arc::new(EmbeddingRegistry::new(RegistryConfig {
            capacity: 16,
            sim: counting_sim,
            ..RegistryConfig::default()
        })),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let connect = || PipelinedClient::connect(server.addr()).unwrap();

    let peak = peak_overlapping_compiles(&mut [connect()], 0, 8);
    assert_eq!(peak, 1, "compiles overlapping on one connection");
    let peak = peak_overlapping_compiles(&mut [connect(), connect()], 8, 4);
    assert_eq!(peak, 2, "compiles overlapping on two connections");
}

/// `call` reads the next answer on the lane, so while submitted requests
/// are unanswered it would read one of theirs: the client refuses it with
/// a protocol error, and the submitted request is still answered
/// afterwards.
#[test]
fn call_is_refused_while_tagged_requests_are_in_flight() {
    let server = spawn_server();
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
