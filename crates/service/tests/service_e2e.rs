//! End-to-end service tests: TCP round-trips, protocol error paths, the
//! eviction/recompile determinism property, and the warm-vs-cold cache
//! acceptance gate.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use proptest::prelude::*;
use xse_dtd::{GenConfig, InstanceGenerator};
use xse_service::loadgen::{self, Endpoint, LoadConfig};
use xse_service::proto::{op, read_frame, write_frame};
use xse_service::{
    Client, EmbeddingRegistry, ErrorCode, PipelinedClient, RegistryConfig, Request, Response,
    Server, ServerConfig, ServiceError,
};
use xse_workloads::traffic::TrafficMix;

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

fn spawn_server(capacity: usize) -> xse_service::ServerHandle {
    Server::bind(
        ("127.0.0.1", 0),
        test_registry(capacity),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port")
}

#[test]
fn tcp_round_trip_all_ops() {
    let server = spawn_server(8);
    let mut client = Client::connect(server.addr()).unwrap();
    let (s, t) = wrap_pair();

    let (sh, th, size) = client.compile(&s, &t).unwrap();
    assert_ne!(sh, th);
    assert!(size > 0);

    let doc = "<r><a>hi</a><b><c>1</c><c>2</c></b></r>";
    let image = client.apply(&s, &t, doc).unwrap();
    assert_ne!(image, doc);
    let back = client.invert(&s, &t, &image).unwrap();
    assert_eq!(back, doc, "apply→invert must round-trip over the wire");

    let tr = client.translate(&s, &t, "b/c").unwrap();
    assert!(tr.size > 0 && tr.states > 0);

    let stats = client.stats().unwrap();
    assert_eq!(stats.compiles, 1, "{stats:?}");
    assert_eq!(stats.entries, 1);

    assert!(client.evict(&s, &t).unwrap());
    assert!(!client.evict(&s, &t).unwrap());
}

#[test]
fn tcp_concurrent_clients_single_flight() {
    let server = spawn_server(8);
    let addr = server.addr();
    let (s, t) = wrap_pair();
    // Six concurrent clients, each served on its own connection thread:
    // every one is answered, and the uncached pair compiles exactly once.
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let (s, t) = (s.clone(), t.clone());
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.compile(&s, &t).unwrap();
            });
        }
    });
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.compiles, 1, "{stats:?}");
    assert_eq!(
        stats.hits + stats.misses + stats.single_flight_waits,
        6,
        "{stats:?}"
    );
}

/// Large frames must not stall on Nagle × delayed ACK (~40 ms each when
/// a frame's header and payload leave in separate sends). 50 round trips
/// of >= 32 KiB frames take ~20 ms on loopback in a release build and
/// ~120 ms in a debug one; with the stall they take ~4.4 s, so the 1 s
/// bound has a wide margin either way.
#[test]
fn large_frames_round_trip_without_a_send_stall() {
    let server = spawn_server(8);
    let (s, t) = wrap_pair();
    let doc = format!(
        "<r><a>{}</a><b><c>1</c><c>2</c></b></r>",
        "information preserving ".repeat(1500)
    );
    let mut client = Client::connect(server.addr()).unwrap();
    client.compile(&s, &t).unwrap();
    let image = client.apply(&s, &t, &doc).unwrap();
    assert!(doc.len() >= 32 * 1024 && image.len() >= 32 * 1024);

    let start = std::time::Instant::now();
    for _ in 0..25 {
        assert_eq!(client.apply(&s, &t, &doc).unwrap(), image);
        assert_eq!(client.invert(&s, &t, &image).unwrap(), doc);
    }
    let sequential = start.elapsed();

    let mut pipelined = PipelinedClient::connect(server.addr()).unwrap();
    let apply = Request::Apply {
        source_dtd: s.clone(),
        target_dtd: t.clone(),
        xml: doc.clone(),
    };
    let invert = Request::Invert {
        source_dtd: s,
        target_dtd: t,
        xml: image.clone(),
    };
    let start = std::time::Instant::now();
    for _ in 0..25 {
        let resps = pipelined.call_pipelined(&[apply.clone(), invert.clone()], 1);
        assert_eq!(
            resps.unwrap(),
            [
                Response::Document { xml: image.clone() },
                Response::Document { xml: doc.clone() }
            ]
        );
    }
    let windowed = start.elapsed();

    let bound = std::time::Duration::from_secs(1);
    assert!(
        sequential < bound,
        "Client: 50 large ops took {sequential:?}"
    );
    assert!(
        windowed < bound,
        "PipelinedClient: 50 large ops took {windowed:?}"
    );
}

#[test]
fn oversized_frame_gets_error_then_close_and_server_survives() {
    let server = spawn_server(8);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    // Announce a payload over the 16 MiB cap; send no body.
    raw.write_all(&(xse_service::MAX_FRAME_LEN as u32 + 1).to_be_bytes())
        .unwrap();
    raw.write_all(&0u32.to_be_bytes()).unwrap(); // request id
    raw.flush().unwrap();
    let (id, payload) = read_frame(&mut raw).expect("structured error response");
    assert_eq!(id, 0, "connection-level errors carry id 0");
    let resp = Response::decode(&payload).expect("decodable error");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::FrameTooLarge,
                ..
            }
        ),
        "{resp:?}"
    );
    // The connection is closed after the error...
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    // ...but the server keeps serving new connections.
    let (s, t) = wrap_pair();
    let mut client = Client::connect(server.addr()).unwrap();
    client.compile(&s, &t).unwrap();
}

#[test]
fn truncated_payload_gets_malformed_and_connection_stays_usable() {
    let server = spawn_server(8);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    // A COMPILE whose string field announces 100 bytes but carries 3: the
    // frame itself is complete, so only the request is poisoned.
    let mut payload = vec![op::COMPILE];
    payload.extend_from_slice(&100u32.to_be_bytes());
    payload.extend_from_slice(b"abc");
    write_frame(&mut raw, 0, &payload).unwrap();
    let resp = Response::decode(&read_frame(&mut raw).unwrap().1).unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "{resp:?}"
    );
    // Same connection, valid request: still served.
    let (s, t) = wrap_pair();
    let req = Request::Compile {
        source_dtd: s,
        target_dtd: t,
    };
    write_frame(&mut raw, 0, &req.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut raw).unwrap().1).unwrap();
    assert!(matches!(resp, Response::Compiled { .. }), "{resp:?}");
}

#[test]
fn unknown_opcode_and_bad_dtd_are_structured_errors() {
    let server = spawn_server(8);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut raw, 0, &[0x7E]).unwrap();
    let resp = Response::decode(&read_frame(&mut raw).unwrap().1).unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownOpcode,
                ..
            }
        ),
        "{resp:?}"
    );
    // Same connection: a malformed DTD is a BadDtd error response...
    let mut client = Client::connect(server.addr()).unwrap();
    let (s, _) = wrap_pair();
    let err = client.compile(&s, "<!ELEMENT broken").unwrap_err();
    assert!(
        matches!(
            err,
            ServiceError::Remote {
                code: ErrorCode::BadDtd,
                ..
            }
        ),
        "{err:?}"
    );
    // ...and neither incident poisoned the registry.
    let (s, t) = wrap_pair();
    client.compile(&s, &t).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.compiles, 1);
}

#[test]
fn tcp_repeated_translate_hits_the_plan_cache() {
    let server = spawn_server(8);
    let mut client = Client::connect(server.addr()).unwrap();
    let (s, t) = wrap_pair();

    // First translate compiles the plan; the counters over the wire show
    // the miss. Spelled two equivalent ways, the second call must land on
    // the same cached plan (shape keys are canonical).
    let first = client.translate(&s, &t, "b/c").unwrap();
    assert_eq!((first.plan_hits, first.plan_misses), (0, 1), "{first:?}");
    let second = client.translate(&s, &t, "./b[true]/c").unwrap();
    assert_eq!((second.plan_hits, second.plan_misses), (1, 1), "{second:?}");
    assert_eq!((first.size, first.states), (second.size, second.states));

    // A distinct shape is a fresh miss.
    let third = client.translate(&s, &t, "b").unwrap();
    assert_eq!((third.plan_hits, third.plan_misses), (1, 2), "{third:?}");

    // The aggregate stats frame carries the same counters plus the number
    // of live cached plans.
    let stats = client.stats().unwrap();
    assert_eq!(
        (stats.plan_hits, stats.plan_misses, stats.plan_entries),
        (1, 2, 2),
        "{stats:?}"
    );
}

#[test]
fn tcp_translate_after_evict_is_equivalent_and_plan_stats_survive() {
    let server = spawn_server(8);
    let mut client = Client::connect(server.addr()).unwrap();
    let (s, t) = wrap_pair();

    let before = client.translate(&s, &t, "b/c").unwrap();
    assert!(client.evict(&s, &t).unwrap());
    // Recompiled engine, recompiled plan: identical automaton metrics,
    // fresh per-engine counters (the one earlier miss lives on in the
    // registry aggregate).
    let after = client.translate(&s, &t, "b/c").unwrap();
    assert_eq!((before.size, before.states), (after.size, after.states));
    assert_eq!((after.plan_hits, after.plan_misses), (0, 1), "{after:?}");
    let stats = client.stats().unwrap();
    assert_eq!(stats.evictions, 1, "{stats:?}");
    assert_eq!(
        (stats.plan_hits, stats.plan_misses, stats.plan_entries),
        (0, 2, 1),
        "{stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Evicting an entry and recompiling it must be invisible to callers:
    /// the recompiled embedding maps every document to byte-identical
    /// output (discovery is deterministic, so a cache loss can never
    /// change answers).
    #[test]
    fn evict_then_recompile_is_byte_identical(seed in 0u64..400) {
        let (s, t) = wrap_pair();
        let reg = test_registry(4);
        let source = xse_dtd::Dtd::parse(&s).unwrap();
        let gen = InstanceGenerator::new(
            &source,
            GenConfig { max_nodes: 80, ..GenConfig::default() },
        );
        let doc = gen.generate(seed);
        let xml = doc.to_xml();

        let before = match xse_service::handle_request(&reg, &Request::Apply {
            source_dtd: s.clone(), target_dtd: t.clone(), xml: xml.clone(),
        }) {
            Response::Document { xml } => xml,
            other => panic!("{other:?}"),
        };
        prop_assert!(reg.evict(&s, &t).unwrap());
        let after = match xse_service::handle_request(&reg, &Request::Apply {
            source_dtd: s.clone(), target_dtd: t.clone(), xml,
        }) {
            Response::Document { xml } => xml,
            other => panic!("{other:?}"),
        };
        prop_assert_eq!(before, after);
        prop_assert_eq!(reg.stats().compiles, 2);
    }

    /// Same property for translation: dropping an engine (and with it its
    /// plan cache) then recompiling must yield a plan with identical
    /// metrics that selects exactly the same nodes on the same image.
    #[test]
    fn evict_then_retranslate_is_byte_identical(seed in 0u64..200) {
        let (s, t) = wrap_pair();
        let reg = test_registry(4);
        let queries = ["b/c", "a", ".*/c", "b[c]/c"];
        let q = xse_rxpath::parse_query(queries[(seed % 4) as usize]).unwrap();
        let source = xse_dtd::Dtd::parse(&s).unwrap();
        let gen = InstanceGenerator::new(
            &source,
            GenConfig { max_nodes: 60, ..GenConfig::default() },
        );
        let doc = gen.generate(seed);

        let (_, e1) = reg.get_or_compile(&s, &t).unwrap();
        let image = e1.apply(&doc).unwrap();
        let tr1 = e1.translate(&q).unwrap();
        let r1 = tr1.eval(&image.tree);
        prop_assert!(reg.evict(&s, &t).unwrap());
        let (_, e2) = reg.get_or_compile(&s, &t).unwrap();
        let tr2 = e2.translate(&q).unwrap();
        prop_assert_eq!(
            (tr1.size(), tr1.state_count()),
            (tr2.size(), tr2.state_count())
        );
        prop_assert_eq!(r1, tr2.eval(&image.tree));
    }
}

/// The headline serving claim: on a translate-heavy mix over 8 schema
/// pairs, the warm cache's overall p50 must be at least 10× lower than
/// a cold op's (one op on a fresh registry, which discovers the pair),
/// with a ≥ 90% hit rate.
#[test]
fn warm_cache_p50_at_least_10x_better_than_cold() {
    let pairs = loadgen::build_pairs(8, 42);
    assert!(pairs.len() >= 8);

    let warm = loadgen::run(
        &mut [Endpoint::InProcess(test_registry(64))],
        &pairs,
        &LoadConfig {
            mix: TrafficMix::translate_heavy(),
            ops: 300,
            seed: 42,
            inflight: 1,
        },
    );
    assert_eq!(warm.protocol_errors, 0);
    assert_eq!(warm.op_errors, 0, "{}", warm.to_json());
    // Cold: each op runs alone on a fresh registry, so it pays discovery
    // and compilation. (An evict before the op would not do: the registry
    // keeps the pair's validated engine and copies it back without
    // searching or checking anything.)
    let mut cold_nanos: Vec<u64> = (0..40)
        .map(|i| {
            let cold = loadgen::run(
                &mut [Endpoint::InProcess(test_registry(64))],
                &pairs,
                &LoadConfig {
                    mix: TrafficMix::translate_heavy(),
                    ops: 1,
                    seed: 42 + i,
                    inflight: 1,
                },
            );
            assert_eq!(
                cold.protocol_errors + cold.op_errors,
                0,
                "{}",
                cold.to_json()
            );
            assert_eq!(cold.registry.misses, 1, "{}", cold.to_json());
            cold.overall_digest.expect("cold op ran").p50_nanos
        })
        .collect();
    cold_nanos.sort_unstable();
    let warm_p50 = warm.overall_digest.expect("warm ops ran").p50_nanos;
    let cold_p50 = cold_nanos[cold_nanos.len() / 2];
    assert!(
        warm_p50 * 10 <= cold_p50,
        "warm p50 {warm_p50}ns not 10x better than cold p50 {cold_p50}ns \
         (warm: {}, cold ops: {cold_nanos:?})",
        warm.to_json(),
    );
    assert!(
        warm.hit_rate >= 0.90,
        "warm hit rate {} below 90%: {}",
        warm.hit_rate,
        warm.to_json()
    );
}
