//! `migrate-docs`: bulk document migration. Two connections on the
//! pipelined lane (`PipelinedClient`, window 1), alternating `Apply` of a
//! source document and `Invert` of its image. Documents have a few
//! thousand nodes, so every request and response frame is several times
//! the 8 KiB `BufWriter` capacity of the wire layer.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xse_service::{
    EmbeddingRegistry, PipelinedClient, RegistryStats, Request, Response, ServerHandle,
    ServiceError,
};

use crate::inputs::{corpus_pairs, digest_pair, sized_document};
use crate::stats::Digest;
use crate::tcp::{self, Served};
use crate::{served, Phase, Tally, TraceMode, Workload};

pub const NAME: &str = "migrate-docs";

const CONNECTIONS: usize = 2;
const DOCS_PER_PAIR: usize = 3;
/// Candidate documents generated per pair to find `DOCS_PER_PAIR` that fit.
const DOC_CANDIDATES: u64 = 8;
const DOC_NODES: std::ops::RangeInclusive<usize> = 800..=3500;
const DOC_TRIES: u64 = 12;
/// Every frame lies in this range: at least twice the wire layer's 8 KiB
/// `BufWriter` capacity, so no frame sits on that boundary, and below one
/// 64 KiB loopback segment, so every frame is sent the same way.
const FRAME_BYTES: std::ops::RangeInclusive<usize> = (2 * 8192)..=(56 * 1024);
/// Fewest documents a seed must yield (schemas whose instances never
/// reach the frame range contribute none).
const MIN_DOCS: usize = 6;
const SEQUENCE_LEN: usize = 512;

struct Item {
    request: Request,
    /// The reference output document, serialized.
    expect: String,
}

pub struct MigrateDocs {
    clients: Vec<Mutex<PipelinedClient>>,
    server: ServerHandle,
    registry: Arc<EmbeddingRegistry>,
    /// `Apply` of document `i` at `2i`, `Invert` of its image at `2i + 1`.
    items: Vec<Item>,
    /// Document indices; each is run as an apply, then an invert.
    sequence: Vec<u32>,
    pairs: usize,
    nodes: usize,
    frame_bytes: (usize, usize),
    digest: u64,
    checks: Vec<(String, bool)>,
}

fn judge(tally: &mut Tally, resp: &Response, expect: &str) {
    match resp {
        Response::Document { xml } if xml == expect => {}
        Response::Error { code, .. } => tally.error_code(*code),
        _ => tally.wrong += 1,
    }
}

impl Workload for MigrateDocs {
    fn setup(seed: u64) -> Result<Self, String> {
        let pairs = corpus_pairs();
        let mut d = Digest::default();
        let mut items = Vec::new();
        let mut round_trips = true;
        let mut nodes = 0;
        for (i, pair) in pairs.iter().enumerate() {
            digest_pair(&mut d, pair);
            let mut kept = 0;
            for k in 0..DOC_CANDIDATES {
                if kept == DOCS_PER_PAIR {
                    break;
                }
                let doc_seed = seed
                    .wrapping_mul(7919)
                    .wrapping_add(1000 * (i as u64 * DOC_CANDIDATES + k));
                let tree = sized_document(pair, doc_seed, DOC_NODES, DOC_TRIES);
                let mapped = pair
                    .engine
                    .apply(&tree)
                    .map_err(|e| format!("{}: reference apply failed: {e}", pair.name))?;
                let source_xml = tree.to_xml();
                let target_xml = mapped.tree.to_xml();
                if !FRAME_BYTES.contains(&source_xml.len())
                    || !FRAME_BYTES.contains(&target_xml.len())
                {
                    continue;
                }
                kept += 1;
                nodes += tree.len();
                // σd⁻¹(σd(T)) = T on the reference path.
                round_trips &= pair
                    .engine
                    .invert(&mapped.tree)
                    .is_ok_and(|back| back.to_xml() == source_xml);
                d.str(&source_xml);
                items.push(Item {
                    request: Request::Apply {
                        source_dtd: pair.source_text.clone(),
                        target_dtd: pair.target_text.clone(),
                        xml: source_xml.clone(),
                    },
                    expect: target_xml.clone(),
                });
                items.push(Item {
                    request: Request::Invert {
                        source_dtd: pair.source_text.clone(),
                        target_dtd: pair.target_text.clone(),
                        xml: target_xml,
                    },
                    expect: source_xml,
                });
            }
        }
        let frames: Vec<usize> = items
            .iter()
            .flat_map(|it| [it.request.encode().len(), it.expect.len()])
            .collect();
        let frame_bytes = (
            frames.iter().copied().min().unwrap_or(0),
            frames.iter().copied().max().unwrap_or(0),
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_6772_6174_6521);
        let docs = items.len() / 2;
        if docs == 0 {
            return Err("no document fits the frame range".into());
        }
        let sequence: Vec<u32> = (0..SEQUENCE_LEN)
            .map(|_| rng.random_range(0..docs) as u32)
            .collect();
        for &s in &sequence {
            d.u64(u64::from(s));
        }

        let registry = served::registry(64, 8);
        let server = served::server(Arc::clone(&registry))?;
        let mut clients = (0..CONNECTIONS)
            .map(|_| PipelinedClient::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect failed: {e}"))?;
        // Prewarm every pair through the service.
        let mut prewarm = Tally::default();
        for (i, pair) in pairs.iter().enumerate() {
            let compile = Request::Compile {
                source_dtd: pair.source_text.clone(),
                target_dtd: pair.target_text.clone(),
            };
            match call(&mut clients[i % CONNECTIONS], &compile) {
                Ok(Response::Compiled { .. }) => {}
                Ok(_) => prewarm.wrong += 1,
                Err(e) => prewarm.service_error(&e),
            }
        }
        let checks = vec![
            (
                "reference invert recovers every source document".to_string(),
                round_trips,
            ),
            (
                format!("at least {MIN_DOCS} documents have frames of {FRAME_BYTES:?} bytes"),
                items.len() / 2 >= MIN_DOCS,
            ),
            (
                "prewarm compiles every pair".to_string(),
                prewarm.failed() == 0,
            ),
        ];
        Ok(MigrateDocs {
            clients: clients.into_iter().map(Mutex::new).collect(),
            server,
            registry,
            items,
            sequence,
            pairs: pairs.len(),
            nodes,
            frame_bytes,
            digest: d.finish(),
            checks,
        })
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn describe(&self) -> String {
        format!(
            "{} pairs, {} documents ({} source nodes), frames {}..{} bytes, op sequence of {}, \
             {CONNECTIONS} pipelined connections with window 1",
            self.pairs,
            self.items.len() / 2,
            self.nodes,
            self.frame_bytes.0,
            self.frame_bytes.1,
            2 * self.sequence.len()
        )
    }

    fn checks(&self) -> Vec<(String, bool)> {
        self.checks.clone()
    }

    fn counters(&self) -> RegistryStats {
        self.registry.stats()
    }

    fn drive(&self, budget: Duration, trace: Option<TraceMode>) -> Phase {
        tcp::drive(self, budget, trace)
    }
}

/// One request on the pipelined lane with a window of one: submit, then
/// wait for the response carrying the same id.
fn call(client: &mut PipelinedClient, req: &Request) -> Result<Response, ServiceError> {
    let id = client.submit(req)?;
    let (got, resp) = client.recv()?;
    if got == id {
        Ok(resp)
    } else {
        Err(ServiceError::Protocol(format!(
            "sent id {id}, received id {got}"
        )))
    }
}

impl Served for MigrateDocs {
    type Client = PipelinedClient;

    fn clients(&self) -> &[Mutex<PipelinedClient>] {
        &self.clients
    }

    fn registry(&self) -> &EmbeddingRegistry {
        &self.registry
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn connect(addr: SocketAddr) -> Result<PipelinedClient, ServiceError> {
        PipelinedClient::connect(addr)
    }

    fn call(client: &mut PipelinedClient, req: &Request) -> Result<Response, ServiceError> {
        call(client, req)
    }

    fn first_op(&self, lane: usize) -> usize {
        2 * lane * self.sequence.len() / CONNECTIONS
    }

    fn request(&self, op: usize) -> &Request {
        &self.item(op).request
    }

    fn judge(&self, op: usize, tally: &mut Tally, resp: &Response) {
        judge(tally, resp, &self.item(op).expect);
    }
}

impl MigrateDocs {
    /// Ops alternate the apply (even) and the invert (odd) of one
    /// document of the sequence.
    fn item(&self, op: usize) -> &Item {
        let doc = self.sequence[(op / 2) % self.sequence.len()] as usize;
        &self.items[2 * doc + op % 2]
    }
}
