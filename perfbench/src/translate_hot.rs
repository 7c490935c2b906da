//! `translate-hot`: the schema-evolution translation tier. Two connections
//! on the legacy id-0 lane (`Client`), one request outstanding each,
//! translate only, over eight prewarmed corpus pairs: each op picks a pair
//! uniformly and one of its queries with harmonic (Zipf, s = 1) skew, as
//! the service's `repeated-query` traffic does, so hot queries are reused. Frames are small (two DTD texts and a query), so the fixed cost
//! of each request dominates.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use xse_service::{
    Client, EmbeddingRegistry, RegistryStats, Request, Response, ServerHandle, ServiceError,
};

use crate::inputs::{corpus_pairs, digest_pair, translatable_queries};
use crate::stats::{harmonic, Digest};
use crate::tcp::{self, Served};
use crate::{served, Phase, Tally, TraceMode, Workload};

pub const NAME: &str = "translate-hot";

const CONNECTIONS: usize = 2;
const QUERIES_PER_PAIR: usize = 8;
const SEQUENCE_LEN: usize = 4096;

struct Item {
    request: Request,
    /// `(|Tr(Q)|, states)` from the reference engine's uncached
    /// `compile_translation`.
    expect: (u64, u64),
}

pub struct TranslateHot {
    // Clients are dropped before the server, so its drain finds no open
    // connection.
    clients: Vec<Mutex<Client>>,
    server: ServerHandle,
    registry: Arc<EmbeddingRegistry>,
    items: Vec<Item>,
    sequence: Vec<u32>,
    pairs: usize,
    digest: u64,
    checks: Vec<(String, bool)>,
}

/// Whether a response carries the reference translation.
fn judge(tally: &mut Tally, resp: &Response, expect: (u64, u64)) {
    match resp {
        Response::Translated { size, states, .. } if (*size, *states) == expect => {}
        Response::Error { code, .. } => tally.error_code(*code),
        _ => tally.wrong += 1,
    }
}

impl Workload for TranslateHot {
    fn setup(seed: u64) -> Result<Self, String> {
        let pairs = corpus_pairs();
        let mut d = Digest::default();
        let mut items = Vec::new();
        // Item indices of each pair's queries.
        let mut by_pair: Vec<Vec<usize>> = Vec::new();
        for (i, pair) in pairs.iter().enumerate() {
            digest_pair(&mut d, pair);
            by_pair.push(Vec::new());
            let query_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            for (text, q) in translatable_queries(pair, query_seed, QUERIES_PER_PAIR) {
                let plan = pair
                    .engine
                    .compile_translation(&q)
                    .map_err(|e| format!("reference translation failed: {e}"))?;
                d.str(&text);
                by_pair[i].push(items.len());
                items.push(Item {
                    request: Request::Translate {
                        source_dtd: pair.source_text.clone(),
                        target_dtd: pair.target_text.clone(),
                        query: text,
                    },
                    expect: (plan.size() as u64, plan.state_count() as u64),
                });
            }
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7472_616e_736c_6174);
        for queries in &mut by_pair {
            queries.shuffle(&mut rng);
        }
        by_pair.retain(|q| !q.is_empty());
        let sequence: Vec<u32> = (0..SEQUENCE_LEN)
            .map(|_| {
                let queries = &by_pair[rng.random_range(0..by_pair.len())];
                queries[harmonic(queries.len(), &mut rng)] as u32
            })
            .collect();
        for &s in &sequence {
            d.u64(u64::from(s));
        }

        let registry = served::registry(64, 8);
        let server = served::server(Arc::clone(&registry))?;
        let mut clients = (0..CONNECTIONS)
            .map(|_| Client::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect failed: {e}"))?;
        // Prewarm every pair and every query's plan through the service.
        let mut prewarm = Tally::default();
        for pair in &pairs {
            if clients[0]
                .compile(&pair.source_text, &pair.target_text)
                .is_err()
            {
                prewarm.wrong += 1;
            }
        }
        for (i, item) in items.iter().enumerate() {
            match clients[i % CONNECTIONS].call(&item.request) {
                Ok(resp) => judge(&mut prewarm, &resp, item.expect),
                Err(e) => prewarm.service_error(&e),
            }
        }
        let checks = vec![
            (
                format!(
                    "{} queries over {} pairs have references",
                    items.len(),
                    pairs.len()
                ),
                items.len() >= pairs.len(),
            ),
            (
                "prewarm compiles and translations match the references".to_string(),
                prewarm.failed() == 0,
            ),
        ];
        Ok(TranslateHot {
            clients: clients.into_iter().map(Mutex::new).collect(),
            server,
            registry,
            items,
            sequence,
            pairs: pairs.len(),
            digest: d.finish(),
            checks,
        })
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn describe(&self) -> String {
        format!(
            "{} pairs, {} queries, op sequence of {} (uniform pair, harmonic query), \
             {CONNECTIONS} connections",
            self.pairs,
            self.items.len(),
            self.sequence.len()
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

impl Served for TranslateHot {
    type Client = Client;

    fn clients(&self) -> &[Mutex<Client>] {
        &self.clients
    }

    fn registry(&self) -> &EmbeddingRegistry {
        &self.registry
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn connect(addr: SocketAddr) -> Result<Client, ServiceError> {
        Client::connect(addr)
    }

    fn call(client: &mut Client, req: &Request) -> Result<Response, ServiceError> {
        client.call(req)
    }

    fn first_op(&self, lane: usize) -> usize {
        lane * self.sequence.len() / CONNECTIONS
    }

    fn request(&self, op: usize) -> &Request {
        &self.item(op).request
    }

    fn judge(&self, op: usize, tally: &mut Tally, resp: &Response) {
        judge(tally, resp, self.item(op).expect);
    }
}

impl TranslateHot {
    fn item(&self, op: usize) -> &Item {
        &self.items[self.sequence[op % self.sequence.len()] as usize]
    }
}
