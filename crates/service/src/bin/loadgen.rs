//! `xse-loadgen`: replay a traffic mix against the embedding service.
//!
//! ```text
//! xse-loadgen [--mix NAME] [--ops N] [--pairs N] [--seed N]
//!             [--capacity N] [--workers N] [--shards N] [--cold]
//!             [--addr HOST:PORT | --spawn-server | --in-process]
//!             [--connections N] [--inflight K]
//!             [--chaos] [--fault-seed N]
//!             [--check] [--min-hit-rate X]
//! ```
//!
//! * `--mix` — `translate-heavy` (default), `repeated-query`,
//!   `apply-heavy`, `mixed`, or `cold-cache-adversarial`.
//! * `--addr` targets a running server; `--spawn-server` starts one on an
//!   ephemeral port and drives it over TCP; the default is in-process.
//! * `--capacity` — registry capacity for the spawned/in-process registry
//!   (default 64). The bound is per shard: each shard holds
//!   `⌈capacity / shards⌉` engines, so a capacity below `--shards` still
//!   caches one engine per shard.
//! * `--shards` — registry shard count for the spawned/in-process
//!   registry (default 8).
//! * `--cold` evicts (untimed) before every timed op.
//! * `--connections N` — endpoints: N TCP connections replay at once, one
//!   thread each, each issuing `--ops` requests from its own seeded
//!   stream (connection 0 replays the single-connection stream).
//! * `--inflight K` — window: each connection keeps up to K tagged
//!   requests in flight (default 1, one request at a time).
//!
//!   With N or K above 1, every pair is first compiled once (untimed), so
//!   the digests are warm-path latency under contention. That needs a TCP
//!   endpoint (`--spawn-server` or `--addr`) and conflicts with `--chaos`
//!   and `--cold`. A spawned server gets `max(--workers, N)` workers so
//!   every connection is served concurrently.
//! * `--chaos` (requires `--spawn-server`) interposes a [`FaultProxy`]
//!   running [`FaultPlan::standard`]`(--fault-seed)` between a retrying
//!   client and the server: frames are delayed, reset, truncated and
//!   corrupted, and the summary reports shed/retry counts plus an error
//!   taxonomy. The injected fault sequence is deterministic per seed.
//! * `--check` exits non-zero unless the replay had positive QPS, issued
//!   ops, and — always — zero misinterpretations. Without `--chaos` it
//!   also requires zero protocol errors (under chaos, transport failures
//!   are the point), and on the `repeated-query` mix (warm) a ≥ 95%
//!   translation-plan hit rate. `--min-hit-rate X` additionally requires
//!   a registry hit rate ≥ X.
//!
//! The summary is printed to stdout as a single JSON line.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use xse_service::fault::{FaultPlan, FaultProxy};
use xse_service::loadgen::{self, Endpoint, LoadConfig};
use xse_service::{
    Client, ClientConfig, EmbeddingRegistry, RegistryConfig, RetryPolicy, RetryingClient, Server,
    ServerConfig,
};
use xse_workloads::traffic::TrafficMix;

struct Args {
    mix: TrafficMix,
    ops: usize,
    pairs: usize,
    seed: u64,
    capacity: usize,
    workers: usize,
    shards: usize,
    cold: bool,
    addr: Option<String>,
    spawn_server: bool,
    connections: usize,
    inflight: usize,
    chaos: bool,
    fault_seed: u64,
    check: bool,
    min_hit_rate: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mix: TrafficMix::translate_heavy(),
        ops: 400,
        pairs: 8,
        seed: 42,
        capacity: 64,
        workers: 4,
        shards: RegistryConfig::default().shards,
        cold: false,
        addr: None,
        spawn_server: false,
        connections: 1,
        inflight: 1,
        chaos: false,
        fault_seed: 7,
        check: false,
        min_hit_rate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--mix" => {
                let name = value("--mix")?;
                args.mix =
                    TrafficMix::by_name(&name).ok_or_else(|| format!("unknown mix '{name}'"))?;
            }
            "--ops" => args.ops = parse_num(&value("--ops")?)?,
            "--pairs" => args.pairs = parse_num(&value("--pairs")?)?,
            "--seed" => args.seed = parse_num(&value("--seed")?)? as u64,
            "--capacity" => args.capacity = parse_num(&value("--capacity")?)?,
            "--workers" => args.workers = parse_num(&value("--workers")?)?,
            "--shards" => args.shards = parse_num(&value("--shards")?)?,
            "--cold" => args.cold = true,
            "--addr" => args.addr = Some(value("--addr")?),
            "--spawn-server" => args.spawn_server = true,
            "--connections" => args.connections = parse_num(&value("--connections")?)?,
            "--inflight" => args.inflight = parse_num(&value("--inflight")?)?,
            "--in-process" => {}
            "--chaos" => args.chaos = true,
            "--fault-seed" => args.fault_seed = parse_num(&value("--fault-seed")?)? as u64,
            "--check" => args.check = true,
            "--min-hit-rate" => {
                let raw = value("--min-hit-rate")?;
                let rate: f64 = raw.parse().map_err(|_| format!("not a number: '{raw}'"))?;
                args.min_hit_rate = Some(rate);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.addr.is_some() && args.spawn_server {
        return Err("--addr and --spawn-server are mutually exclusive".into());
    }
    if args.chaos && !args.spawn_server {
        return Err("--chaos requires --spawn-server (the proxy needs an upstream)".into());
    }
    if args.connections == 0 || args.inflight == 0 {
        return Err("--connections and --inflight must be at least 1".into());
    }
    if args.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let contended = args.connections > 1 || args.inflight > 1;
    if contended && !args.spawn_server && args.addr.is_none() {
        return Err(
            "--connections/--inflight need a TCP endpoint (--spawn-server or --addr)".into(),
        );
    }
    if contended && args.chaos {
        return Err("--connections/--inflight and --chaos are mutually exclusive".into());
    }
    if contended && args.cold {
        return Err("--connections/--inflight prewarm the cache; --cold conflicts".into());
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("not a number: '{s}'"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xse-loadgen: {e}");
            return ExitCode::from(2);
        }
    };

    eprintln!(
        "xse-loadgen: building {} schema pairs (seed {})...",
        args.pairs, args.seed
    );
    let pairs = loadgen::build_pairs(args.pairs, args.seed);

    let registry = Arc::new(EmbeddingRegistry::new(RegistryConfig {
        capacity: args.capacity,
        shards: args.shards,
        ..RegistryConfig::default()
    }));
    let server_config = ServerConfig {
        // Each connection holds a worker for the whole replay; fewer
        // workers than connections would serialize whole connections.
        workers: args.workers.max(args.connections),
        // Chaos runs stall connections on purpose; shorter deadlines keep
        // workers circulating through the injected faults.
        read_timeout: Some(if args.chaos {
            Duration::from_secs(2)
        } else {
            Duration::from_secs(5)
        }),
        ..ServerConfig::default()
    };

    // `server` / `proxy` must outlive the endpoints; dropping them joins
    // their threads.
    let server = if args.spawn_server {
        match Server::bind(("127.0.0.1", 0), Arc::clone(&registry), server_config) {
            Ok(h) => {
                eprintln!("xse-loadgen: spawned server on {}", h.addr());
                Some(h)
            }
            Err(e) => {
                eprintln!("xse-loadgen: bind: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let proxy = match (&server, args.chaos) {
        (Some(handle), true) => {
            match FaultProxy::spawn(handle.addr(), FaultPlan::standard(args.fault_seed)) {
                Ok(p) => {
                    eprintln!(
                        "xse-loadgen: chaos proxy on {} (fault seed {})",
                        p.addr(),
                        args.fault_seed
                    );
                    Some(p)
                }
                Err(e) => {
                    eprintln!("xse-loadgen: fault proxy: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        _ => None,
    };

    let connect = || -> Result<Endpoint, String> {
        if let Some(proxy) = &proxy {
            let client = RetryingClient::new(
                proxy.addr(),
                ClientConfig {
                    connect_timeout: Some(Duration::from_secs(1)),
                    read_timeout: Some(Duration::from_secs(5)),
                    write_timeout: Some(Duration::from_secs(2)),
                },
                RetryPolicy {
                    seed: args.fault_seed,
                    ..RetryPolicy::default()
                },
            );
            return client
                .map(Endpoint::Retry)
                .map_err(|e| format!("retry client: {e}"));
        }
        let addr = match (&args.addr, &server) {
            (Some(addr), _) => addr.clone(),
            (None, Some(handle)) => handle.addr().to_string(),
            (None, None) => return Ok(Endpoint::InProcess(Arc::clone(&registry))),
        };
        Client::connect(addr.as_str())
            .map(Endpoint::Tcp)
            .map_err(|e| format!("connect {addr}: {e}"))
    };
    let mut endpoints: Vec<Endpoint> = match (0..args.connections).map(|_| connect()).collect() {
        Ok(endpoints) => endpoints,
        Err(e) => {
            eprintln!("xse-loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    if args.connections > 1 || args.inflight > 1 {
        eprintln!(
            "xse-loadgen: {} shards, {} connections x {} in flight",
            args.shards, args.connections, args.inflight
        );
        if let Err(e) = loadgen::prewarm(&mut endpoints[0], &pairs) {
            eprintln!("xse-loadgen: prewarm: {e}");
            return ExitCode::from(2);
        }
    }

    let summary = loadgen::run(
        &mut endpoints,
        &pairs,
        &LoadConfig {
            mix: args.mix.clone(),
            ops: args.ops,
            seed: args.seed,
            cold: args.cold,
            inflight: args.inflight,
        },
    );
    println!("{}", summary.to_json());
    if let Some(proxy) = &proxy {
        let counts = proxy.fault_counts();
        eprintln!(
            "xse-loadgen: injected faults: {} resets, {} truncations, {} corruptions, {} delays; \
             server shed {} connections",
            counts.resets,
            counts.truncations,
            counts.corruptions,
            counts.delays,
            server.as_ref().map_or(0, |s| s.shed_count()),
        );
    }

    check_summary(&args, &summary)
}

fn check_summary(args: &Args, summary: &loadgen::LoadSummary) -> ExitCode {
    if !args.check {
        return ExitCode::SUCCESS;
    }
    let mut failures = Vec::new();
    if summary.qps <= 0.0 {
        failures.push(format!("qps {:.2} not positive", summary.qps));
    }
    if summary.ops == 0 {
        failures.push("no ops completed".into());
    }
    if summary.misinterpretations > 0 {
        failures.push(format!(
            "{} misinterpreted responses (corruption must never decode as success)",
            summary.misinterpretations
        ));
    }
    if !args.chaos && summary.protocol_errors > 0 {
        failures.push(format!("{} protocol errors", summary.protocol_errors));
    }
    // The repeated-query mix exists to exercise plan reuse; a warm
    // replay that misses the plan cache is a regression even if fast.
    if !args.chaos && args.mix.zipf_queries() && !args.cold && summary.plan_hit_rate < 0.95 {
        failures.push(format!(
            "plan hit rate {:.4} below 0.95",
            summary.plan_hit_rate
        ));
    }
    if let Some(min) = args.min_hit_rate {
        if summary.hit_rate < min {
            failures.push(format!(
                "registry hit rate {:.4} below {min:.4}",
                summary.hit_rate
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!("xse-loadgen: check FAILED ({})", failures.join("; "));
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
