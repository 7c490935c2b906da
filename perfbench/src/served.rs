//! The registry and server configuration the workloads run against.

use std::sync::Arc;
use std::time::Duration;

use xse_service::{EmbeddingRegistry, RegistryConfig, Server, ServerConfig, ServerHandle};

use crate::inputs::discovery_config;

/// A registry whose compiles use [`discovery_config`] (so the references
/// predict its verdicts) and whose negative cache outlives any run.
pub fn registry(capacity: usize, shards: usize) -> Arc<EmbeddingRegistry> {
    Arc::new(EmbeddingRegistry::new(RegistryConfig {
        capacity,
        shards,
        discovery: discovery_config(),
        negative_ttl: Some(Duration::from_secs(3600)),
        ..RegistryConfig::default()
    }))
}

/// A loopback server with the default configuration, except that its
/// deadlines are long enough never to fire during a run.
pub fn server(registry: Arc<EmbeddingRegistry>) -> Result<ServerHandle, String> {
    let patient = Some(Duration::from_secs(120));
    Server::bind(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            read_timeout: patient,
            write_timeout: patient,
            request_budget: patient,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server bind failed: {e}"))
}
