//! In-process replay of one served request through the public calls the
//! service's dispatcher makes, each inside its own span: request encode →
//! decode → `get_or_compile` → `parse_xml` / `parse_query` → `apply` /
//! `invert` / `translate` → `to_xml` → response encode → decode.
//!
//! A traced TCP request is sent over the wire first (`wire.call`) and
//! then replayed here (`replay`); the difference is the wire's share.

use xse_rxpath::parse_query;
use xse_service::{EmbeddingRegistry, Request, Response, ServiceError};
use xse_xmltree::parse_xml;

use crate::trace::Tracer;

/// Encoded sizes of the replayed request and response, bytes.
pub struct FrameSizes {
    pub request: u64,
    pub response: u64,
}

/// Replay `req` against `registry` and return the decoded response.
pub fn replay(
    tr: &mut Tracer,
    registry: &EmbeddingRegistry,
    req: &Request,
) -> (Response, FrameSizes) {
    let encoded = tr.span("proto.encode", || req.encode());
    let resp = match tr.span("proto.decode", || Request::decode(&encoded)) {
        Ok(decoded) => execute(tr, registry, &decoded).unwrap_or_else(|e| e.to_response()),
        Err(code) => Response::Error {
            code,
            message: "request did not decode".into(),
        },
    };
    let resp_encoded = tr.span("proto.encode", || resp.encode());
    let decoded = tr
        .span("proto.decode", || Response::decode(&resp_encoded))
        .unwrap_or(Response::Error {
            code: xse_service::ErrorCode::Malformed,
            message: "response did not decode".into(),
        });
    let sizes = FrameSizes {
        request: encoded.len() as u64,
        response: resp_encoded.len() as u64,
    };
    (decoded, sizes)
}

/// The dispatcher's steps for `req` (everything but the codec), each call
/// in its own span.
///
/// # Errors
/// As the dispatcher reports them.
pub fn execute(
    tr: &mut Tracer,
    registry: &EmbeddingRegistry,
    req: &Request,
) -> Result<Response, ServiceError> {
    match req {
        Request::Compile {
            source_dtd,
            target_dtd,
        } => {
            let (key, engine) = tr.span("registry.get_or_compile", || {
                registry.get_or_compile(source_dtd, target_dtd)
            })?;
            Ok(Response::Compiled {
                source_hash: key.source.to_hex(),
                target_hash: key.target.to_hex(),
                size: engine.size() as u64,
            })
        }
        Request::Evict {
            source_dtd,
            target_dtd,
        } => {
            let existed = tr.span("registry.evict", || registry.evict(source_dtd, target_dtd))?;
            Ok(Response::Evicted { existed })
        }
        Request::Translate {
            source_dtd,
            target_dtd,
            query,
        } => {
            let (_, engine) = tr.span("registry.get_or_compile", || {
                registry.get_or_compile(source_dtd, target_dtd)
            })?;
            let q = tr
                .span("rxpath.parse_query", || parse_query(query))
                .map_err(|e| ServiceError::BadQuery(e.to_string()))?;
            tr.span("core.translate", || {
                let plan = engine
                    .translate(&q)
                    .map_err(|e| ServiceError::Engine(e.to_string()))?;
                let stats = engine.plan_stats();
                Ok(Response::Translated {
                    size: plan.size() as u64,
                    states: plan.state_count() as u64,
                    plan_hits: stats.hits,
                    plan_misses: stats.misses,
                })
            })
        }
        Request::Apply {
            source_dtd,
            target_dtd,
            xml,
        } => {
            let (_, engine) = tr.span("registry.get_or_compile", || {
                registry.get_or_compile(source_dtd, target_dtd)
            })?;
            let doc = tr
                .span("xmltree.parse_xml", || parse_xml(xml))
                .map_err(|e| ServiceError::BadDocument(e.to_string()))?;
            let out = tr
                .span("core.apply", || engine.apply(&doc))
                .map_err(|e| ServiceError::Engine(e.to_string()))?;
            let xml = tr.span("xmltree.to_xml", || out.tree.to_xml());
            Ok(Response::Document { xml })
        }
        Request::Invert {
            source_dtd,
            target_dtd,
            xml,
        } => {
            let (_, engine) = tr.span("registry.get_or_compile", || {
                registry.get_or_compile(source_dtd, target_dtd)
            })?;
            let doc = tr
                .span("xmltree.parse_xml", || parse_xml(xml))
                .map_err(|e| ServiceError::BadDocument(e.to_string()))?;
            let out = tr
                .span("core.invert", || engine.invert(&doc))
                .map_err(|e| ServiceError::Engine(e.to_string()))?;
            let xml = tr.span("xmltree.to_xml", || out.to_xml());
            Ok(Response::Document { xml })
        }
        Request::Stats => Err(ServiceError::Engine(
            "the benchmark does not replay stats requests".into(),
        )),
    }
}
