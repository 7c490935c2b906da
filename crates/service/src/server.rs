//! `std`-only TCP server: one accept thread, and one thread per admitted
//! connection, hardened against hostile and slow peers.
//!
//! The accept thread admits each new connection while fewer than
//! [`ServerConfig::max_connections`] are being served, and spawns it into a
//! `std::thread::scope` the accept thread owns, so no client waits for
//! another to hang up. A connection's thread reads a frame, answers it
//! under the frame's request id, and reads the next, so each connection is
//! answered in **arrival order**, as the wire contract requires. A client
//! that wants requests to run in parallel opens more connections. A frame
//! sent ahead waits in the socket's receive buffer, so a client that
//! overruns its connection is held back by TCP.
//!
//! Every accepted socket, served or shed, sets `TCP_NODELAY`, and every
//! response goes out as one whole-frame write straight to the socket (no
//! write buffer, nothing to flush). A frame split across two sends would
//! leave its payload waiting on Nagle's algorithm for the client's
//! delayed ACK of the header, ~40 ms per large response.
//!
//! # Robustness
//!
//! * Every connection carries **read/write deadlines**
//!   ([`ServerConfig::read_timeout`] / [`ServerConfig::write_timeout`]),
//!   so a stalled client holds its connection slot for at most one read
//!   deadline: an idle peer is closed silently, one that went quiet
//!   mid-frame gets a best-effort `Timeout` error frame first.
//! * Each request has a **time budget**
//!   ([`ServerConfig::request_budget`]); a response produced after the
//!   budget is replaced by a `Timeout` error (a blocking engine call
//!   cannot be interrupted, so the budget is enforced at response time).
//! * Admission is **bounded** ([`ServerConfig::max_connections`]): a
//!   connection that arrives while the cap is reached is answered
//!   immediately with an `Overloaded` error frame and closed — shed, not
//!   queued. The shed's thread drains the peer's input for at most 250 ms
//!   in all before it closes, so a peer that keeps writing cannot hold it.
//!   Sheds are counted on [`ServerHandle::shed_count`]. A slot is
//!   freed before its socket closes, so a client that sees EOF can connect
//!   again and be admitted.
//! * **Shutdown drains**: stop accepting, let in-flight requests finish up
//!   to [`ServerConfig::drain_deadline`], then force-close the remaining
//!   sockets and join every thread.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::proto::{read_frame, write_frame, ErrorCode, FrameError, Request, Response};
use crate::registry::EmbeddingRegistry;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections served at once, each on one thread. A connection that
    /// arrives at the cap is shed: answered with an `Overloaded` error
    /// frame and closed after a drain of at most 250 ms on a thread of its
    /// own. So the worst case is `max_connections` serving threads plus
    /// the sheds still in their drain. `0` sheds every connection.
    pub max_connections: usize,
    /// Per-connection read deadline. A peer that sends nothing for this
    /// long is disconnected (silently when idle between requests, with a
    /// `Timeout` error frame when it stalled mid-frame). `None` disables
    /// the deadline — a stalled client then holds its slot indefinitely,
    /// and drain can only finish by force-closing the socket.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline; bounds how long a non-reading peer
    /// can block a response (or shed notice) being written.
    pub write_timeout: Option<Duration>,
    /// Per-request time budget. A request whose handling exceeds it is
    /// answered with a `Timeout` error instead of the late result.
    /// `None` disables the budget.
    pub request_budget: Option<Duration>,
    /// How long shutdown waits for in-flight connections to finish before
    /// force-closing their sockets.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            request_budget: Some(Duration::from_secs(10)),
            drain_deadline: Duration::from_secs(2),
        }
    }
}

/// The embedding service's TCP front end. Construct with [`Server::bind`];
/// the returned [`ServerHandle`] owns the threads.
pub struct Server;

/// A running server: address accessor plus explicit shutdown/join.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    tracker: Arc<ConnTracker>,
    shed: Arc<AtomicU64>,
    drain_deadline: Duration,
    /// The accept thread; its scope holds every connection and shed thread.
    accept: Option<JoinHandle<()>>,
}

/// Clones of the sockets being served, keyed by connection id. The map's
/// size is the admission count, and shutdown force-closes stragglers
/// through the clones once the drain deadline passes.
struct ConnTracker {
    conns: Mutex<HashMap<u64, TcpStream>>,
    next: AtomicU64,
}

impl ConnTracker {
    /// Take a slot for `conn` unless `cap` connections are being served.
    fn admit(&self, conn: &TcpStream, cap: usize) -> Option<Slot<'_>> {
        let mut conns = self.conns.lock().unwrap();
        if conns.len() >= cap {
            return None;
        }
        let clone = conn.try_clone().ok()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        conns.insert(id, clone);
        Some(Slot { tracker: self, id })
    }

    fn active(&self) -> usize {
        self.conns.lock().unwrap().len()
    }

    fn force_close_all(&self) {
        for conn in self.conns.lock().unwrap().values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// An admitted connection's place in [`ConnTracker`]. Dropping it frees
/// the slot, also when serving the connection panicked. The clone dropped
/// with it keeps the socket open until then, so a peer that sees EOF knows
/// its slot is already free.
struct Slot<'a> {
    tracker: &'a ConnTracker,
    id: u64,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.tracker.conns.lock().unwrap().remove(&self.id);
    }
}

/// Everything the accept thread and a connection's thread need.
struct ConnCtx {
    registry: Arc<EmbeddingRegistry>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    tracker: Arc<ConnTracker>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `registry`, one thread per connection up to
    /// `config.max_connections`.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<EmbeddingRegistry>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let tracker = Arc::new(ConnTracker {
            conns: Mutex::new(HashMap::new()),
            next: AtomicU64::new(0),
        });
        let shed = Arc::new(AtomicU64::new(0));
        let drain_deadline = config.drain_deadline;
        let ctx = ConnCtx {
            registry,
            config,
            shutdown: Arc::clone(&shutdown),
            tracker: Arc::clone(&tracker),
        };
        let accept = {
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                let ctx = &ctx;
                std::thread::scope(|scope| {
                    for conn in listener.incoming() {
                        if ctx.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(conn) = conn else { continue };
                        // Every write is a whole frame (see `write_frame`),
                        // so Nagle has nothing to coalesce and could only
                        // delay.
                        let _ = conn.set_nodelay(true);
                        let Some(slot) = ctx.tracker.admit(&conn, ctx.config.max_connections)
                        else {
                            shed.fetch_add(1, Ordering::Relaxed);
                            let write_timeout = ctx.config.write_timeout;
                            // A failed spawn drops the socket unanswered.
                            let _ = std::thread::Builder::new().spawn_scoped(scope, move || {
                                shed_connection(conn, write_timeout, "connection limit reached")
                            });
                            continue;
                        };
                        // A failed spawn drops the closure, and the slot with it.
                        let _ = std::thread::Builder::new()
                            .spawn_scoped(scope, move || serve_connection(conn, slot, ctx));
                    }
                });
            })
        };

        Ok(ServerHandle {
            addr,
            shutdown,
            tracker,
            shed,
            drain_deadline,
            accept: Some(accept),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections shed so far: answered `Overloaded` because
    /// [`ServerConfig::max_connections`] were already being served.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, let in-flight requests finish up to
    /// the drain deadline, force-close whatever remains, then join the
    /// accept thread, whose scope joins every connection and shed thread.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop: it only re-checks the flag per incoming
        // connection, so hand it one.
        let _ = TcpStream::connect(self.addr);
        // Drain: in-flight connections close themselves after their current
        // request (each thread re-checks the flag per frame, and read
        // deadlines bound the wait for a next request that never comes).
        let deadline = Instant::now() + self.drain_deadline;
        while self.tracker.active() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Past the deadline: force-close the stragglers' sockets so their
        // blocking reads/writes fail and the threads exit. A connection
        // admitted after this sees the flag before it reads a frame.
        self.tracker.force_close_all();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}
impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long a shed connection is drained, in total, after its
/// `Overloaded` frame.
const SHED_DRAIN: Duration = Duration::from_millis(250);

/// Best-effort `Overloaded` answer on a connection that will not be
/// served, then close. Runs on its own thread in the accept thread's
/// scope, so the accept loop never blocks on a shed peer and shutdown
/// joins it. After the frame the thread half-closes and drains the peer's
/// input for at most [`SHED_DRAIN`] in all, so the close doesn't turn into
/// an RST that destroys the error frame before the peer reads it (closing
/// a socket with unread inbound data resets the connection), and a peer
/// that keeps writing cannot hold the thread.
fn shed_connection(conn: TcpStream, write_timeout: Option<Duration>, why: &'static str) {
    let _ = conn.set_write_timeout(write_timeout.or(Some(Duration::from_secs(1))));
    let resp = Response::Error {
        code: ErrorCode::Overloaded,
        message: why.to_string(),
    };
    let mut writer = &conn;
    if write_frame(&mut writer, 0, &resp.encode()).is_err() {
        return;
    }
    let _ = conn.shutdown(Shutdown::Write);
    let deadline = Instant::now() + SHED_DRAIN;
    let mut sink = [0u8; 4096];
    let mut reader = &conn;
    loop {
        // A zero timeout is rejected, so a spent deadline ends the drain.
        let left = deadline.saturating_duration_since(Instant::now());
        if conn.set_read_timeout(Some(left)).is_err()
            || !matches!(io::Read::read(&mut reader, &mut sink), Ok(n) if n > 0)
        {
            return;
        }
    }
}

/// Decode, dispatch, and budget-check one request. The budget covers
/// everything the server does once the frame has been read.
fn process_request(payload: &[u8], ctx: &ConnCtx) -> Response {
    let started = Instant::now();
    let mut resp = match Request::decode(payload) {
        Ok(req) => crate::handle_request(&ctx.registry, &req),
        // Framing stays intact on a malformed *payload* — only this
        // request is poisoned — so answer and keep the connection.
        Err(code) => Response::Error {
            code,
            message: match code {
                ErrorCode::UnknownOpcode => "unknown request opcode".into(),
                _ => "malformed request payload".into(),
            },
        },
    };
    if let Some(budget) = ctx.config.request_budget {
        let spent = started.elapsed();
        if spent > budget {
            resp = Response::Error {
                code: ErrorCode::Timeout,
                message: format!(
                    "request exceeded its {}ms budget (took {}ms)",
                    budget.as_millis(),
                    spent.as_millis()
                ),
            };
        }
    }
    resp
}

/// Answer a frame-read failure (best effort); the connection is over
/// either way. The failed frame's id was never read, so the answer is
/// tagged with id 0; the client takes it as the answer to its oldest
/// unanswered request.
fn answer_read_error(err: FrameError, writer: &mut impl Write) {
    match err {
        FrameError::Closed | FrameError::Truncated | FrameError::Io(_) => {}
        FrameError::TimedOut { mid_frame } => {
            // Disconnect either way — the deadline is how a stalled
            // client gives up its connection slot. A peer that went
            // quiet mid-frame can still be reading, so tell it why.
            if mid_frame {
                let resp = Response::Error {
                    code: ErrorCode::Timeout,
                    message: "read deadline expired mid-frame".into(),
                };
                let _ = write_frame(writer, 0, &resp.encode());
            }
        }
        FrameError::TooLarge(n) => {
            // The announced body was never read, so the stream is out
            // of sync: answer with a structured error, then close.
            let resp = Response::Error {
                code: ErrorCode::FrameTooLarge,
                message: format!("declared frame of {n} bytes exceeds the cap"),
            };
            let _ = write_frame(writer, 0, &resp.encode());
        }
    }
}

/// Run one admitted connection to completion, then free its slot: read a
/// frame, answer it under the request's id, repeat, in arrival order. The
/// loop ends when a read or write fails (deadlines included) or the
/// server drains; a request already read still finishes.
fn serve_connection(conn: TcpStream, _slot: Slot<'_>, ctx: &ConnCtx) {
    if conn.set_read_timeout(ctx.config.read_timeout).is_err()
        || conn.set_write_timeout(ctx.config.write_timeout).is_err()
    {
        return;
    }
    let mut reader = BufReader::new(&conn);
    let mut writer = &conn;
    while !ctx.shutdown.load(Ordering::SeqCst) {
        let (req_id, payload) = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(e) => return answer_read_error(e, &mut writer),
        };
        let resp = process_request(&payload, ctx);
        if write_frame(&mut writer, req_id, &resp.encode()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, FaultPlan, FaultProxy, RegistryConfig};

    #[test]
    fn every_service_socket_disables_nagle() {
        let registry = Arc::new(EmbeddingRegistry::new(RegistryConfig::default()));
        let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let proxy = FaultProxy::spawn(server.addr(), FaultPlan::calm(0)).unwrap();
        let mut direct = Client::connect(server.addr()).unwrap();
        let mut proxied = Client::connect(proxy.addr()).unwrap();
        // A completed round trip means the server has admitted each
        // connection.
        direct.stats().unwrap();
        proxied.stats().unwrap();

        assert!(direct.socket().nodelay().unwrap());
        assert!(proxied.socket().nodelay().unwrap());
        let accepted = server.tracker.conns.lock().unwrap();
        assert_eq!(accepted.len(), 2, "direct client + proxy upstream leg");
        assert!(accepted.values().all(|c| c.nodelay().unwrap()));
        let legs = proxy.sockets();
        assert_eq!(legs.len(), 2, "downstream + upstream leg");
        assert!(legs.iter().all(|c| c.nodelay().unwrap()));
    }
}
