//! `std`-only TCP server: one accept thread plus a bounded worker pool,
//! hardened against hostile and slow peers.
//!
//! Connections are accepted on a dedicated thread and pushed onto a
//! `Mutex<VecDeque<TcpStream>>`; `workers` pool threads pop connections
//! and run each one to completion (connection-per-worker). Every
//! connection is served by one leader/follower loop: the threads serving
//! it share the read half and the write half, and whichever thread holds
//! the reader reads the next frame. An id-0 frame is answered before that
//! thread lets go of the reader, so the legacy lane is strict
//! request/response lockstep. A nonzero id releases the reader first, so
//! another thread reads on while the request runs and responses — each
//! tagged with its request's id — go out in **completion order**. The
//! second thread is spawned only when a tagged frame releases the reader
//! and no thread is waiting for it, and a connection never has more than
//! four threads, the pool worker included. A frame that no thread is free
//! to read stays in the socket's receive buffer, so a client that
//! overruns the connection is held back by TCP.
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
//!   so a stalled client can pin a worker for at most one read deadline:
//!   an idle peer is closed silently, one that went quiet mid-frame gets a
//!   best-effort `Timeout` error frame first.
//! * Each request has a **time budget**
//!   ([`ServerConfig::request_budget`]); a response produced after the
//!   budget is replaced by a `Timeout` error (a blocking engine call
//!   cannot be interrupted, so the budget is enforced at response time).
//! * The accept queue is **bounded** ([`ServerConfig::max_queued`]):
//!   excess connections are answered immediately with an `Overloaded`
//!   error frame and closed — shed, not queued. Sheds are counted on
//!   [`ServerHandle::shed_count`].
//! * **Shutdown drains**: stop accepting, shed the queued backlog, let
//!   in-flight requests finish up to [`ServerConfig::drain_deadline`],
//!   then force-close the remaining sockets and join every thread.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

use crate::proto::{read_frame, write_frame, ErrorCode, FrameError, Request, Response};
use crate::registry::EmbeddingRegistry;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Pool threads, each serving one connection at a time (minimum 1).
    /// A connection that sends tagged requests gets up to three more
    /// threads of its own while it lasts (see the module docs).
    pub workers: usize,
    /// Per-connection read deadline. A peer that sends nothing for this
    /// long is disconnected (silently when idle between requests, with a
    /// `Timeout` error frame when it stalled mid-frame). `None` disables
    /// the deadline — a stalled client then pins its worker indefinitely,
    /// and drain can only finish by force-closing the socket.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline; bounds how long a non-reading peer
    /// can block a response (or shed notice) being written.
    pub write_timeout: Option<Duration>,
    /// Per-request time budget. A request whose handling exceeds it is
    /// answered with a `Timeout` error instead of the late result.
    /// `None` disables the budget.
    pub request_budget: Option<Duration>,
    /// Accept-queue bound: when this many connections are already queued
    /// waiting for a worker, new connections are shed (answered with an
    /// `Overloaded` error frame and closed) instead of queued.
    pub max_queued: usize,
    /// How long shutdown waits for in-flight connections to finish before
    /// force-closing their sockets.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            request_budget: Some(Duration::from_secs(10)),
            max_queued: 64,
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
    queue: Arc<ConnQueue>,
    tracker: Arc<ConnTracker>,
    shed: Arc<AtomicU64>,
    drain_deadline: Duration,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

struct ConnQueue {
    deque: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// Clones of the sockets workers are currently serving, so shutdown can
/// force-close stragglers once the drain deadline passes.
struct ConnTracker {
    conns: Mutex<HashMap<u64, TcpStream>>,
    next: AtomicU64,
}

impl ConnTracker {
    fn register(&self, conn: &TcpStream) -> Option<u64> {
        let clone = conn.try_clone().ok()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.conns.lock().unwrap().insert(id, clone);
        Some(id)
    }

    fn unregister(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.conns.lock().unwrap().remove(&id);
        }
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

/// Everything a worker needs to serve connections.
struct WorkerCtx {
    registry: Arc<EmbeddingRegistry>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    tracker: Arc<ConnTracker>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `registry` with `config.workers` pool threads.
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
        let queue = Arc::new(ConnQueue {
            deque: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        let tracker = Arc::new(ConnTracker {
            conns: Mutex::new(HashMap::new()),
            next: AtomicU64::new(0),
        });
        let shed = Arc::new(AtomicU64::new(0));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            let shed = Arc::clone(&shed);
            let max_queued = config.max_queued;
            let write_timeout = config.write_timeout;
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    // Every write is a whole frame (see `write_frame`), so
                    // Nagle has nothing to coalesce and could only delay.
                    let _ = conn.set_nodelay(true);
                    let backlog = {
                        let mut q = queue.deque.lock().unwrap();
                        if q.len() < max_queued {
                            q.push_back(conn);
                            None
                        } else {
                            Some(conn)
                        }
                    };
                    match backlog {
                        None => queue.ready.notify_one(),
                        Some(conn) => {
                            // Queue full: shed. Answered outside the queue
                            // lock; the write deadline bounds how long a
                            // non-reading peer can stall the accept loop.
                            shed.fetch_add(1, Ordering::Relaxed);
                            shed_connection(conn, write_timeout, "accept queue full");
                        }
                    }
                }
            })
        };

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let ctx = WorkerCtx {
                    registry: Arc::clone(&registry),
                    config: config.clone(),
                    shutdown: Arc::clone(&shutdown),
                    tracker: Arc::clone(&tracker),
                };
                std::thread::spawn(move || loop {
                    let conn = {
                        let mut q = queue.deque.lock().unwrap();
                        loop {
                            if ctx.shutdown.load(Ordering::SeqCst) {
                                break None;
                            }
                            if let Some(conn) = q.pop_front() {
                                break Some(conn);
                            }
                            q = queue.ready.wait(q).unwrap();
                        }
                    };
                    match conn {
                        Some(conn) => serve_connection(conn, &ctx),
                        None => return,
                    }
                })
            })
            .collect();

        Ok(ServerHandle {
            addr,
            shutdown,
            queue,
            tracker,
            shed,
            drain_deadline: config.drain_deadline,
            accept: Some(accept),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections shed so far (answered `Overloaded` because the accept
    /// queue was full, plus any backlog shed during shutdown).
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, shed the queued backlog, let
    /// in-flight requests finish up to the drain deadline, force-close
    /// whatever remains, then join all threads. Idempotent; also invoked
    /// by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop: it only re-checks the flag per incoming
        // connection, so hand it one.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Nobody will serve the queued backlog anymore — shed it rather
        // than leaving the peers to hit their own read deadlines.
        let backlog: Vec<TcpStream> = self.queue.deque.lock().unwrap().drain(..).collect();
        for conn in backlog {
            self.shed.fetch_add(1, Ordering::Relaxed);
            shed_connection(conn, Some(Duration::from_millis(200)), "server draining");
        }
        // Take and release the queue lock before notifying: a worker that
        // loaded shutdown==false is either still holding the lock (it will
        // reach wait() before we can acquire, so the notify lands) or
        // already waiting — either way no wakeup is missed.
        drop(self.queue.deque.lock().unwrap());
        self.queue.ready.notify_all();
        // Drain: in-flight connections close themselves after their current
        // request (workers re-check the flag per request, and read
        // deadlines bound the wait for a next request that never comes).
        let deadline = Instant::now() + self.drain_deadline;
        while self.tracker.active() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Past the deadline: force-close the stragglers' sockets so their
        // workers' blocking reads/writes fail and the threads exit.
        self.tracker.force_close_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Best-effort `Overloaded` answer on a connection that will not be
/// served, then close. Runs on a short-lived detached thread so the
/// accept loop never blocks on a shed peer; the thread half-closes and
/// then drains briefly so the close doesn't turn into an RST that
/// destroys the error frame before the peer reads it (closing a socket
/// with unread inbound data resets the connection).
fn shed_connection(conn: TcpStream, write_timeout: Option<Duration>, why: &'static str) {
    std::thread::spawn(move || {
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
        let _ = conn.set_read_timeout(Some(Duration::from_millis(250)));
        let mut sink = [0u8; 4096];
        let mut reader = &conn;
        while matches!(io::Read::read(&mut reader, &mut sink), Ok(n) if n > 0) {}
    });
}

/// Decode, dispatch, and budget-check one request. `started` is when the
/// frame was read: the budget covers everything the server does after it.
fn process_request(payload: &[u8], started: Instant, ctx: &WorkerCtx) -> Response {
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
/// either way. Connection-level failures are tagged with id 0, which
/// marks them as fatal to the whole connection rather than to any one
/// request.
fn answer_read_error(err: FrameError, writer: &mut impl Write) {
    match err {
        FrameError::Closed | FrameError::Truncated | FrameError::Io(_) => {}
        FrameError::TimedOut { mid_frame } => {
            // Disconnect either way — the deadline is how a stalled
            // client's worker returns to the pool. A peer that went
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

/// Most threads that serve one connection at once, the pool worker
/// included. A tagged frame that arrives while all of them are busy stays
/// unread in the socket's receive buffer: backpressure comes from TCP.
const CONN_THREADS: usize = 4;

/// What the threads serving one connection share. Whichever thread holds
/// `reader` reads the next frame; every response goes out whole through
/// `writer`.
struct ConnState {
    reader: Mutex<BufReader<TcpStream>>,
    writer: Mutex<TcpStream>,
    /// Threads serving the connection, at most [`CONN_THREADS`].
    threads: AtomicUsize,
    /// Threads blocked waiting for the reader.
    waiting: AtomicUsize,
    /// Set when the connection is over (a read or write failed); each
    /// thread exits the next time it takes the reader.
    done: AtomicBool,
}

/// Run one connection to completion, bounded by the configured deadlines
/// and the drain flag. The pool worker serves frames itself and brings in
/// followers (see [`serve_frames`]) only when the peer pipelines.
fn serve_connection(conn: TcpStream, ctx: &WorkerCtx) {
    if conn.set_read_timeout(ctx.config.read_timeout).is_err()
        || conn.set_write_timeout(ctx.config.write_timeout).is_err()
    {
        return;
    }
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let id = ctx.tracker.register(&conn);
    let state = ConnState {
        reader: Mutex::new(BufReader::new(read_half)),
        writer: Mutex::new(conn),
        threads: AtomicUsize::new(1),
        waiting: AtomicUsize::new(0),
        done: AtomicBool::new(false),
    };
    std::thread::scope(|scope| serve_frames(scope, &state, ctx));
    ctx.tracker.unregister(id);
}

/// One thread of a connection's leader/follower group: take the reader,
/// read a frame, serve it, repeat. An id-0 frame is served while this
/// thread still holds the reader, so the legacy lane stays in strict
/// lockstep. A nonzero id releases the reader first, so another thread
/// reads on and tagged responses complete out of order.
fn serve_frames<'scope>(
    scope: &'scope Scope<'scope, '_>,
    state: &'scope ConnState,
    ctx: &'scope WorkerCtx,
) {
    loop {
        state.waiting.fetch_add(1, Ordering::SeqCst);
        let mut reader = state.reader.lock().unwrap();
        state.waiting.fetch_sub(1, Ordering::SeqCst);
        // Over or draining: requests already read still finish, but no
        // new frame is read.
        if state.done.load(Ordering::SeqCst) || ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (req_id, payload) = match read_frame(&mut *reader) {
            Ok(frame) => frame,
            Err(e) => {
                state.done.store(true, Ordering::SeqCst);
                answer_read_error(e, &mut *state.writer.lock().unwrap());
                return;
            }
        };
        let started = Instant::now();
        // Id 0 keeps the reader until it is answered: strict lockstep. A
        // tagged request lets go of it first, so the next frame is read
        // while this one runs.
        let _lockstep = if req_id == 0 {
            Some(reader)
        } else {
            // While the reader is held no thread stops waiting for it, so
            // zero means no thread is there to pick it up next.
            let follow = state.waiting.load(Ordering::SeqCst) == 0 && reserve_thread(state);
            drop(reader);
            if follow {
                spawn_follower(scope, state, ctx);
            }
            // Let the thread that takes the reader run now: it only takes
            // it and blocks waiting for the next frame. Left to run later,
            // it preempts this request midway; on one CPU that cost
            // migrate-docs 16-19% at p90 (EXPERIMENTS.md).
            std::thread::yield_now();
            None
        };
        let resp = process_request(&payload, started, ctx);
        if write_frame(&mut *state.writer.lock().unwrap(), req_id, &resp.encode()).is_err() {
            state.done.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Count one more thread for the connection, unless it is at
/// [`CONN_THREADS`].
fn reserve_thread(state: &ConnState) -> bool {
    state
        .threads
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < CONN_THREADS).then_some(n + 1)
        })
        .is_ok()
}

/// Start a follower for a slot taken with [`reserve_thread`], giving the
/// slot back if the thread cannot be spawned.
fn spawn_follower<'scope>(
    scope: &'scope Scope<'scope, '_>,
    state: &'scope ConnState,
    ctx: &'scope WorkerCtx,
) {
    let spawned =
        std::thread::Builder::new().spawn_scoped(scope, || serve_frames(scope, state, ctx));
    if spawned.is_err() {
        state.threads.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, FaultPlan, FaultProxy, RegistryConfig};

    #[test]
    fn every_service_socket_disables_nagle() {
        let registry = Arc::new(EmbeddingRegistry::new(RegistryConfig::default()));
        let config = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", registry, config).unwrap();
        let proxy = FaultProxy::spawn(server.addr(), FaultPlan::calm(0)).unwrap();
        let mut direct = Client::connect(server.addr()).unwrap();
        let mut proxied = Client::connect(proxy.addr()).unwrap();
        // A completed round trip means a worker has registered the
        // server side of each connection.
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
