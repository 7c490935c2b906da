//! `std`-only TCP server: one accept thread plus a bounded worker pool,
//! hardened against hostile and slow peers.
//!
//! Connections are accepted on a dedicated thread and pushed onto a
//! `Mutex<VecDeque<TcpStream>>`; `workers` pool threads pop connections
//! and run each one to completion (connection-per-worker). A connection
//! that only ever sends request id 0 is served in the legacy strict
//! request/response lockstep. The first nonzero request id switches the
//! connection into **pipelined mode**: the worker becomes a frame reader
//! feeding a bounded in-connection task queue, a small scoped executor
//! pool ([`ServerConfig::pipeline_executors`]) handles requests
//! concurrently, and responses are written — each tagged with its
//! request's id — in **completion order**, not arrival order. The task
//! queue is bounded at [`ServerConfig::max_inflight`]; when a client
//! overruns it, the reader simply stops reading and TCP backpressure does
//! the rest.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::proto::{read_frame, write_frame, ErrorCode, FrameError, Request, Response};
use crate::registry::EmbeddingRegistry;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads serving connections (minimum 1).
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
    /// Executor threads spawned for a connection once it enters pipelined
    /// mode (first nonzero request id). At least 2 are needed for
    /// out-of-order completion to be observable; minimum 1.
    pub pipeline_executors: usize,
    /// Bound on a pipelined connection's queued-but-unstarted requests.
    /// When full, the reader stops pulling frames until an executor
    /// drains one — backpressure via TCP, never an unbounded buffer.
    pub max_inflight: usize,
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
            pipeline_executors: 4,
            max_inflight: 32,
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

/// Decode, dispatch, and budget-check one request. `started` is the frame
/// arrival time, so a pipelined request's queueing delay counts against
/// its budget too.
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

/// Answer a frame-read failure (best effort) and report whether the
/// connection is over. Connection-level failures are tagged with id 0 —
/// on a pipelined connection that marks them as fatal to the whole
/// connection rather than to any one request.
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

/// Run one connection to completion, bounded by the configured deadlines
/// and the drain flag. Starts in the legacy strict request/response loop;
/// the first nonzero request id hands the connection to
/// [`serve_pipelined`] for out-of-order completion.
fn serve_connection(mut conn: TcpStream, ctx: &WorkerCtx) {
    if conn.set_read_timeout(ctx.config.read_timeout).is_err()
        || conn.set_write_timeout(ctx.config.write_timeout).is_err()
    {
        return;
    }
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let id = ctx.tracker.register(&conn);
    let mut reader = BufReader::new(read_half);
    loop {
        let (req_id, payload) = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(e) => {
                answer_read_error(e, &mut conn);
                break;
            }
        };
        let started = Instant::now();
        if req_id != 0 {
            // The peer pipelines. Hand the whole connection over, first
            // frame included; serve_pipelined runs it to completion.
            serve_pipelined((req_id, payload, started), reader, conn, ctx);
            ctx.tracker.unregister(id);
            return;
        }
        let resp = process_request(&payload, started, ctx);
        if write_frame(&mut conn, 0, &resp.encode()).is_err() {
            break;
        }
        // Draining: finish the in-flight request (just answered), then
        // close instead of waiting for another.
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    ctx.tracker.unregister(id);
}

/// One queued pipelined frame: request id, payload, arrival instant
/// (queue time counts against the request budget).
type PipeTask = (u32, Vec<u8>, Instant);

/// A pipelined connection's task queue: frames in arrival order, a done
/// flag set when the reader stops, and two condvars — `ready` wakes
/// executors, `space` wakes the reader when the bounded queue drains.
struct PipeQueue {
    tasks: Mutex<(VecDeque<PipeTask>, bool)>,
    ready: Condvar,
    space: Condvar,
}

/// Pipelined mode: this thread keeps reading frames into a bounded queue
/// while scoped executors dispatch them and write responses — tagged with
/// their request ids — in completion order. An executor failing to write
/// (peer gone) flips `dead` so the reader stops promptly.
fn serve_pipelined(
    first: PipeTask,
    mut reader: BufReader<TcpStream>,
    conn: TcpStream,
    ctx: &WorkerCtx,
) {
    let queue = PipeQueue {
        tasks: Mutex::new((VecDeque::from([first]), false)),
        ready: Condvar::new(),
        space: Condvar::new(),
    };
    let writer = Mutex::new(conn);
    let dead = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..ctx.config.pipeline_executors.max(1) {
            scope.spawn(|| loop {
                let task = {
                    let mut guard = queue.tasks.lock().unwrap();
                    loop {
                        if let Some(task) = guard.0.pop_front() {
                            queue.space.notify_one();
                            break Some(task);
                        }
                        if guard.1 {
                            break None;
                        }
                        guard = queue.ready.wait(guard).unwrap();
                    }
                };
                let Some((req_id, payload, started)) = task else {
                    return;
                };
                let resp = process_request(&payload, started, ctx);
                let mut w = writer.lock().unwrap();
                if write_frame(&mut *w, req_id, &resp.encode()).is_err() {
                    dead.store(true, Ordering::SeqCst);
                    return;
                }
            });
        }
        // Reader loop (this thread). The first frame is already queued.
        loop {
            if dead.load(Ordering::SeqCst) || ctx.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let frame = read_frame(&mut reader);
            match frame {
                Ok((req_id, payload)) => {
                    let started = Instant::now();
                    let mut guard = queue.tasks.lock().unwrap();
                    while guard.0.len() >= ctx.config.max_inflight.max(1) {
                        guard = queue.space.wait(guard).unwrap();
                    }
                    guard.0.push_back((req_id, payload, started));
                    drop(guard);
                    queue.ready.notify_one();
                }
                Err(e) => {
                    let mut w = writer.lock().unwrap();
                    answer_read_error(e, &mut *w);
                    break;
                }
            }
        }
        // No more frames: let executors drain the queue and exit.
        queue.tasks.lock().unwrap().1 = true;
        queue.ready.notify_all();
    });
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
