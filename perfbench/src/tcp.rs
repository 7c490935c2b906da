//! The closed loop both TCP workloads share: one load thread per
//! connection, one request outstanding on each. A traced request is sent
//! over the wire (`wire.call`) and then replayed in-process (`replay`),
//! and the replayed answer is judged like the served one.
//!
//! In the traced phase the lanes take turns: each holds a lock shared by
//! all lanes from just before its `wire.call` until its replay returns.
//! On one CPU a lane blocked in `wire.call` would otherwise also be timing
//! the other lane's replay and server work, and `wire.overhead_us` would
//! measure the benchmark's own replays rather than the wire.

use std::net::SocketAddr;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use xse_service::{EmbeddingRegistry, Request, Response, ServiceError};

use crate::replay::replay;
use crate::trace::Tracer;
use crate::{Phase, Tally, TraceMode};

/// A workload served over TCP: its connections and its op sequence.
pub trait Served: Sync {
    type Client: Send;

    /// One connection per load thread.
    fn clients(&self) -> &[Mutex<Self::Client>];
    /// The registry behind the server, for the in-process replay.
    fn registry(&self) -> &EmbeddingRegistry;
    fn addr(&self) -> SocketAddr;
    fn connect(addr: SocketAddr) -> Result<Self::Client, ServiceError>;
    /// Send one request and wait for its response.
    fn call(client: &mut Self::Client, req: &Request) -> Result<Response, ServiceError>;
    /// Where `lane` starts in the op sequence.
    fn first_op(&self, lane: usize) -> usize;
    /// The request of op `op` (wrapping around the sequence).
    fn request(&self, op: usize) -> &Request;
    /// Count `resp` as a failure of op `op` unless it is the reference
    /// answer.
    fn judge(&self, op: usize, tally: &mut Tally, resp: &Response);
}

/// Drive every connection of `w` for `budget`.
pub fn drive<W: Served>(w: &W, budget: Duration, trace: Option<TraceMode>) -> Phase {
    let start = Instant::now();
    let lanes = w.clients().len();
    let turn = Mutex::new(());
    let turn = &turn;
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| s.spawn(move || drive_lane(w, lane, start, budget, trace, turn)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Phase::merge(parts)
}

fn drive_lane<W: Served>(
    w: &W,
    lane: usize,
    start: Instant,
    budget: Duration,
    trace: Option<TraceMode>,
    turn: &Mutex<()>,
) -> Phase {
    let mut client = w.clients()[lane]
        .lock()
        .expect("one load thread per client");
    let lanes = w.clients().len();
    let mut tracer = trace.map(|m| Tracer::new(m.epoch, m.cap / lanes));
    let mut phase = Phase::new(start, budget);
    let deadline = start + budget;
    let mut op = w.first_op(lane);
    while Instant::now() < deadline && !tracer.as_ref().is_some_and(Tracer::full) {
        let req = w.request(op);
        phase.tally.attempted += 1;
        let result = match &mut tracer {
            None => {
                let t0 = Instant::now();
                let r = W::call(&mut client, req);
                phase.record(t0, Instant::now());
                r
            }
            Some(tr) => {
                let _turn = turn.lock().unwrap_or_else(PoisonError::into_inner);
                tr.set_request(((lane as u64) << 40) | phase.tally.attempted);
                tr.enter("request");
                let t0 = Instant::now();
                let r = tr.span("wire.call", || W::call(&mut client, req));
                phase.record(t0, Instant::now());
                tr.enter("replay");
                let (replayed, sizes) = replay(tr, w.registry(), req);
                tr.exit();
                tr.exit();
                phase.request_bytes.push(sizes.request);
                phase.response_bytes.push(sizes.response);
                // The replay must agree with the reference too.
                let mut replay_tally = Tally::default();
                w.judge(op, &mut replay_tally, &replayed);
                phase.tally.wrong += replay_tally.failed();
                r
            }
        };
        match result {
            Ok(resp) => w.judge(op, &mut phase.tally, &resp),
            Err(e) => {
                phase.tally.service_error(&e);
                match W::connect(w.addr()) {
                    Ok(fresh) => *client = fresh,
                    Err(_) => break,
                }
            }
        }
        op += 1;
    }
    phase.finish(tracer)
}
