//! Deterministic fault injection for the serving stack.
//!
//! [`FaultProxy`] is an in-process chaos TCP proxy: it listens on an
//! ephemeral loopback port, forwards length-prefixed frames to an
//! upstream server, and injects faults — delays, connection resets,
//! mid-frame truncations, corrupted bytes — according to a seeded
//! [`FaultPlan`].
//!
//! # Determinism
//!
//! Whether frame `f` of connection `c` in direction `d` is faulted is a
//! *pure function* [`FaultPlan::decide`]`(d, c, f)` of the plan — a fresh
//! RNG is seeded from `(seed, d, c, f)` per decision, so the injected
//! fault sequence is independent of thread scheduling and socket timing.
//! Two runs with the same plan and the same frame traffic see the same
//! faults; tests can precompute the decision grid without running any
//! traffic at all.
//!
//! # Corruption is detectable by construction
//!
//! [`FaultAction::CorruptOpcode`] XORs the frame's first payload byte
//! (the opcode) with `0x40`. Every assigned opcode maps to an unassigned
//! one (requests `0x01..=0x06` → `0x41..=0x46`, responses
//! `0x81..=0x85` → `0xC1..=0xC5`, error `0xFF` → `0xBF`), so a corrupted
//! frame can never decode as a *different valid message* — the server
//! answers `unknown opcode`, the client sees an undecodable response.
//! That makes "no misdecoded successes under chaos" checkable: any
//! decodable frame that transits the proxy is authentic.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which way a frame was travelling when it was faulted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Request path: downstream client → upstream server.
    ClientToServer,
    /// Response path: upstream server → downstream client.
    ServerToClient,
}

impl Direction {
    fn lane(self) -> u64 {
        match self {
            Direction::ClientToServer => 0,
            Direction::ServerToClient => 1,
        }
    }
}

/// What the proxy does to one frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// Forward untouched.
    Pass,
    /// Forward after sleeping.
    Delay(Duration),
    /// Drop the frame and reset the connection (both halves).
    Reset,
    /// Forward the header and the first half of the payload, then reset —
    /// the receiver observes a frame truncated mid-payload.
    Truncate,
    /// Forward with the opcode byte XORed by `0x40` (see the module docs:
    /// the result is never a valid message of another kind).
    CorruptOpcode,
}

/// A seeded, deterministic chaos schedule. Probabilities are per-frame,
/// in permille (`0..=1000`), checked in a fixed order: reset, truncate,
/// corrupt, delay.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed for every per-frame decision.
    pub seed: u64,
    /// ‰ of frames dropped with a connection reset.
    pub reset_per_mille: u32,
    /// ‰ of frames truncated mid-payload (then reset).
    pub truncate_per_mille: u32,
    /// ‰ of frames with the opcode byte corrupted.
    pub corrupt_per_mille: u32,
    /// ‰ of frames delayed by [`FaultPlan::delay`].
    pub delay_per_mille: u32,
    /// How long a delayed frame is held.
    pub delay: Duration,
    /// Connections with id below this reset on their first request frame,
    /// regardless of the probabilities — a deterministic way to make the
    /// first N connections fail, for retry-convergence tests.
    pub break_first_conns: u64,
}

impl FaultPlan {
    /// No faults at all: the proxy is a transparent frame relay.
    pub fn calm(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            reset_per_mille: 0,
            truncate_per_mille: 0,
            corrupt_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::ZERO,
            break_first_conns: 0,
        }
    }

    /// The standard chaos mix used by the loadgen `--chaos` mode and the
    /// CI smoke: ~2.5% resets, 1.5% truncations, 2.5% corruptions, 4%
    /// 20 ms delays.
    pub fn standard(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            reset_per_mille: 25,
            truncate_per_mille: 15,
            corrupt_per_mille: 25,
            delay_per_mille: 40,
            delay: Duration::from_millis(20),
            break_first_conns: 0,
        }
    }

    /// The fault for frame number `frame` (0-based, counted per
    /// connection per direction) of connection `conn` travelling in
    /// `direction`. Pure: depends only on the plan and the coordinates.
    pub fn decide(&self, direction: Direction, conn: u64, frame: u64) -> FaultAction {
        if direction == Direction::ClientToServer && frame == 0 && conn < self.break_first_conns {
            return FaultAction::Reset;
        }
        // Mix the coordinates into a per-decision seed; the odd constants
        // are the SplitMix64/xxHash increments, used purely to spread bits.
        let mixed = self.seed
            ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ frame.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ direction.lane().wrapping_mul(0x1656_67B1_9E37_79F9);
        let mut rng = StdRng::seed_from_u64(mixed);
        let roll: u32 = rng.random_range(0..1000);
        let mut bound = self.reset_per_mille;
        if roll < bound {
            return FaultAction::Reset;
        }
        bound += self.truncate_per_mille;
        if roll < bound {
            return FaultAction::Truncate;
        }
        bound += self.corrupt_per_mille;
        if roll < bound {
            return FaultAction::CorruptOpcode;
        }
        bound += self.delay_per_mille;
        if roll < bound {
            return FaultAction::Delay(self.delay);
        }
        FaultAction::Pass
    }
}

/// One injected fault, as recorded in the proxy's log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InjectedFault {
    /// Proxy-assigned connection id (accept order, from 0).
    pub conn: u64,
    /// Frame number within that connection and direction.
    pub frame: u64,
    /// The frame's direction.
    pub direction: Direction,
    /// What was done to it (never [`FaultAction::Pass`]).
    pub action: FaultAction,
}

/// Aggregate injected-fault counts, for reporting.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct FaultCounts {
    /// Connections reset (frame dropped).
    pub resets: u64,
    /// Frames truncated mid-payload.
    pub truncations: u64,
    /// Frames forwarded with a corrupted opcode.
    pub corruptions: u64,
    /// Frames delayed.
    pub delays: u64,
}

/// The chaos proxy. Construct with [`FaultProxy::spawn`].
pub struct FaultProxy;

struct Shared {
    plan: FaultPlan,
    upstream: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Clones of every live socket (both sides of every conn), force-shut
    /// on proxy shutdown so blocked pump reads unblock.
    socks: Mutex<Vec<TcpStream>>,
    log: Mutex<Vec<InjectedFault>>,
}

/// A running [`FaultProxy`]: address, fault log, explicit shutdown.
pub struct FaultProxyHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl FaultProxy {
    /// Bind an ephemeral loopback port and start proxying to `upstream`
    /// under `plan`.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> io::Result<FaultProxyHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            plan,
            upstream,
            stop: Arc::new(AtomicBool::new(false)),
            socks: Mutex::new(Vec::new()),
            log: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let next_conn = AtomicU64::new(0);
                let mut pumps = Vec::new();
                for conn in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(down) = conn else { continue };
                    let Ok(up) = TcpStream::connect(shared.upstream) else {
                        // Upstream gone: refuse by dropping the client.
                        continue;
                    };
                    // Frames are forwarded whole, one write each: no Nagle.
                    let _ = down.set_nodelay(true);
                    let _ = up.set_nodelay(true);
                    let id = next_conn.fetch_add(1, Ordering::Relaxed);
                    if let (Ok(d), Ok(u)) = (down.try_clone(), up.try_clone()) {
                        let mut socks = shared.socks.lock().unwrap();
                        socks.push(d);
                        socks.push(u);
                    }
                    let (Ok(down_r), Ok(up_r)) = (down.try_clone(), up.try_clone()) else {
                        continue;
                    };
                    let c2s = PumpEnds {
                        src: down_r,
                        dst: up.try_clone().ok(),
                        other: down.try_clone().ok(),
                    };
                    let s2c = PumpEnds {
                        src: up_r,
                        dst: down.try_clone().ok(),
                        other: up.try_clone().ok(),
                    };
                    drop((down, up));
                    for (dir, ends) in [
                        (Direction::ClientToServer, c2s),
                        (Direction::ServerToClient, s2c),
                    ] {
                        let shared = Arc::clone(&shared);
                        pumps.push(std::thread::spawn(move || {
                            pump(&shared, dir, id, ends);
                        }));
                    }
                }
                pumps
            })
        };
        Ok(FaultProxyHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

impl FaultProxyHandle {
    /// The proxy's listen address — point clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Both legs of every proxied connection (for socket-option tests).
    #[cfg(test)]
    pub(crate) fn sockets(&self) -> Vec<TcpStream> {
        let socks = self.shared.socks.lock().unwrap();
        socks.iter().filter_map(|s| s.try_clone().ok()).collect()
    }

    /// Snapshot of the injected-fault log, in injection order per pump.
    pub fn faults(&self) -> Vec<InjectedFault> {
        self.shared.log.lock().unwrap().clone()
    }

    /// Aggregate counts over [`FaultProxyHandle::faults`].
    pub fn fault_counts(&self) -> FaultCounts {
        let mut counts = FaultCounts::default();
        for f in self.shared.log.lock().unwrap().iter() {
            match f.action {
                FaultAction::Reset => counts.resets += 1,
                FaultAction::Truncate => counts.truncations += 1,
                FaultAction::CorruptOpcode => counts.corruptions += 1,
                FaultAction::Delay(_) => counts.delays += 1,
                FaultAction::Pass => {}
            }
        }
        counts
    }

    /// Stop accepting, sever every proxied connection, join all threads.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop (it re-checks the flag per connection).
        let _ = TcpStream::connect(self.addr);
        let pumps = self.accept.take().and_then(|h| h.join().ok());
        for sock in self.shared.socks.lock().unwrap().drain(..) {
            let _ = sock.shutdown(Shutdown::Both);
        }
        for pump in pumps.into_iter().flatten() {
            let _ = pump.join();
        }
    }
}

impl Drop for FaultProxyHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct PumpEnds {
    /// The side frames are read from.
    src: TcpStream,
    /// The side they are forwarded to.
    dst: Option<TcpStream>,
    /// A handle back to `src`'s socket for resets (shutting down `src`
    /// itself only closes our clone's direction bookkeeping, so keep an
    /// explicit clone to sever both halves).
    other: Option<TcpStream>,
}

/// Relay frames `src` → `dst`, injecting faults per the plan. Exits on
/// EOF, socket error, or an injected reset; severs both sides on exit so
/// the opposite pump (and the peers) observe the closure promptly.
fn pump(shared: &Shared, dir: Direction, conn: u64, ends: PumpEnds) {
    let PumpEnds {
        mut src,
        dst,
        other,
    } = ends;
    let Some(mut dst) = dst else { return };
    let mut frame = 0u64;
    loop {
        // 8-byte header: u32-BE payload length, then the u32 request id
        // (forwarded untouched — faults target the payload, so request-id
        // correlation survives corruption). Header and payload share one
        // buffer so whatever is forwarded goes out in a single write.
        let mut buf = vec![0u8; 8];
        if src.read_exact(&mut buf).is_err() {
            break;
        }
        let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
        buf.resize(8 + len, 0);
        if src.read_exact(&mut buf[8..]).is_err() {
            break;
        }
        let action = shared.plan.decide(dir, conn, frame);
        if action != FaultAction::Pass {
            shared.log.lock().unwrap().push(InjectedFault {
                conn,
                frame,
                direction: dir,
                action,
            });
        }
        frame += 1;
        match action {
            FaultAction::Pass => {}
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Reset => break,
            FaultAction::Truncate => {
                let _ = dst.write_all(&buf[..8 + len / 2]);
                break;
            }
            FaultAction::CorruptOpcode => {
                if let Some(op) = buf.get_mut(8) {
                    *op ^= 0x40;
                }
            }
        }
        if matches!(
            action,
            FaultAction::Pass | FaultAction::Delay(_) | FaultAction::CorruptOpcode
        ) && dst.write_all(&buf).is_err()
        {
            break;
        }
    }
    let _ = dst.shutdown(Shutdown::Both);
    if let Some(o) = other {
        let _ = o.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_deterministic_across_the_grid() {
        let plan = FaultPlan::standard(7);
        let replay = FaultPlan::standard(7);
        for conn in 0..8 {
            for frame in 0..64 {
                for dir in [Direction::ClientToServer, Direction::ServerToClient] {
                    assert_eq!(
                        plan.decide(dir, conn, frame),
                        replay.decide(dir, conn, frame),
                        "conn {conn} frame {frame} {dir:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn decide_mixes_every_coordinate() {
        // Different seeds, connections, frames, and directions must each
        // be able to change the outcome somewhere in a modest grid.
        let a = FaultPlan::standard(1);
        let b = FaultPlan::standard(2);
        let grid = || {
            (0..6).flat_map(|c| {
                (0..32).flat_map(move |f| {
                    [Direction::ClientToServer, Direction::ServerToClient].map(move |d| (d, c, f))
                })
            })
        };
        assert!(grid().any(|(d, c, f)| a.decide(d, c, f) != b.decide(d, c, f)));
        assert!(grid().any(|(d, c, f)| a.decide(d, c, f) != a.decide(d, c + 1, f)));
        assert!(grid().any(|(d, c, f)| a.decide(d, c, f) != a.decide(d, c, f + 1)));
        assert!((0..6).any(|c| {
            (0..32).any(|f| {
                a.decide(Direction::ClientToServer, c, f)
                    != a.decide(Direction::ServerToClient, c, f)
            })
        }));
    }

    #[test]
    fn standard_plan_rates_are_in_the_right_ballpark() {
        let plan = FaultPlan::standard(42);
        let mut counts = FaultCounts::default();
        let total = 10_000u64;
        for frame in 0..total {
            match plan.decide(Direction::ClientToServer, 0, frame) {
                FaultAction::Reset => counts.resets += 1,
                FaultAction::Truncate => counts.truncations += 1,
                FaultAction::CorruptOpcode => counts.corruptions += 1,
                FaultAction::Delay(_) => counts.delays += 1,
                FaultAction::Pass => {}
            }
        }
        // Expected ‰ over 10k draws: 25 / 15 / 25 / 40 → 250/150/250/400,
        // allow generous slack (the rolls are independent uniforms).
        assert!((125..500).contains(&counts.resets), "{counts:?}");
        assert!((60..320).contains(&counts.truncations), "{counts:?}");
        assert!((125..500).contains(&counts.corruptions), "{counts:?}");
        assert!((200..700).contains(&counts.delays), "{counts:?}");
        let faulted = counts.resets + counts.truncations + counts.corruptions + counts.delays;
        assert!(faulted < total / 5, "over 20% faulted: {counts:?}");
    }

    #[test]
    fn calm_plan_never_faults_and_break_first_conns_overrides() {
        let calm = FaultPlan::calm(3);
        for frame in 0..256 {
            assert_eq!(
                calm.decide(Direction::ServerToClient, 1, frame),
                FaultAction::Pass
            );
        }
        let breaking = FaultPlan {
            break_first_conns: 2,
            ..FaultPlan::calm(3)
        };
        assert_eq!(
            breaking.decide(Direction::ClientToServer, 0, 0),
            FaultAction::Reset
        );
        assert_eq!(
            breaking.decide(Direction::ClientToServer, 1, 0),
            FaultAction::Reset
        );
        // Conn 2 and later frames of broken conns are untouched.
        assert_eq!(
            breaking.decide(Direction::ClientToServer, 2, 0),
            FaultAction::Pass
        );
        assert_eq!(
            breaking.decide(Direction::ClientToServer, 0, 1),
            FaultAction::Pass
        );
        // The override applies to the request path only.
        assert_eq!(
            breaking.decide(Direction::ServerToClient, 0, 0),
            FaultAction::Pass
        );
    }

    #[test]
    fn corruption_xor_never_maps_an_opcode_onto_another_valid_one() {
        use crate::proto::{op, resp};
        let valid = [
            op::COMPILE,
            op::APPLY,
            op::INVERT,
            op::TRANSLATE,
            op::STATS,
            op::EVICT,
            resp::COMPILED,
            resp::DOCUMENT,
            resp::TRANSLATED,
            resp::STATS,
            resp::EVICTED,
            resp::ERROR,
        ];
        for &code in &valid {
            let corrupted = code ^ 0x40;
            assert!(
                !valid.contains(&corrupted),
                "{code:#04x} corrupts to valid {corrupted:#04x}"
            );
        }
    }
}
