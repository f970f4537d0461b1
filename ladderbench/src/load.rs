//! The closed-loop client: one thread per persistent connection, each
//! sending its next request only after the previous response arrived.

use crate::fleet::Conn;
use crate::workload::{cold_request, Workload, CORPUS_SIZE};
use std::borrow::Cow;
use std::net::SocketAddr;
use std::time::Instant;

/// What the connections send.
pub enum Traffic {
    /// Fresh requests from the generator; connection `c` draws stream
    /// `streams[c]`.
    Cold {
        /// `cold-sdp` or `cold-sampling`.
        workload: Workload,
        /// Workload seed.
        seed: u64,
        /// Generator stream per connection.
        streams: Vec<u64>,
    },
    /// The warm corpus, cycled; every body must equal its reference.
    Warm {
        /// Request bytes per corpus entry.
        bytes: Vec<Vec<u8>>,
        /// The body each entry answered during warm-up.
        reference: Vec<String>,
    },
}

impl Traffic {
    /// Which corpus entry connection `conn` sends at position `index`
    /// (the two connections start half a corpus apart).
    pub fn corpus_entry(conn: usize, index: u64) -> usize {
        (index as usize + conn * CORPUS_SIZE / 2) % CORPUS_SIZE
    }

    fn bytes(&self, conn: usize, index: u64) -> Cow<'_, [u8]> {
        match self {
            Traffic::Cold {
                workload,
                seed,
                streams,
            } => Cow::Owned(cold_request(*workload, *seed, streams[conn], index).http_bytes()),
            Traffic::Warm { bytes, .. } => {
                Cow::Borrowed(&bytes[Traffic::corpus_entry(conn, index)])
            }
        }
    }
}

/// One attempted request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Client-observed latency, ms.
    pub latency_ms: f64,
    /// When it completed, seconds since the loop started.
    pub completed_s: f64,
    /// Whether it was answered 200.
    pub ok: bool,
}

/// One connection's record of a loop.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Every attempted request.
    pub samples: Vec<Sample>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests answered 200 (before any body check).
    pub ok: u64,
    /// Failed requests: transport errors, non-200s, and (warm) bodies
    /// that differ from their reference.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// `(index, body)` of every 200 on a cold stream, kept for checking
    /// after the loop.
    pub bodies: Vec<(u64, String)>,
}

impl ConnLog {
    /// Records a failure (keeping the first few descriptions).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// Drives every connection in `conns` until `stop()` holds, then returns
/// each connection's log. A connection that breaks is reopened to
/// `addr` and the failed request counted.
pub fn run(
    conns: &mut [Conn],
    addr: SocketAddr,
    traffic: &Traffic,
    stop: &(dyn Fn() -> bool + Sync),
) -> Vec<ConnLog> {
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| scope.spawn(move || drive(c, conn, addr, traffic, stop, origin)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    })
}

fn drive(
    c: usize,
    conn: &mut Conn,
    addr: SocketAddr,
    traffic: &Traffic,
    stop: &(dyn Fn() -> bool + Sync),
    origin: Instant,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut index = 0u64;
    while !stop() {
        let bytes = traffic.bytes(c, index);
        let started = Instant::now();
        let result = conn.roundtrip(&bytes);
        log.samples.push(Sample {
            latency_ms: started.elapsed().as_secs_f64() * 1e3,
            completed_s: origin.elapsed().as_secs_f64(),
            ok: matches!(&result, Ok(r) if r.status == 200),
        });
        log.attempted += 1;
        match result {
            Ok(response) if response.status == 200 => {
                log.ok += 1;
                match traffic {
                    Traffic::Cold { .. } => log.bodies.push((index, response.body)),
                    Traffic::Warm { reference, .. } => {
                        let entry = Traffic::corpus_entry(c, index);
                        if response.body != reference[entry] {
                            log.fail(format!("warm entry {entry} on connection {c} differs from its warm-up body"));
                        }
                    }
                }
            }
            Ok(response) => log.fail(format!(
                "status {} on request {index}: {}",
                response.status, response.body
            )),
            Err(e) => {
                log.fail(format!("transport error on request {index}: {e}"));
                match Conn::open(addr) {
                    Ok(fresh) => *conn = fresh,
                    Err(e) => {
                        log.errors.push(format!("cannot reconnect: {e}"));
                        break;
                    }
                }
            }
        }
        index += 1;
    }
    log
}
