//! The fleet under test (one `snc-router` in front of two `snc-server`
//! backends, spawned with `snc_server::process`), a keep-alive HTTP
//! client, and `/metrics` scraping.

use snc_router::{HashRing, DEFAULT_VNODES};
use snc_server::process::{spawn_listening, spawn_server, SpawnedProcess};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Backends behind the router.
pub const BACKENDS: usize = 2;

/// One response as the client saw it.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The server-measured time in the `x-snc-elapsed-us` header.
    pub elapsed_us: Option<u64>,
    /// The body.
    pub body: String,
}

/// A persistent keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr` with `TCP_NODELAY` and a generous read timeout
    /// (a cold solve can take a while under load).
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Writes `request` and reads one `Content-Length`-framed response.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Response> {
        self.writer.write_all(request)?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {line:?}"),
                )
            })?;
        let mut content_length = None;
        let mut elapsed_us = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated head",
                ));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => content_length = value.parse::<usize>().ok(),
                    "x-snc-elapsed-us" => elapsed_us = value.parse().ok(),
                    _ => {}
                }
            }
        }
        let length = content_length.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "response without Content-Length",
            )
        })?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
        Ok(Response {
            status,
            elapsed_us,
            body,
        })
    }

    /// `GET path` on this connection.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.roundtrip(format!("GET {path} HTTP/1.1\r\nHost: snc\r\n\r\n").as_bytes())
    }
}

/// A running fleet. Dropping it kills and reaps every process.
pub struct Fleet {
    // Field order is drop order: the router goes first, so it never
    // sees its backends vanish under live traffic.
    router: SpawnedProcess,
    backends: Vec<SpawnedProcess>,
    ring: HashRing,
}

impl Fleet {
    /// Spawns two `--threads 1` backends and a router in front of them
    /// (all on ephemeral ports, ready once each announced its address).
    pub fn spawn() -> Fleet {
        let backends: Vec<SpawnedProcess> = (0..BACKENDS)
            .map(|_| spawn_server(&["--threads", "1"]))
            .collect();
        let mut args: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
        for backend in &backends {
            args.push("--backend".into());
            args.push(backend.addr().to_string());
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let router = spawn_listening("snc-router", &args);
        Fleet {
            router,
            backends,
            // The router's own ring: equal weights, default virtual nodes.
            ring: HashRing::new(&[1; BACKENDS], DEFAULT_VNODES),
        }
    }

    /// The router's address.
    pub fn router_addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// Backend `i`'s address.
    pub fn backend_addr(&self, i: usize) -> SocketAddr {
        self.backends[i].addr()
    }

    /// The backend that owns shard key `payload_fold` while every
    /// backend is up.
    pub fn owner(&self, payload_fold: u64) -> usize {
        self.ring.candidates(payload_fold)[0]
    }

    /// Sum of the backends' peak resident set sizes (`VmHWM`), MiB.
    pub fn backend_peak_rss_mb(&self) -> f64 {
        self.backends
            .iter()
            .map(|b| {
                let status = std::fs::read_to_string(format!("/proc/{}/status", b.pid()))
                    .unwrap_or_default();
                status
                    .lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
                    .unwrap_or(0.0)
                    / 1024.0
            })
            .sum()
    }
}

/// A parsed Prometheus text exposition: series (name plus label block,
/// as printed) → value.
#[derive(Clone, Debug, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses an exposition body, skipping comments.
    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// Fetches and parses `GET /metrics` on `conn`.
    pub fn fetch(conn: &mut Conn) -> io::Result<Scrape> {
        let response = conn.get("/metrics")?;
        if response.status != 200 {
            return Err(io::Error::other(format!(
                "/metrics answered {}",
                response.status
            )));
        }
        Ok(Scrape::parse(&response.body))
    }

    /// The value of one series (`name` or `name{labels}` exactly as
    /// printed), 0 when absent.
    pub fn value(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `self − before` for one series.
    pub fn delta(&self, before: &Scrape, series: &str) -> f64 {
        self.value(series) - before.value(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_parses_plain_and_labelled_series() {
        let text = "# HELP x y\n# TYPE snc_router_requests_routed_total counter\nsnc_router_requests_routed_total 15\n\
                    snc_cache_hits_total{cache=\"response\"} 7\nsnc_router_backend_routed_total{backend=\"127.0.0.1:9\"} 3\n";
        let before = Scrape::parse(text);
        assert_eq!(before.value("snc_router_requests_routed_total"), 15.0);
        assert_eq!(
            before.value("snc_cache_hits_total{cache=\"response\"}"),
            7.0
        );
        assert_eq!(before.value("missing"), 0.0);
        let after = Scrape::parse("snc_router_requests_routed_total 40\n");
        assert_eq!(
            after.delta(&before, "snc_router_requests_routed_total"),
            25.0
        );
    }
}
