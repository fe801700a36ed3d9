//! serve-mix: a `wormcast-serve` process driven as a closed loop by
//! [`CLIENTS`] client connections, and the traced in-process replay of the
//! same requests through the serve and simcheck layers.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use wormcast_serve::{is_frame, Server};
use wormcast_simcheck::{measure_request, Scenario, ScenarioRequest};
use wormcast_telemetry::MetricId;

use crate::instrument::{Layer, SpanId, Tracer};
use crate::plan::{cold_warm_order, Gen, Kind};

/// Distinct requests per pass (each is sent once cold and once warm).
const REQUESTS: usize = 2000;
/// Client connections, each waiting for its reply before the next send.
const CLIENTS: usize = 2;
/// `--workers` of the server process.
const WORKERS: usize = 2;
/// `--cache-cap` of the server: every distinct request of a pass fits, so
/// each warm send can be answered from the cache.
const CACHE_CAP: usize = 2 * REQUESTS;

/// How the server says it produced an answer (its provenance line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    Miss,
    Hit,
    Coalesced,
}

/// One answered request of the socket pass.
#[derive(Debug)]
pub struct Answer {
    pub idx: usize,
    pub provenance: Option<Provenance>,
    pub ns: u64,
    pub frame: String,
}

/// The seeded request list and its order.
pub struct ServeMix {
    /// Request lines, newline-terminated, canonical JSON.
    lines: Vec<String>,
    /// The pass order over `lines`: cold before warm, otherwise seeded.
    order: Vec<(usize, Kind)>,
}

/// The first [`REQUESTS`] scenarios of the simcheck grammar for `seed`
/// with distinct config hashes (a repeated hash would make a "cold" send a
/// cache hit).
pub fn serve_mix(seed: u64) -> ServeMix {
    let mut seen = HashSet::new();
    let mut lines = Vec::with_capacity(REQUESTS);
    let mut index = 0;
    while lines.len() < REQUESTS {
        let req = ScenarioRequest::new(Scenario::generate(seed, index));
        index += 1;
        if seen.insert(req.config_hash()) {
            lines.push(format!("{}\n", req.canonical_json()));
        }
    }
    let order = cold_warm_order(REQUESTS, &mut Gen::new(seed, "serve-mix/order"));
    ServeMix { lines, order }
}

/// A server process, killed and reaped when dropped.
struct ServerProc(Child);

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Peak resident set (VmHWM) of process `pid`, kB.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The outcome of one socket pass.
pub struct SocketPass {
    pub setup_ns: u64,
    pub wall_ns: u64,
    pub rss_kb: Option<u64>,
    pub answers: Vec<Answer>,
}

impl ServeMix {
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Spawn a fresh server, run the pass over [`CLIENTS`] connections
    /// (request `i` always on connection `i % CLIENTS`, so its warm send
    /// follows its answered cold send), then stop the server.
    pub fn socket_pass(&self, serve_bin: &Path) -> Result<SocketPass, String> {
        let spawned = Instant::now();
        let child = Command::new(serve_bin)
            .args(["--addr", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .arg("--cache-cap")
            .arg(CACHE_CAP.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", serve_bin.display()))?;
        let mut server = ServerProc(child);
        let mut banner = String::new();
        let stdout = server.0.stdout.take().ok_or("server stdout not captured")?;
        BufReader::new(stdout)
            .read_line(&mut banner)
            .map_err(|e| format!("read server banner: {e}"))?;
        let setup_ns = spawned.elapsed().as_nanos() as u64;
        let addr = banner
            .trim()
            .strip_prefix("serving on ")
            .ok_or_else(|| format!("unexpected server banner {banner:?}"))?
            .to_string();

        let start = Instant::now();
        let per_conn: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let seq: Vec<(usize, Kind)> = self
                        .order
                        .iter()
                        .copied()
                        .filter(|&(i, _)| i % CLIENTS == c)
                        .collect();
                    let addr = addr.as_str();
                    s.spawn(move || self.client(addr, &seq))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let rss_kb = vm_hwm_kb(&server.0.id().to_string());
        drop(server);
        let mut answers = Vec::with_capacity(2 * self.len());
        for conn in per_conn {
            answers.extend(conn?);
        }
        Ok(SocketPass {
            setup_ns,
            wall_ns,
            rss_kb,
            answers,
        })
    }

    /// One closed-loop connection: send, read up to the frame, repeat.
    fn client(&self, addr: &str, seq: &[(usize, Kind)]) -> Result<Vec<Answer>, String> {
        let io = |e: std::io::Error| format!("client {addr}: {e}");
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
        let mut writer = stream;
        let mut out = Vec::with_capacity(seq.len());
        let mut line = String::new();
        for &(idx, _) in seq {
            let t = Instant::now();
            writer.write_all(self.lines[idx].as_bytes()).map_err(io)?;
            let mut provenance = None;
            loop {
                line.clear();
                if reader.read_line(&mut line).map_err(io)? == 0 {
                    return Err(format!("server closed the connection on request {idx}"));
                }
                let l = line.trim_end();
                if is_frame(l) {
                    break;
                }
                provenance = provenance.or_else(|| parse_provenance(l));
            }
            let ns = t.elapsed().as_nanos() as u64;
            out.push(Answer {
                idx,
                provenance,
                ns,
                frame: line.trim_end().to_string(),
            });
        }
        // Close the write side and drain, so the server's worker sees EOF.
        writer.shutdown(std::net::Shutdown::Write).map_err(io)?;
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        Ok(out)
    }

    /// The traced replay: one in-process `Server`, the same requests in the
    /// pass order, each layer call timed. A cold request is also measured
    /// beside the server (`measure_request` on the same input the server's
    /// cold path uses), since its own call happens inside `respond`.
    /// Returns each request's frame.
    pub fn traced_pass(&self, tr: &mut Tracer, pass: SpanId) -> Vec<String> {
        let server = Server::new(CACHE_CAP);
        let mut frames = vec![String::new(); self.len()];
        for &(idx, kind) in &self.order {
            let span = tr.open("op", Some(pass), idx as u64);
            let text = self.lines[idx].trim_end();
            let req = match tr.call(Layer::Decode, span, || ScenarioRequest::from_json(text)) {
                Ok(req) => req,
                Err(e) => {
                    tr.pass.error_frames += 1;
                    frames[idx] = format!("decode error: {e}");
                    tr.pass.op_ns += tr.close(span);
                    continue;
                }
            };
            std::hint::black_box(tr.call(Layer::Hash, span, || req.config_hash()));
            if kind == Kind::Cold {
                let mut with_events = req.clone();
                with_events.outputs.events = true;
                let run = tr.call(Layer::Measure, span, || measure_request(&with_events));
                std::hint::black_box(run.is_ok());
            }
            let resp = tr.call(Layer::Respond, span, || server.respond(&req));
            let bytes = tr.call(Layer::Render, span, || resp.render());
            tr.pass.frame_bytes += bytes.len() as u64;
            let frame = bytes.trim_end().rsplit('\n').next().unwrap_or("");
            if frame.starts_with("{\"error\":") {
                tr.pass.error_frames += 1;
            }
            if kind == Kind::Cold {
                frames[idx] = frame.to_string();
            }
            tr.pass.op_ns += tr.close(span);
        }
        tr.pass.serve_requests = server.metric(MetricId::ServeRequests);
        tr.pass.cache_hits = server.metric(MetricId::ServeCacheHits);
        tr.pass.cache_misses = server.metric(MetricId::ServeRunsExecuted);
        tr.pass.coalesced = server.metric(MetricId::ServeCoalesced);
        frames
    }
}

fn parse_provenance(line: &str) -> Option<Provenance> {
    if line.contains("\"ev\":\"cache_miss\"") {
        Some(Provenance::Miss)
    } else if line.contains("\"ev\":\"cache_hit\"") {
        Some(Provenance::Hit)
    } else if line.contains("\"ev\":\"coalesced\"") {
        Some(Provenance::Coalesced)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_request_list() {
        let (a, b, c) = (serve_mix(7), serve_mix(7), serve_mix(8));
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.order, b.order);
        assert_ne!(a.lines, c.lines);
        assert_eq!(a.lines.len(), REQUESTS);
    }
}
