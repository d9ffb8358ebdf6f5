//! Load generation against serve's stdio JSONL transport, in-process.
//!
//! `llstar_serve::stdio::serve_lines` reads request lines from a
//! [`PacedReader`] — which releases each line when it is due (open loop)
//! or when the in-flight window has room (closed loop) — and writes
//! response lines into a [`Stamper`] that timestamps and hashes each
//! one. The load comes from the calling thread; serve's own writer
//! thread drives the stamper.

use crate::check::Tally;
use crate::inputs::PoolRequest;
use crate::setup::Loaded;
use crate::trace::tree_response;
use crate::util::hash_bytes;
use llstar_core::schema::{ServeBody, ServeMode, ServeRequest, ServeResponse};
use llstar_runtime::{NopHooks, ParseSession};
use llstar_serve::Server;
use std::io::{BufRead, Read, Write};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a correct response to one request line looks like.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// A `Tree` response byte-identical to a direct parse's, by hash.
    Tree(u64),
    /// A `Diagnostics` response with at least one diagnostic.
    Diagnostics,
    /// A `Tree` request whose input a direct parse rejected: no
    /// response is correct.
    Unparsable,
}

/// Request lines with their expected responses.
pub struct Wire {
    pub lines: Vec<String>,
    pub expect: Vec<Expect>,
    /// Input bytes of each request (not the encoded line).
    pub input_bytes: Vec<usize>,
}

impl Wire {
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn input_bytes_total(&self) -> usize {
        self.input_bytes.iter().sum()
    }

    /// The first `n` requests.
    pub fn prefix(&self, n: usize) -> Wire {
        let n = n.min(self.len());
        Wire {
            lines: self.lines[..n].to_vec(),
            expect: self.expect[..n].to_vec(),
            input_bytes: self.input_bytes[..n].to_vec(),
        }
    }
}

/// Encodes `requests` as wire lines (ids from 0) and works out each
/// expected response: `Tree` responses by a direct `ParseSession` parse
/// of the same input, spread over one thread per core.
pub fn build(loaded: &[Loaded], requests: &[PoolRequest]) -> Wire {
    let lines: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| request_line(i as u64, r.grammar.route(), r.mode, &r.input))
        .collect();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get()).clamp(1, 4);
    let chunk = requests.len().div_ceil(threads).max(1);
    let expect: Vec<Expect> = std::thread::scope(|scope| {
        let workers: Vec<_> = requests
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                scope.spawn(move || {
                    let mut sessions: Vec<ParseSession<'_, NopHooks>> = loaded
                        .iter()
                        .map(|l| {
                            ParseSession::new(&l.grammar, &l.analysis, l.start_rule(), NopHooks)
                                .expect("lexer builds")
                        })
                        .collect();
                    part.iter()
                        .enumerate()
                        .map(|(k, r)| {
                            if r.mode == ServeMode::Diagnostics {
                                return Expect::Diagnostics;
                            }
                            let at =
                                loaded.iter().position(|l| l.gram == r.grammar).expect("loaded");
                            match sessions[at].parse_to_eof(&r.input) {
                                Ok(tree) => {
                                    let id = (c * chunk + k) as u64;
                                    let line =
                                        tree_response(r.grammar, &loaded[at], id, &r.input, &tree);
                                    Expect::Tree(hash_bytes(line.as_bytes()))
                                }
                                Err(_) => Expect::Unparsable,
                            }
                        })
                        .collect::<Vec<Expect>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("expectation worker")).collect()
    });
    let input_bytes = requests.iter().map(|r| r.input.len()).collect();
    Wire { lines, expect, input_bytes }
}

/// Encodes one request as its wire line (newline-terminated).
pub fn request_line(id: u64, route: &str, mode: ServeMode, input: &str) -> String {
    let request = ServeRequest {
        id,
        grammar: route.to_string(),
        mode,
        input: input.to_string(),
        traceparent: None,
    };
    format!("{}\n", request.to_json())
}

/// How request lines are released.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Line `i` is due at `start + i / rps`, whatever the server does.
    Open { rps: f64 },
    /// At most `window` requests in flight (released, not yet answered).
    Closed { window: usize },
}

#[derive(Default)]
struct Progress {
    written: Mutex<u64>,
    cond: Condvar,
}

/// One response line as the client saw it.
pub struct Stamp {
    pub at: Instant,
    pub hash: u64,
    /// The line's first bytes: id, status, mode and error count.
    pub head: String,
}

const HEAD_BYTES: usize = 256;

/// Timestamps and hashes each response line; skips the stream header.
struct Stamper<'a> {
    progress: &'a Progress,
    line: Vec<u8>,
    header_seen: bool,
    stamps: Vec<Stamp>,
}

impl Write for Stamper<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let mut rest = data;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            self.line.extend_from_slice(&rest[..nl]);
            rest = &rest[nl + 1..];
            let at = Instant::now();
            if self.header_seen {
                let head_len = self.line.len().min(HEAD_BYTES);
                let head = String::from_utf8_lossy(&self.line[..head_len]).into_owned();
                self.stamps.push(Stamp { at, hash: hash_bytes(&self.line), head });
                *self.progress.written.lock().expect("progress lock") += 1;
                self.progress.cond.notify_one();
            }
            self.header_seen = true;
            self.line.clear();
        }
        self.line.extend_from_slice(rest);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Releases request lines to `serve_lines` on the [`Pace`] schedule and
/// samples the server's queue depth at each release.
struct PacedReader<'a> {
    lines: &'a [String],
    pace: Pace,
    start: Instant,
    progress: &'a Progress,
    server: &'a Server,
    next: usize,
    pos: usize,
    released: bool,
    handed: Vec<Instant>,
    depth: Vec<usize>,
}

impl PacedReader<'_> {
    fn wait_turn(&mut self) {
        match self.pace {
            Pace::Open { rps } => {
                let due = self.start + Duration::from_secs_f64(self.next as f64 / rps);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            Pace::Closed { window } => {
                let mut written = self.progress.written.lock().expect("progress lock");
                while self.next as u64 - *written >= window as u64 {
                    written = self.progress.cond.wait(written).expect("progress lock");
                }
            }
        }
    }
}

impl Read for PacedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.next == self.lines.len() {
            return Ok(&[]);
        }
        if !self.released {
            self.wait_turn();
            self.released = true;
            self.handed.push(Instant::now());
            self.depth.push(self.server.stats().queued);
        }
        Ok(&self.lines[self.next].as_bytes()[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.pos += n;
        if self.pos >= self.lines[self.next].len() {
            self.next += 1;
            self.pos = 0;
            self.released = false;
        }
    }
}

/// One pass of request lines through the stdio transport.
pub struct StdioRun {
    pub start: Instant,
    pub pace: Pace,
    /// When each line was released to the transport.
    pub handed: Vec<Instant>,
    /// Each response line, in request order.
    pub stamps: Vec<Stamp>,
    /// Queue depth sampled at each release.
    pub depth: Vec<usize>,
}

impl StdioRun {
    /// When request `i` was due: its schedule slot in an open loop, its
    /// release in a closed one.
    pub fn due(&self, i: usize) -> Instant {
        match self.pace {
            Pace::Open { rps } => self.start + Duration::from_secs_f64(i as f64 / rps),
            Pace::Closed { .. } => self.handed[i],
        }
    }

    /// Milliseconds from each request's due time to its response line.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.stamps
            .iter()
            .enumerate()
            .map(|(i, s)| crate::util::ms_between(self.due(i), s.at))
            .collect()
    }

    /// Milliseconds each line was released after it was due: how late
    /// the load generator ran (0 in a closed loop).
    pub fn late_ms(&self) -> Vec<f64> {
        self.handed
            .iter()
            .enumerate()
            .map(|(i, &at)| crate::util::ms_between(self.due(i), at))
            .collect()
    }

    /// Requests per second and input MB per second from the start of
    /// the run to its last response.
    pub fn rates(&self, wire: &Wire) -> (f64, f64) {
        let last = self.stamps.last().map_or(self.start, |s| s.at);
        let secs = last.duration_since(self.start).as_secs_f64().max(1e-9);
        (self.stamps.len() as f64 / secs, wire.input_bytes_total() as f64 / crate::util::MB / secs)
    }

    /// Checks every response against `wire.expect`.
    pub fn check(&self, wire: &Wire, tally: &mut Tally) {
        tally.record(self.stamps.len() == wire.len(), || {
            format!("{} responses for {} requests", self.stamps.len(), wire.len())
        });
        for (i, (stamp, expect)) in self.stamps.iter().zip(&wire.expect).enumerate() {
            let ok = match expect {
                Expect::Tree(hash) => stamp.hash == *hash,
                Expect::Diagnostics => diagnostics_head_ok(&stamp.head, i as u64),
                Expect::Unparsable => false,
            };
            tally.record(ok, || format!("response {i} ({expect:?}): {}", stamp.head));
        }
    }
}

/// A `Diagnostics` response line for request `id` reporting ≥1 error.
fn diagnostics_head_ok(head: &str, id: u64) -> bool {
    let prefix = format!("{{\"type\":\"response\",\"id\":{id},");
    let marker = "\"status\":\"ok\",\"mode\":\"diagnostics\",\"errors\":";
    let Some(at) = head.find(marker) else { return false };
    let digits: String =
        head[at + marker.len()..].chars().take_while(char::is_ascii_digit).collect();
    head.starts_with(&prefix) && digits.parse::<u64>().is_ok_and(|n| n >= 1)
}

/// Pumps `wire` through `serve_lines` on `server` at `pace`.
pub fn run_stdio(server: &Server, wire: &Wire, pace: Pace) -> StdioRun {
    let progress = Progress::default();
    let mut stamper = Stamper {
        progress: &progress,
        line: Vec::new(),
        header_seen: false,
        stamps: Vec::with_capacity(wire.len()),
    };
    let start = Instant::now();
    let mut reader = PacedReader {
        lines: &wire.lines,
        pace,
        start,
        progress: &progress,
        server,
        next: 0,
        pos: 0,
        released: false,
        handed: Vec::with_capacity(wire.len()),
        depth: Vec::with_capacity(wire.len()),
    };
    llstar_serve::stdio::serve_lines(server, &mut reader, &mut stamper).expect("in-memory io");
    StdioRun { start, pace, handed: reader.handed, stamps: stamper.stamps, depth: reader.depth }
}

/// Submits `wire` through `Server::submit` on an open-loop schedule and
/// returns each request's submit→completion milliseconds (completions
/// are taken as they arrive, unordered). Responses are checked for the
/// expected mode.
pub fn run_submit(server: &Server, wire: &Wire, rps: f64, tally: &mut Tally) -> Vec<f64> {
    let requests: Vec<ServeRequest> =
        wire.lines.iter().map(|l| crate::trace::decode(l).expect("request lines decode")).collect();
    let n = requests.len();
    let (tx, rx) = mpsc::channel::<(u64, ServeResponse)>();
    let (submitted, done) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut done: Vec<Option<(Instant, bool)>> = vec![None; n];
            for (tag, response) in rx {
                let ok =
                    matches!(response.body, ServeBody::Tree { .. } | ServeBody::Diagnostics { .. });
                done[tag as usize] = Some((Instant::now(), ok));
            }
            done
        });
        let start = Instant::now();
        let mut submitted = Vec::with_capacity(n);
        for (i, request) in requests.into_iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rps);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            submitted.push(Instant::now());
            server.submit(i as u64, request, &tx);
        }
        drop(tx);
        (submitted, receiver.join().expect("receiver thread"))
    });
    let mut service = Vec::with_capacity(n);
    for (i, (t0, d)) in submitted.iter().zip(done).enumerate() {
        tally.record(d.is_some_and(|(_, ok)| ok), || format!("submitted request {i} failed"));
        if let Some((at, _)) = d {
            service.push(crate::util::ms_between(*t0, at));
        }
    }
    service
}
