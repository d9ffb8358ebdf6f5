//! The traced run's span recorder and the document replay it wraps.
//!
//! Spans are recorded here, in the benchmark, around public calls into
//! each layer; nothing inside the program is instrumented. A span's self
//! time is its duration minus its children's. The replay repeats what
//! `ParseSession::parse_to_eof` does as its public calls, then renders
//! and encodes the response the way serve does.

use crate::inputs::Gram;
use crate::setup::Loaded;
use crate::util::ms;
use llstar_core::schema::{ServeBody, ServeRequest, ServeResponse};
use llstar_core::Json;
use llstar_lexer::{Scanner, Token};
use llstar_runtime::metrics::MetricsSnapshot;
use llstar_runtime::span::derive_trace_id;
use llstar_runtime::{NopHooks, ParseSession, ParseTree, Parser, TokenStream};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Span names, one per layer boundary the replay crosses.
pub const DOC: &str = "runtime.session";
pub const DECODE: &str = "serve.decode";
pub const LEX: &str = "lexer";
pub const STREAM: &str = "runtime.stream";
pub const RESET: &str = "runtime.reset";
pub const PARSE: &str = "runtime.parse";
pub const PREDICT: &str = "runtime.dfa_predict";
pub const SPECULATE: &str = "runtime.speculate";
pub const METRICS: &str = "runtime.metrics";
pub const SEXPR: &str = "runtime.sexpr";
pub const ENCODE: &str = "serve.encode";

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    dur: Duration,
}

/// In-memory span log, folded into per-name totals at the end.
#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.spans.push(Span { name, parent, start: Instant::now(), dur: Duration::ZERO });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].dur = self.spans[id].start.elapsed();
    }

    /// Records a child whose duration was measured by the program
    /// itself (decision timing), not by a span of ours.
    pub fn add_measured(&mut self, name: &'static str, parent: usize, dur: Duration) {
        let start = self.spans[parent].start;
        self.spans.push(Span { name, parent: Some(parent), start, dur });
    }

    /// `(total, self)` milliseconds per span name. Self time is clamped
    /// at zero: measured children may double-count nested work.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let e = out.entry(s.name).or_default();
            e.0 += ms(s.dur);
            e.1 += ms(s.dur.saturating_sub(*c));
        }
        out
    }
}

/// Counters summed over every replayed document.
#[derive(Default, Clone, Copy, Debug)]
pub struct Counts {
    pub docs: u64,
    pub bytes: u64,
    pub tokens: u64,
    pub predictions: u64,
    pub lookahead_sum: u64,
    pub lookahead_max: u64,
    pub backtracks: u64,
    pub spec_tokens: u64,
    pub memo_entries: u64,
    pub memo_hits: u64,
    pub tree_nodes: u64,
}

/// The response line serve writes for a successful `Tree` request.
pub fn tree_response(gram: Gram, l: &Loaded, id: u64, input: &str, tree: &ParseTree) -> String {
    ServeResponse {
        id,
        grammar: gram.route().to_string(),
        trace_id: Some(derive_trace_id(gram.route(), id, input)),
        body: ServeBody::Tree {
            tokens: tree.token_count() as u64,
            sexpr: tree.to_sexpr(&l.grammar, input),
        },
    }
    .to_json()
}

/// A decoded request line: what serve's stdio reader does per line.
pub fn decode(line: &str) -> Result<ServeRequest, String> {
    ServeRequest::from_json(&Json::parse(line.trim_end())?)
}

/// One grammar's replay state: scanner and parser built once, like a
/// `ParseSession`, with decision timing on.
pub struct Lane<'g> {
    pub loaded: &'g Loaded,
    scanner: Scanner,
    class_map: Option<Vec<u8>>,
    parser: Parser<'g, NopHooks>,
    can_backtrack: Vec<bool>,
    metrics: MetricsSnapshot,
}

impl<'g> Lane<'g> {
    pub fn new(loaded: &'g Loaded) -> Lane<'g> {
        let (g, a) = (&loaded.grammar, &loaded.analysis);
        let mut parser = Parser::new(g, a, TokenStream::new(vec![Token::eof(0, 1, 1)]), NopHooks);
        parser.enable_decision_timing();
        Lane {
            loaded,
            scanner: g.lexer.build().expect("gauntlet lexer builds"),
            class_map: a.tables.classes().map(|c| c.map().to_vec()),
            parser,
            can_backtrack: a.decisions.iter().map(|d| d.dfa.uses_backtrack()).collect(),
            metrics: MetricsSnapshot::empty(llstar_core::grammar_fingerprint(g)),
        }
    }

    /// Replays one request line under spans: decode, lex, stream,
    /// reset, parse (with prediction and speculation as measured
    /// children), metrics merge, s-expression and response encoding.
    /// Returns the encoded response line.
    pub fn replay(&mut self, spans: &mut Spans, counts: &mut Counts, line: &str) -> String {
        let s = spans.open(DECODE, None);
        let request = decode(line).expect("request lines decode");
        spans.close(s);
        let input = request.input.as_str();
        let doc = spans.open(DOC, None);
        let s = spans.open(LEX, Some(doc));
        let tokens = match &self.class_map {
            Some(map) => self.scanner.tokenize_classified(input, map),
            None => self.scanner.tokenize(input),
        }
        .expect("request inputs lex");
        spans.close(s);
        counts.tokens += tokens.len() as u64 - 1;
        let s = spans.open(STREAM, Some(doc));
        let stream = match self.class_map {
            Some(_) => TokenStream::new_classified(tokens),
            None => TokenStream::new(tokens),
        };
        spans.close(s);
        let s = spans.open(RESET, Some(doc));
        self.parser.reset(stream);
        spans.close(s);
        let parse = spans.open(PARSE, Some(doc));
        let tree = self.parser.parse_to_eof(self.loaded.start_rule()).expect("inputs parse");
        spans.close(parse);
        let nanos = self.parser.decision_nanos().expect("decision timing is on");
        let (mut predict, mut speculate) = (0u64, 0u64);
        for (n, can) in nanos.iter().zip(&self.can_backtrack) {
            if *can {
                speculate += n;
            } else {
                predict += n;
            }
        }
        spans.add_measured(PREDICT, parse, Duration::from_nanos(predict));
        spans.add_measured(SPECULATE, parse, Duration::from_nanos(speculate));
        let s = spans.open(METRICS, Some(doc));
        self.metrics.merge(&self.parser.metrics_snapshot());
        spans.close(s);
        spans.close(doc);

        let stats = self.parser.stats();
        counts.memo_entries += stats.memo_entries;
        counts.memo_hits += stats.memo_hits;
        for d in self.parser.metrics().decisions() {
            counts.predictions += d.events;
            counts.lookahead_sum += d.la_sum;
            counts.lookahead_max = counts.lookahead_max.max(d.la_max);
            counts.backtracks += d.backtracks;
            counts.spec_tokens += d.spec_sum;
        }
        counts.docs += 1;
        counts.bytes += input.len() as u64;
        counts.tree_nodes += (tree.rule_count() + tree.token_count()) as u64;

        let s = spans.open(SEXPR, None);
        let sexpr = tree.to_sexpr(&self.loaded.grammar, input);
        spans.close(s);
        let s = spans.open(ENCODE, None);
        let response = ServeResponse {
            id: request.id,
            grammar: request.grammar,
            trace_id: Some(derive_trace_id(self.loaded.gram.route(), request.id, input)),
            body: ServeBody::Tree { tokens: tree.token_count() as u64, sexpr },
        }
        .to_json();
        spans.close(s);
        response
    }
}

/// The same work as [`Lane::replay`] with no spans and no decision
/// timing: decode, `ParseSession::parse_to_eof`, render, encode. The
/// traced run's overhead is measured against this.
pub fn untraced(sessions: &mut [(ParseSession<'_, NopHooks>, &Loaded)], line: &str) -> usize {
    let request = decode(line).expect("request lines decode");
    let (session, loaded) = sessions
        .iter_mut()
        .find(|(_, l)| l.gram.route() == request.grammar)
        .expect("request routes to a loaded grammar");
    let tree = session.parse_to_eof(&request.input).expect("inputs parse");
    tree_response(loaded.gram, loaded, request.id, &request.input, &tree).len()
}
