//! The traced run: per-layer metrics for any workload, given its
//! grammars and its requests. End-to-end metrics never come from here.

use crate::check::Tally;
use crate::inputs::Gram;
use crate::setup::{self, Loaded, SetupLayers};
use crate::trace::{self, Counts, Lane, Spans};
use crate::util::{hash_bytes, mean, median, quantile, MB};
use crate::wire::{self, Expect, Pace, Wire};
use crate::Metrics;
use llstar_runtime::{NopHooks, ParseSession};
use llstar_serve::Server;
use std::time::Instant;

/// Share of `--seconds` spent on the replay (traced and untraced passes
/// alternating); each of the two serve passes gets `SERVE_SHARE`.
const REPLAY_SHARE: f64 = 0.5;
const SERVE_SHARE: f64 = 0.2;
/// In-flight window of the warm-up pass.
const WINDOW: usize = 8;

/// Runs the traced measurements for a workload over `grams`.
/// `wire` holds the workload's requests with their expected responses;
/// serve passes run an open loop at `rps` on a server first warmed up
/// with `warm`.
#[allow(clippy::too_many_arguments)]
pub fn run(
    grams: &[Gram],
    setup_layers: SetupLayers,
    wire: &Wire,
    warm: &Wire,
    rps: f64,
    seconds: f64,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let loaded: Vec<Loaded> = grams.iter().map(|&g| setup::load(g).0).collect();
    replay(&loaded, wire, seconds * REPLAY_SHARE, tally, out);
    put_setup(&setup_layers, out);
    serve(grams, wire, warm, rps, seconds * SERVE_SHARE, tally, out);
}

fn put_setup(s: &SetupLayers, out: &mut Metrics) {
    out.put("grammar.load_ms", s.load_ms);
    out.put("core.analyze_ms", s.analyze_ms);
    out.put("core.closure_calls", s.closure_calls as f64);
    out.put("core.dfa_states", s.dfa_states as f64);
    out.put("core.backtracking_decisions", s.backtracking_decisions as f64);
    out.put("core.table_bytes", s.table_bytes as f64);
    out.put("lexer.build_ms", s.lexer_build_ms);
    out.put("setup.session_ms", s.session_ms);
    out.put("codegen.generate_ms", s.codegen_ms);
    out.put("codegen.source_bytes", s.codegen_bytes as f64);
}

/// Alternates untraced and traced passes over the `Tree` requests for
/// `budget_s` seconds (at least one of each), then reports per-pass
/// layer times (medians of pass totals would hide nothing here: the
/// spans are summed over all traced passes and divided by their count).
fn replay(loaded: &[Loaded], wire: &Wire, budget_s: f64, tally: &mut Tally, out: &mut Metrics) {
    let tree_lines: Vec<(usize, &String)> = wire
        .lines
        .iter()
        .enumerate()
        .filter(|(i, _)| matches!(wire.expect[*i], Expect::Tree(_)))
        .collect();
    let route_of = |line: &str| trace::decode(line).expect("request lines decode").grammar;
    let lane_of: Vec<usize> = tree_lines
        .iter()
        .map(|(_, l)| {
            let route = route_of(l);
            loaded.iter().position(|x| x.gram.route() == route).expect("routed grammar loaded")
        })
        .collect();
    let mut lanes: Vec<Lane> = loaded.iter().map(Lane::new).collect();
    let mut sessions: Vec<(ParseSession<'_, NopHooks>, &Loaded)> = loaded
        .iter()
        .map(|l| {
            let s = ParseSession::new(&l.grammar, &l.analysis, l.start_rule(), NopHooks)
                .expect("lexer builds");
            (s, l)
        })
        .collect();

    let mut spans = Spans::default();
    let mut counts = Counts::default();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while traced_ms.is_empty() || t0.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for (_, line) in &tree_lines {
            std::hint::black_box(trace::untraced(&mut sessions, line));
        }
        untraced_ms.push(crate::util::ms(t.elapsed()));

        let first = traced_ms.is_empty();
        let mut pass_counts = Counts::default();
        let t = Instant::now();
        for ((i, line), &lane) in tree_lines.iter().zip(&lane_of) {
            let response = lanes[lane].replay(&mut spans, &mut pass_counts, line);
            if first {
                let ok = matches!(wire.expect[*i], Expect::Tree(h) if h == hash_bytes(response.as_bytes()));
                tally.record(ok, || format!("replayed request {i} differs from ParseSession"));
            }
        }
        traced_ms.push(crate::util::ms(t.elapsed()));
        if first {
            counts = pass_counts;
        }
    }
    let passes = traced_ms.len() as f64;
    let totals = spans.totals();
    let per_pass = |name: &str| totals.get(name).map_or(0.0, |t| t.0 / passes);
    let self_per_pass = |name: &str| totals.get(name).map_or(0.0, |t| t.1 / passes);

    let lex_ms = per_pass(trace::LEX);
    out.put("lexer.ms", lex_ms);
    out.put("lexer.mb_s", counts.bytes as f64 / MB / (lex_ms / 1e3));
    out.put("lexer.tokens", counts.tokens as f64);
    out.put("runtime.session_self_ms", self_per_pass(trace::DOC));
    out.put("runtime.stream_ms", per_pass(trace::STREAM));
    out.put("runtime.reset_ms", per_pass(trace::RESET));
    out.put("runtime.parse_ms", per_pass(trace::PARSE));
    out.put("runtime.parse_self_ms", self_per_pass(trace::PARSE));
    out.put("runtime.metrics_ms", per_pass(trace::METRICS));
    out.put("runtime.dfa_predict_ms", per_pass(trace::PREDICT));
    let parse_ms = per_pass(trace::PARSE);
    out.put("runtime.speculate_pct", 100.0 * per_pass(trace::SPECULATE) / parse_ms);
    out.put("runtime.predictions", counts.predictions as f64);
    out.put(
        "runtime.lookahead_avg",
        counts.lookahead_sum as f64 / counts.predictions.max(1) as f64,
    );
    out.put("runtime.lookahead_max", counts.lookahead_max as f64);
    out.put("runtime.backtracks", counts.backtracks as f64);
    out.put(
        "runtime.backtrack_pct",
        100.0 * counts.backtracks as f64 / counts.predictions.max(1) as f64,
    );
    out.put("runtime.spec_tokens", counts.spec_tokens as f64);
    out.put("runtime.memo_entries", counts.memo_entries as f64);
    // Every memo miss writes one entry, so lookups = hits + entries.
    let lookups = counts.memo_hits + counts.memo_entries;
    out.put("runtime.memo_hit_ratio", counts.memo_hits as f64 / lookups.max(1) as f64);
    out.put("runtime.tree_nodes", counts.tree_nodes as f64);
    out.put("runtime.sexpr_ms", per_pass(trace::SEXPR));
    out.put("serve.decode_ms", per_pass(trace::DECODE));
    out.put("serve.encode_ms", per_pass(trace::ENCODE));
    let (traced, untraced) = (median(&traced_ms), median(&untraced_ms));
    out.put("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
    out.note(format!(
        "replay: {} requests ({} MB) per pass, {} traced and {} untraced passes; \
         runtime.dfa_predict_ms and runtime.speculate_pct come from Parser decision timing and \
         double-count predictions nested inside speculation, so runtime.parse_self_ms \
         (parse minus both, clamped at 0) is a lower bound",
        counts.docs,
        counts.bytes as f64 / MB,
        traced_ms.len(),
        untraced_ms.len()
    ));
}

/// The serve layer: after a closed-loop warm-up with `warm`, one
/// open-loop pass through the stdio transport and one through
/// `Server::submit`, over the same requests at `rps`.
fn serve(
    grams: &[Gram],
    wire: &Wire,
    warm: &Wire,
    rps: f64,
    budget_s: f64,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let n = ((rps * budget_s) as usize).clamp(wire.len().min(4), wire.len());
    let wire = wire.prefix(n);
    let loaded: Vec<Loaded> = grams.iter().map(|&g| setup::load(g).0).collect();
    let server =
        Server::start(setup::entries(loaded), setup::serve_options()).expect("server starts");
    wire::run_stdio(&server, warm, Pace::Closed { window: WINDOW }).check(warm, tally);
    let stdio = wire::run_stdio(&server, &wire, Pace::Open { rps });
    stdio.check(&wire, tally);
    let service = wire::run_submit(&server, &wire, rps, tally);
    let rejected = server.stats().rejected;
    server.shutdown();
    tally.record(rejected == 0, || format!("serve rejected {rejected} requests"));

    let latency = stdio.latencies_ms();
    let transport: Vec<f64> = latency.iter().zip(&service).map(|(l, s)| l - s).collect();
    let depth: Vec<f64> = stdio.depth.iter().map(|&d| d as f64).collect();
    let offered_s =
        stdio.handed.last().map_or(0.0, |t| t.duration_since(stdio.start).as_secs_f64());
    out.put("serve.service_ms_p50", median(&service));
    out.put("serve.service_ms_p99", quantile(&service, 0.99));
    out.put("serve.queue_depth_mean", mean(&depth));
    out.put("serve.queue_depth_max", depth.iter().copied().fold(0.0, f64::max));
    out.put("serve.rejected", rejected as f64);
    out.put("serve.transport_ms_p99", quantile(&transport, 0.99));
    out.put("loadgen.late_ms_p99", quantile(&stdio.late_ms(), 0.99));
    out.put("loadgen.offered_rps", (n.max(2) - 1) as f64 / offered_s.max(1e-9));
    out.note(format!(
        "serve layer: {n} requests per pass at {rps} req/s open loop; service and transport \
         quantiles over {n} samples each"
    ));
}
