//! The `serve-mix` workload: rounds of an open loop at a fixed rate
//! through serve's stdio JSONL transport, each followed by closed-loop
//! replays of the same requests.

use crate::check::{packrat_accepts, Tally};
use crate::inputs::{self, Gram};
use crate::setup::{self, Loaded};
use crate::util::{
    cpu_steal_ticks, median, peak_rss_mb, quantile, release_free_heap, reset_peak_rss, steal_pct,
    MB,
};
use crate::wire::{self, Pace, StdioRun, Wire};
use crate::{layers, Metrics};
use llstar_lexer::Scanner;
use llstar_rng::Rng64;
use llstar_runtime::{NopHooks, ParseSession};
use llstar_serve::Server;
use std::time::Instant;

/// The open-loop rate: about an eighth of the seed's `saturation_rps`
/// (~450 req/s with one worker) on the 2-core reference host. Queueing
/// and head-of-line wait behind java8 requests in the ordered output
/// grow faster than the host slows, so a busier open loop turns the
/// shared host's speed swings into large latency swings; at this rate
/// the median latency is within ~10% of an idle server's.
pub const OPEN_LOOP_RPS: f64 = 60.0;
/// Share of `--seconds` the open loops run for; the rest goes to the
/// closed-loop replays.
const OPEN_SHARE: f64 = 0.7;
/// The requests are cut into this many rounds, each an open loop then
/// [`REPLAYS`] closed-loop replays of the same requests. The shared
/// host's speed swings by a third over a few seconds, so both phases are
/// spread in short pieces over the whole run rather than run back to
/// back.
const ROUNDS: usize = 8;
/// Closed-loop replays per round. Rates are taken per replay, and the
/// median over all replays is reported.
const REPLAYS: usize = 3;
/// Requests in flight during the closed-loop phase.
const WINDOW: usize = 8;
/// Extra distinct requests served before the timed phases.
const WARM_UP: usize = 64;

/// Runs `serve-mix`.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Metrics) -> Tally {
    let loaded: Vec<Loaded> = Gram::ALL.iter().map(|&g| setup::load(g).0).collect();
    let n = (OPEN_LOOP_RPS * seconds * OPEN_SHARE).max(ROUNDS as f64) as usize;
    let mut pool = {
        let mut mutator = Mutator::new(&loaded);
        let mut sizes = vec![n / ROUNDS; ROUNDS];
        sizes.push(WARM_UP);
        inputs::request_pool(seed, &sizes, |g, text, rng| mutator.mutate(g, text, rng))
    };
    let warm = wire::build(&loaded, &pool.pop().expect("warm-up group"));
    let mut tally = Tally::default();
    if traced {
        let wire = wire::build(&loaded, &pool.concat());
        let layers = setup::trace_setup(&Gram::ALL, |loaded| {
            let t0 = Instant::now();
            let server = Server::start(setup::entries(loaded), setup::serve_options());
            let took = t0.elapsed();
            server.expect("server starts").shutdown();
            took
        });
        layers::run(&Gram::ALL, layers, &wire, &warm, OPEN_LOOP_RPS, seconds, &mut tally, out);
        return tally;
    }
    let rounds: Vec<Wire> = pool.iter().map(|group| wire::build(&loaded, group)).collect();
    drop(loaded);

    let setup_s = setup::server_setup_s(&Gram::ALL);
    let paths: Vec<String> = Gram::ALL.iter().map(|g| g.path()).collect();
    let entries = llstar_serve::load_grammars(&paths, None, None).expect("grammars load");
    let server = Server::start(entries, setup::serve_options()).expect("server starts");
    wire::run_stdio(&server, &warm, Pace::Closed { window: WINDOW }).check(&warm, &mut tally);

    release_free_heap();
    reset_peak_rss();
    let steal_before = cpu_steal_ticks();
    let runs: Vec<(StdioRun, Vec<StdioRun>)> = rounds
        .iter()
        .map(|wire| {
            let open = wire::run_stdio(&server, wire, Pace::Open { rps: OPEN_LOOP_RPS });
            let closed = (0..REPLAYS)
                .map(|_| wire::run_stdio(&server, wire, Pace::Closed { window: WINDOW }))
                .collect();
            (open, closed)
        })
        .collect();
    let peak = peak_rss_mb();
    let steal = steal_pct(steal_before, cpu_steal_ticks());
    let rejected = server.stats().rejected;
    server.shutdown();

    let (mut latency, mut late, mut rps, mut mb_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for ((open, closed), wire) in runs.iter().zip(&rounds) {
        open.check(wire, &mut tally);
        latency.extend(open.latencies_ms());
        late.extend(open.late_ms());
        for replay in closed {
            replay.check(wire, &mut tally);
            let (r, m) = replay.rates(wire);
            rps.push(r);
            mb_s.push(m);
        }
    }
    tally.record(rejected == 0, || format!("serve rejected {rejected} requests"));
    out.put("setup_s", setup_s);
    out.put("parse_mb_s", median(&mb_s));
    out.put("peak_rss_mb", peak);
    out.put("latency_p50_ms", quantile(&latency, 0.5));
    out.put("latency_p99_ms", quantile(&latency, 0.99));
    out.put("saturation_rps", median(&rps));
    let per_round = rounds[0].len();
    out.note(format!(
        "{ROUNDS} rounds of {per_round} requests, each an open loop at {OPEN_LOOP_RPS} req/s \
         then {REPLAYS} closed-loop replays with {WINDOW} in flight, {} worker; latency \
         due→response over all {} open-loop samples ({} beyond p99); rates per replay over \
         {:.3} MB, median over the {} replays (req/s each: {:.1?}); generator late p99 {:.3} ms; \
         host CPU steal {steal:.2}% during the rounds",
        setup::SERVE_WORKERS,
        latency.len(),
        latency.len() / 100,
        rounds[0].input_bytes_total() as f64 / MB,
        rps.len(),
        rps,
        quantile(&late, 0.99),
    ));
    tally
}

/// Breaks valid inputs for `Diagnostics` requests: deletes one token,
/// keeping the result only when it still lexes, memoized packrat
/// rejects it, and a recovering parse repairs it with at least one and
/// at most serve's default error budget of diagnostics.
struct Mutator<'g> {
    lanes: Vec<(&'g Loaded, Scanner, ParseSession<'g, NopHooks>)>,
}

impl<'g> Mutator<'g> {
    fn new(loaded: &'g [Loaded]) -> Mutator<'g> {
        let max_errors = setup::serve_options().max_errors;
        let lanes = loaded
            .iter()
            .map(|l| {
                let scanner = l.grammar.lexer.build().expect("lexer builds");
                let mut session =
                    ParseSession::new(&l.grammar, &l.analysis, l.start_rule(), NopHooks)
                        .expect("lexer builds");
                session.parser().enable_recovery(max_errors);
                (l, scanner, session)
            })
            .collect();
        Mutator { lanes }
    }

    fn mutate(&mut self, gram: Gram, text: &str, rng: &mut Rng64) -> Option<String> {
        let max_errors = setup::serve_options().max_errors;
        let (l, scanner, session) = self.lanes.iter_mut().find(|(l, _, _)| l.gram == gram)?;
        let tokens = scanner.tokenize(text).ok()?;
        if tokens.len() < 2 {
            return None;
        }
        for _ in 0..8 {
            let victim = tokens[rng.gen_range(0..tokens.len() - 1)].span;
            let broken = format!("{} {}", &text[..victim.start], &text[victim.end..]);
            let Ok(lexed) = scanner.tokenize(&broken) else { continue };
            if packrat_accepts(l, lexed) {
                continue;
            }
            if session.parse_to_eof(&broken).is_ok() {
                let errors = session.parser().errors().len();
                if (1..=max_errors).contains(&errors) {
                    return Some(broken);
                }
            }
        }
        None
    }
}
