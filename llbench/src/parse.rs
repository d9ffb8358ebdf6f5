//! The parse workloads: a corpus parsed text→tree through one warm
//! `ParseSession`.

use crate::check::{check_tree, Tally};
use crate::inputs::{self, Gram, PoolRequest};
use crate::setup::{self, Loaded};
use crate::util::{
    cpu_steal_ticks, median, ms, peak_rss_mb, quantile, reset_peak_rss, steal_pct, MB,
};
use crate::{layers, wire, Metrics};
use llstar_core::schema::ServeMode;
use llstar_runtime::{NopHooks, ParseSession};
use std::time::{Duration, Instant};

/// Timed passes over the corpus never stop before this many.
const MIN_PASSES: usize = 3;

/// Open-loop rate of the traced run's serve passes, well below what two
/// workers sustain on these documents.
fn traced_rps(gram: Gram) -> f64 {
    match gram {
        Gram::Java8 => 1.5,
        _ => 60.0,
    }
}

/// Runs `parse-java8` or `parse-json`.
pub fn run(gram: Gram, seed: u64, seconds: f64, traced: bool, out: &mut Metrics) -> Tally {
    let docs = match gram {
        Gram::Java8 => inputs::java8_corpus(seed),
        _ => inputs::json_corpus(seed),
    };
    let (loaded, _) = setup::load(gram);
    let mut tally = Tally::default();
    if traced {
        let layers = setup::trace_setup(&[gram], |loaded| {
            let t0 = Instant::now();
            let sessions: Vec<_> = loaded
                .iter()
                .map(|l| ParseSession::new(&l.grammar, &l.analysis, l.start_rule(), NopHooks))
                .collect();
            let took = t0.elapsed();
            drop(sessions);
            took
        });
        let requests: Vec<PoolRequest> = docs
            .into_iter()
            .map(|input| PoolRequest { grammar: gram, mode: ServeMode::Tree, input })
            .collect();
        let wire = wire::build(std::slice::from_ref(&loaded), &requests);
        layers::run(&[gram], layers, &wire, &wire, traced_rps(gram), seconds, &mut tally, out);
    } else {
        untraced(gram, &loaded, &docs, seconds, &mut tally, out);
    }
    tally
}

fn untraced(
    gram: Gram,
    l: &Loaded,
    docs: &[String],
    seconds: f64,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let setup_s = setup::session_setup_s(gram);
    let scanner = l.grammar.lexer.build().expect("lexer builds");
    let mut session =
        ParseSession::new(&l.grammar, &l.analysis, l.start_rule(), NopHooks).expect("lexer builds");

    // Untimed warm-up pass; its trees are the ones checked in full.
    let mut tokens = Vec::with_capacity(docs.len());
    for doc in docs {
        match session.parse_to_eof(doc) {
            Ok(tree) => {
                check_tree(l, &scanner, doc, &tree, tally);
                tokens.push(Some(tree.token_count()));
            }
            Err(e) => {
                tally.record(false, || format!("{gram:?} warm-up parse: {e}"));
                tokens.push(None);
            }
        }
    }

    let bytes: usize = docs.iter().map(String::len).sum();
    reset_peak_rss();
    let steal_before = cpu_steal_ticks();
    let mut pass_s = Vec::new();
    let mut latency_ms = Vec::new();
    let (mut p50_ms, mut p99_ms) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while pass_s.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let mut busy = Duration::ZERO;
        latency_ms.clear();
        for (doc, expected) in docs.iter().zip(&tokens) {
            let started = Instant::now();
            let result = session.parse_to_eof(doc);
            let took = started.elapsed();
            busy += took;
            latency_ms.push(ms(took));
            let same =
                matches!((&result, expected), (Ok(tree), Some(n)) if tree.token_count() == *n);
            tally.record(same, || format!("{gram:?} timed parse differs from warm-up"));
        }
        pass_s.push(busy.as_secs_f64());
        p50_ms.push(quantile(&latency_ms, 0.5));
        p99_ms.push(quantile(&latency_ms, 0.99));
    }
    let peak = peak_rss_mb();
    let steal = steal_pct(steal_before, cpu_steal_ticks());

    let pass = median(&pass_s);
    out.put("setup_s", setup_s);
    out.put("parse_mb_s", bytes as f64 / MB / pass);
    out.put("peak_rss_mb", peak);
    out.put("latency_p50_ms", median(&p50_ms));
    out.put("latency_p99_ms", median(&p99_ms));
    out.put("saturation_rps", docs.len() as f64 / pass);
    out.note(format!(
        "{} documents, {:.3} MB per pass, {} timed passes; latency is per document text→tree, \
         quantiles over each pass's {} samples, median over passes; saturation_rps is documents \
         per second through one session; host CPU steal {steal:.2}% during the timed passes",
        docs.len(),
        bytes as f64 / MB,
        pass_s.len(),
        docs.len()
    ));
}
