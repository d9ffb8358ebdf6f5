//! Set-up: grammar text to ready-to-parse, the path every workload's
//! `setup_s` times and the traced run splits into layers.

use crate::inputs::Gram;
use crate::util::{median, ms, timed};
use llstar_core::{analyze_with, AnalysisOptions, GrammarAnalysis};
use llstar_grammar::{apply_peg_mode, parse_grammar, validate, Grammar};
use llstar_runtime::{NopHooks, ParseSession};
use llstar_serve::{GrammarEntry, ServeOptions, Server};
use std::time::{Duration, Instant};

/// One grammar, parsed and analyzed.
pub struct Loaded {
    pub gram: Gram,
    pub grammar: Grammar,
    pub analysis: GrammarAnalysis,
}

impl Loaded {
    /// The start rule every parse of this grammar begins at.
    pub fn start_rule(&self) -> &'static str {
        self.gram.entry().start_rule
    }
}

/// Per-layer set-up times of one grammar, from the traced chain.
#[derive(Default, Clone, Copy)]
pub struct LayerTimes {
    /// `parse_grammar` + `apply_peg_mode` + `validate`.
    pub load: Duration,
    /// `analyze_with`.
    pub analyze: Duration,
    /// One `Lexer::build` (the scanner build).
    pub lexer: Duration,
}

/// Loads `gram` from its grammar text, timing each layer.
pub fn load(gram: Gram) -> (Loaded, LayerTimes) {
    let (grammar, load) = timed(|| {
        let g =
            apply_peg_mode(parse_grammar(gram.entry().source).expect("gauntlet grammar parses"));
        let errors = validate(&g).into_iter().filter(|i| i.is_error()).count();
        assert_eq!(errors, 0, "{gram:?}: gauntlet grammar has validation errors");
        g
    });
    let (analysis, analyze) =
        timed(|| analyze_with(&grammar, &AnalysisOptions::from_grammar(&grammar)));
    let (scanner, lexer) = timed(|| grammar.lexer.build());
    scanner.expect("gauntlet lexer builds");
    (Loaded { gram, grammar, analysis }, LayerTimes { load, analyze, lexer })
}

/// Workers of every server the benchmark starts.
pub const SERVE_WORKERS: usize = 1;

/// Server options for every serve run: one worker, nothing recorded
/// beyond the always-on metrics. One worker leaves a core for the
/// transport's reader and writer threads on a 2-core host; more workers
/// than spare cores measure the scheduler, not the server.
pub fn serve_options() -> ServeOptions {
    ServeOptions { workers: SERVE_WORKERS, queue_capacity: 256, ..ServeOptions::default() }
}

/// Wraps loaded grammars as serve entries (what `load_grammars` yields).
pub fn entries(loaded: Vec<Loaded>) -> Vec<GrammarEntry> {
    loaded
        .into_iter()
        .map(|l| {
            let start_rule = l.grammar.start_rule().name.clone();
            GrammarEntry {
                name: l.grammar.name.clone(),
                grammar: l.grammar,
                analysis: l.analysis,
                start_rule,
                cache_status: None,
            }
        })
        .collect()
}

/// Cold set-ups per median: at least this many, and more until
/// [`SETUP_MIN_S`] has passed (cheap grammars set up in a millisecond).
pub const SETUP_REPS: usize = 7;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 2000;

/// Median of repeated `once()` timings (seconds), per the rules above.
fn median_setup(mut once: impl FnMut() -> f64) -> f64 {
    let t0 = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < SETUP_REPS
        || (t0.elapsed().as_secs_f64() < SETUP_MIN_S && secs.len() < SETUP_MAX_REPS)
    {
        secs.push(once());
    }
    median(&secs)
}

/// Median seconds from grammar text to a ready [`ParseSession`].
pub fn session_setup_s(gram: Gram) -> f64 {
    median_setup(|| {
        let t0 = Instant::now();
        let (l, _) = load(gram);
        let session = ParseSession::new(&l.grammar, &l.analysis, l.start_rule(), NopHooks)
            .expect("lexer builds");
        let s = t0.elapsed().as_secs_f64();
        drop(session);
        s
    })
}

/// Median seconds from grammar files to a started [`Server`]
/// (`load_grammars` + `Server::start`); shutdown is not timed.
pub fn server_setup_s(grams: &[Gram]) -> f64 {
    let paths: Vec<String> = grams.iter().map(|g| g.path()).collect();
    median_setup(|| {
        let t0 = Instant::now();
        let entries = llstar_serve::load_grammars(&paths, None, None).expect("grammars load");
        let server = Server::start(entries, serve_options()).expect("server starts");
        let s = t0.elapsed().as_secs_f64();
        server.shutdown();
        s
    })
}

/// Set-up layer metrics for the traced run, over every grammar of the
/// workload: medians of [`SETUP_REPS`] traced chains, the analysis
/// counters, and a code generation pass (kept out of `setup_s`).
pub struct SetupLayers {
    pub load_ms: f64,
    pub analyze_ms: f64,
    pub lexer_build_ms: f64,
    pub session_ms: f64,
    pub closure_calls: u64,
    pub dfa_states: u64,
    pub backtracking_decisions: u64,
    pub table_bytes: u64,
    pub codegen_ms: f64,
    pub codegen_bytes: u64,
}

/// Traces the set-up of `grams`; `session` times the last step (a
/// `ParseSession::new` per grammar, or one `Server::start`).
pub fn trace_setup(grams: &[Gram], session: impl Fn(Vec<Loaded>) -> Duration) -> SetupLayers {
    let mut load_ms = Vec::new();
    let mut analyze_ms = Vec::new();
    let mut lexer_ms = Vec::new();
    let mut session_ms = Vec::new();
    for _ in 0..SETUP_REPS {
        let mut t = LayerTimes::default();
        let loaded: Vec<Loaded> = grams
            .iter()
            .map(|&g| {
                let (l, times) = load(g);
                t.load += times.load;
                t.analyze += times.analyze;
                t.lexer += times.lexer;
                l
            })
            .collect();
        load_ms.push(ms(t.load));
        analyze_ms.push(ms(t.analyze));
        lexer_ms.push(ms(t.lexer));
        session_ms.push(ms(session(loaded)));
    }
    let last: Vec<Loaded> = grams.iter().map(|&g| load(g).0).collect();
    let mut layers = SetupLayers {
        load_ms: median(&load_ms),
        analyze_ms: median(&analyze_ms),
        lexer_build_ms: median(&lexer_ms),
        session_ms: median(&session_ms),
        closure_calls: 0,
        dfa_states: 0,
        backtracking_decisions: 0,
        table_bytes: 0,
        codegen_ms: 0.0,
        codegen_bytes: 0,
    };
    for l in &last {
        let totals = l.analysis.total_metrics();
        layers.closure_calls += totals.closure_calls;
        layers.dfa_states += totals.dfa_states;
        layers.backtracking_decisions +=
            l.analysis.decisions.iter().filter(|d| d.dfa.uses_backtrack()).count() as u64;
        layers.table_bytes +=
            l.analysis.tables.dfas().iter().map(|d| d.table_bytes() as u64).sum::<u64>();
        let (source, took) = timed(|| llstar_codegen::generate(&l.grammar, &l.analysis));
        layers.codegen_ms += ms(took);
        layers.codegen_bytes += source.expect("gauntlet grammar generates").len() as u64;
    }
    layers
}
