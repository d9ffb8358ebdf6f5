//! The llstar benchmark. One command per run:
//!
//! ```text
//! cargo run --release --manifest-path llbench/Cargo.toml -- \
//!     --workload <parse-java8|parse-json|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It generates the workload's inputs from the seed, measures for about
//! `--seconds`, checks every output against an independent engine or a
//! direct parse, and prints one metric per line followed by a JSON
//! result line. `--trace 0` prints the end-to-end metrics (nothing
//! traced); `--trace 1` runs the traced measurements and prints the
//! per-layer metrics. The metric names and units are read from
//! `BENCHMARK.json` at build time, and a run that produces any other set
//! fails. See `llbench/README.md` for what each metric means.

mod check;
mod inputs;
mod layers;
mod parse;
mod provenance;
mod servemix;
mod setup;
mod trace;
mod util;
mod wire;

use inputs::Gram;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// Metric values in the order they were measured, plus notes printed
/// alongside them.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(!self.values.iter().any(|(n, _)| *n == name), "metric {name} measured twice");
        self.values.push((name, value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON.find(&format!("\"{section}\"")).expect("section in BENCHMARK.json");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("metric field") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("llbench: {e}");
            std::process::exit(2);
        }
    };
    let stamp = provenance::stamp(args.seed);
    let mut metrics = Metrics::default();
    let mut tally = match args.workload.as_str() {
        "parse-java8" => parse::run(Gram::Java8, args.seed, args.seconds, args.trace, &mut metrics),
        "parse-json" => parse::run(Gram::Json, args.seed, args.seconds, args.trace, &mut metrics),
        "serve-mix" => servemix::run(args.seed, args.seconds, args.trace, &mut metrics),
        other => {
            eprintln!("llbench: unknown workload {other:?} (parse-java8, parse-json, serve-mix)");
            std::process::exit(2);
        }
    };

    let section = if args.trace { "per_layer" } else { "end_to_end" };
    let declared = declared(section);
    let mut measured: Vec<&str> = metrics.values.iter().map(|(n, _)| *n).collect();
    let mut names: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    measured.sort_unstable();
    names.sort_unstable();
    assert_eq!(measured, names, "measured metrics differ from BENCHMARK.json {section}");
    for (name, value) in &metrics.values {
        tally.record(value.is_finite(), || format!("metric {name} is {value}"));
    }

    println!("provenance {stamp}");
    println!("workload {} seed {} trace {}", args.workload, args.seed, args.trace as u8);
    for (name, unit) in &declared {
        let value = metrics.values.iter().find(|(n, _)| n == name).expect("checked above").1;
        println!("{name} {value} {unit}");
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "error_rate {error_rate} ratio ({} failed of {} attempted)",
        tally.failed, tally.attempted
    );
    for note in &metrics.notes {
        println!("note: {note}");
    }
    let body: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = metrics.values.iter().find(|(n, _)| n == name).expect("checked above").1;
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

/// A JSON number for `v`. JSON has no non-finite numbers; those print
/// as -1 and were counted as failures.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}
