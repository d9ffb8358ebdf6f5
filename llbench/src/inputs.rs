//! Seeded inputs: the two parse corpora and the serve-mix request pool.
//! Everything here runs before any timed section; the same seed gives
//! byte-identical inputs.

use crate::util::mix;
use llstar_core::schema::ServeMode;
use llstar_rng::Rng64;
use llstar_suite::gauntlet::{self, GauntletEntry, Tier};

/// The three gauntlet grammars.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gram {
    Java8,
    Sql,
    Json,
}

impl Gram {
    /// Every grammar, in the order the serve-mix server loads them.
    pub const ALL: [Gram; 3] = [Gram::Java8, Gram::Sql, Gram::Json];

    /// The gauntlet entry (grammar text, start rule, generator).
    pub fn entry(self) -> GauntletEntry {
        let name = match self {
            Gram::Java8 => "java8",
            Gram::Sql => "sql",
            Gram::Json => "json",
        };
        gauntlet::by_name(name).expect("gauntlet grammar exists")
    }

    /// The serve route key: the grammar's `grammar Name;` declaration.
    pub fn route(self) -> &'static str {
        match self {
            Gram::Java8 => "GauntletJava8",
            Gram::Sql => "GauntletSql",
            Gram::Json => "GauntletJson",
        }
    }

    /// The grammar file `llstar_serve::load_grammars` reads.
    pub fn path(self) -> String {
        let file = match self {
            Gram::Java8 => "java8.g",
            Gram::Sql => "sql.g",
            Gram::Json => "json.g",
        };
        format!("{}/../grammars/gauntlet/{file}", env!("CARGO_MANIFEST_DIR"))
    }
}

/// `parse-json` corpus shape: 256 files of 64 KB, 16 MB in all.
pub const JSON_FILES: usize = 256;
const JSON_FILE_BYTES: usize = 64 << 10;

/// The `parse-java8` corpus: the gauntlet's 1 MB tier (4 files).
pub fn java8_corpus(seed: u64) -> Vec<String> {
    gauntlet::corpus(&Gram::Java8.entry(), Tier::Mega, seed).into_iter().map(|(_, t)| t).collect()
}

/// The `parse-json` corpus: [`JSON_FILES`] generated JSON documents.
pub fn json_corpus(seed: u64) -> Vec<String> {
    (0..JSON_FILES as u64).map(|i| gauntlet::generate_json(JSON_FILE_BYTES, mix(seed, i))).collect()
}

/// One serve-mix request before it is encoded for the wire.
#[derive(Clone, Debug)]
pub struct PoolRequest {
    pub grammar: Gram,
    pub mode: ServeMode,
    pub input: String,
}

/// Draws the request mix for `n` requests: grammar by exact count (json
/// 60%, sql 30%, java8 10%), `Diagnostics` mode for exactly 10%, and
/// sizes log-uniform in 1–16 KB, stratified per grammar so every seed
/// offers the same amount of work; the order is a seeded shuffle.
fn draws(rng: &mut Rng64, n: usize) -> Vec<(Gram, ServeMode, usize)> {
    let java8 = n / 10;
    let sql = n * 3 / 10;
    let mut out = Vec::with_capacity(n);
    for (gram, count) in [(Gram::Java8, java8), (Gram::Sql, sql), (Gram::Json, n - java8 - sql)] {
        for j in 0..count {
            let unit = (j as f64 + uniform(rng)) / count as f64;
            out.push((gram, ServeMode::Tree, (1024.0 * 16f64.powf(unit)) as usize));
        }
    }
    shuffle(rng, &mut out);
    for d in out.iter_mut().take(n / 10) {
        d.1 = ServeMode::Diagnostics;
    }
    shuffle(rng, &mut out);
    out
}

fn uniform(rng: &mut Rng64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn shuffle<T>(rng: &mut Rng64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Cuts large generated documents into request-sized inputs at
/// top-level boundaries, so inputs are cheap to make and all distinct:
/// java8 type declarations under the package/import header, sql
/// statements, and json record batches inside one object.
struct Slicer {
    gram: Gram,
    seed: u64,
    docs: u64,
    header: String,
    footer: &'static str,
    units: Vec<String>,
    next: usize,
}

impl Slicer {
    fn new(gram: Gram, seed: u64, bytes: usize) -> Slicer {
        let mut s = Slicer {
            gram,
            seed,
            docs: 0,
            header: String::new(),
            footer: if gram == Gram::Json { "  \"complete\": true\n}\n" } else { "" },
            units: Vec::new(),
            next: 0,
        };
        s.refill(bytes);
        s
    }

    /// Generates one more document of `bytes` and splits it into units.
    fn refill(&mut self, bytes: usize) {
        let text = (self.gram.entry().generate)(bytes.max(64 << 10), mix(self.seed, self.docs));
        self.docs += 1;
        let mut header = String::new();
        let mut unit = String::new();
        let mut in_body = false;
        for line in text.lines() {
            match self.gram {
                Gram::Java8 => {
                    if !in_body && header_line(line) {
                        header.push_str(line);
                        header.push('\n');
                        continue;
                    }
                    in_body = true;
                    if line.is_empty() && unit.is_empty() {
                        continue;
                    }
                    unit.push_str(line);
                    unit.push('\n');
                    if line == "}" {
                        self.units.push(std::mem::take(&mut unit));
                    }
                }
                Gram::Sql => {
                    if !line.trim().is_empty() {
                        self.units.push(format!("{line}\n"));
                    }
                }
                Gram::Json => {
                    if line.trim_start().starts_with("\"batch") {
                        self.units.push(format!("{line}\n"));
                    }
                }
            }
        }
        if self.header.is_empty() {
            self.header = match self.gram {
                Gram::Java8 => header,
                Gram::Sql => String::new(),
                Gram::Json => "{\n".to_string(),
            };
        }
    }

    /// The next unused units, joined until the input reaches `target`
    /// bytes (at least one unit).
    fn take(&mut self, target: usize) -> String {
        let mut out = self.header.clone();
        loop {
            if self.next == self.units.len() {
                self.refill(256 << 10);
            }
            out.push_str(&self.units[self.next]);
            self.next += 1;
            if out.len() + self.footer.len() >= target {
                break;
            }
        }
        out.push_str(self.footer);
        out
    }
}

fn header_line(line: &str) -> bool {
    line.starts_with("package ") || line.starts_with("import ") || line.is_empty()
}

/// Draws groups of requests (one per entry of `sizes`, each with the
/// exact mix of [`draws`]) from shared slicers, so every input is
/// distinct across all groups. `mutate` turns a valid input into a
/// rejected one for `Diagnostics` requests (returning `None` when it
/// cannot); the draw is retried on a fresh slice until it succeeds.
pub fn request_pool(
    seed: u64,
    sizes: &[usize],
    mut mutate: impl FnMut(Gram, &str, &mut Rng64) -> Option<String>,
) -> Vec<Vec<PoolRequest>> {
    let mut rng = Rng64::seed_from_u64(mix(seed, 0x5e12e));
    let groups: Vec<Vec<(Gram, ServeMode, usize)>> =
        sizes.iter().map(|&n| draws(&mut rng, n)).collect();
    let mut slicers: Vec<Slicer> = Gram::ALL
        .iter()
        .enumerate()
        .map(|(i, &g)| {
            let need: usize = groups.iter().flatten().filter(|d| d.0 == g).map(|d| d.2).sum();
            Slicer::new(g, mix(seed, 100 + i as u64), need + need / 4)
        })
        .collect();
    groups
        .into_iter()
        .map(|group| {
            group
                .into_iter()
                .map(|(gram, mode, size)| {
                    let at = Gram::ALL.iter().position(|&g| g == gram).expect("known grammar");
                    let slicer = &mut slicers[at];
                    let input = match mode {
                        ServeMode::Diagnostics => loop {
                            let valid = slicer.take(size);
                            if let Some(broken) = mutate(gram, &valid, &mut rng) {
                                break broken;
                            }
                        },
                        _ => slicer.take(size),
                    };
                    PoolRequest { grammar: gram, mode, input }
                })
                .collect()
        })
        .collect()
}
