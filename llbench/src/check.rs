//! Output checks, run outside every timed section. The packrat
//! recognizer (memoized) is the independent engine: it shares no
//! prediction code with the LL(*) runtime.

use crate::setup::Loaded;
use llstar_lexer::{Scanner, Token};
use llstar_packrat::PackratParser;
use llstar_runtime::ParseTree;

/// Tally of checked operations.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it failed too.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {}", what());
            }
        }
    }
}

/// Whether memoized packrat recognizes `tokens` (the scanner's
/// output, EOF included) from the grammar's start rule.
pub fn packrat_accepts(l: &Loaded, tokens: Vec<Token>) -> bool {
    let mut parser = PackratParser::new(&l.grammar, tokens);
    parser.set_memoize(true);
    parser.recognize(l.start_rule()).is_ok()
}

/// Checks one parsed document: packrat must accept the input and the
/// tree's leaves, in order, must be the lexed non-skip tokens (EOF
/// excluded on both sides; grammars that match `EOF` keep it as a leaf).
pub fn check_tree(l: &Loaded, scanner: &Scanner, input: &str, tree: &ParseTree, tally: &mut Tally) {
    let ok = match scanner.tokenize(input) {
        Ok(tokens) => {
            let leaves: Vec<Token> =
                tree.leaves().into_iter().filter(|t| !t.ttype.is_eof()).collect();
            leaves == tokens[..tokens.len() - 1] && packrat_accepts(l, tokens)
        }
        Err(_) => false,
    };
    tally.record(ok, || {
        format!("{:?}: packrat or leaf check of a {}-byte input", l.gram, input.len())
    });
}
