//! Rule `determinism`: no hash-order iteration on estimator paths.
//!
//! `HashMap`/`HashSet` iteration order is randomized per process, so any
//! estimator arithmetic that folds over it (summing corrections, picking
//! "the first" seed, draining a frontier) silently breaks bit-for-bit
//! reproducibility — the exact failure mode PAPERS.md's Katzir-style
//! estimators die from. The keyless `IdMap`/`IdSet` aliases
//! (`microblog_graph::idhash`) iterate in an order fixed by the key set
//! but set by the hasher and the table's growth history, not by anything
//! the estimator means, so they count as hash collections too. On the
//! configured estimator/walker paths this rule flags iteration over
//! identifiers it saw declared as hash collections in the same file;
//! point lookups (`get`/`insert`/`contains`) stay free. Switch to
//! `BTreeMap`, sort before folding, or annotate why ordering cannot feed
//! arithmetic.

use crate::config::Config;
use crate::context::{FileCtx, Finding};
use std::collections::BTreeSet;

/// Type names of hash collections: std's and the id-hashed aliases.
const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "IdMap", "IdSet"];

/// Methods whose results depend on hash iteration order.
const ORDER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Scans estimator-path files for hash-order iteration.
pub fn check(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    if !Config::matches(ctx.path, &cfg.determinism_paths) {
        return;
    }
    let names = hash_typed_names(ctx);
    if names.is_empty() {
        return;
    }
    let toks = &ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.is_test_code(i) {
            continue;
        }
        // `name.iter()` / `self.name.drain(…)` — receiver's last segment
        // is a known hash collection.
        if let Some(m) = t.ident().filter(|m| ORDER_METHODS.contains(m)) {
            let recv = i
                .checked_sub(2)
                .and_then(|r| toks[r].ident())
                .filter(|_| toks[i - 1].is_punct('.'));
            if let Some(name) = recv {
                if names.contains(name) && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                    ctx.emit(
                        out,
                        "determinism",
                        t.line,
                        format!(
                            "`{name}.{m}(…)` iterates a hash collection in estimator code; \
                             hash order is nondeterministic"
                        ),
                    );
                }
            }
        }
        // `for x in [&mut] [self.]name {` — direct loop over the collection.
        if t.is_ident("for") {
            let mut j = i + 1;
            let mut last_ident: Option<&str> = None;
            let mut saw_call = false;
            while let Some(tok) = toks.get(j) {
                if tok.is_punct('{') {
                    break;
                }
                if tok.is_punct('(') {
                    saw_call = true;
                }
                if tok.is_punct(';') {
                    // Not a for-loop header after all.
                    last_ident = None;
                    break;
                }
                if let Some(id) = tok.ident() {
                    last_ident = Some(id);
                }
                j += 1;
                if j > i + 40 {
                    last_ident = None;
                    break;
                }
            }
            if let (Some(name), false) = (last_ident, saw_call) {
                if names.contains(name) {
                    ctx.emit(
                        out,
                        "determinism",
                        t.line,
                        format!(
                            "`for … in {name}` iterates a hash collection in estimator \
                             code; hash order is nondeterministic"
                        ),
                    );
                }
            }
        }
    }
}

/// Identifiers declared in this file with a [`HASH_TYPES`] type:
/// `name: [path::]HashMap<…>` (fields, params, annotated lets) and
/// `[let [mut]] name = IdMap::default()`-style constructions.
fn hash_typed_names(ctx: &FileCtx) -> BTreeSet<String> {
    let toks = &ctx.tokens;
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.ident().is_some_and(|id| HASH_TYPES.contains(&id)) {
            continue;
        }
        // Walk back over an optional `std :: collections ::` path.
        let mut j = i;
        while j >= 2
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && j >= 3
            && toks[j - 3].ident().is_some()
        {
            j -= 3;
        }
        let Some(before) = j.checked_sub(1) else {
            continue;
        };
        if toks[before].is_punct(':') {
            // `name : HashMap` — but not a path `::`.
            if before >= 1 && toks[before - 1].is_punct(':') {
                continue;
            }
            if let Some(name) = before.checked_sub(1).and_then(|k| toks[k].ident()) {
                names.insert(name.to_string());
            }
        } else if toks[before].is_punct('=') {
            // `name = HashMap::new()` / `let mut name = …`.
            if let Some(name) = before.checked_sub(1).and_then(|k| toks[k].ident()) {
                names.insert(name.to_string());
            }
        }
    }
    names
}
