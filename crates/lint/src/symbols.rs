//! Per-file symbol extraction: the facts the call graph is built from.
//!
//! One pass over a file's [`FileCtx`] produces an owned [`FileSymbols`]:
//! every function definition (qualified by enclosing `impl`/`trait` type
//! and by a file-derived module name), every call site inside it with a
//! best-effort receiver classification, the function's *direct* effect
//! facts (raw fetch, fs mutation, RNG use, charging, lock acquisition),
//! plus struct definitions/uses for the `checkpoint-coverage` rule.
//!
//! Extraction is deliberately lossy — it rides the same token stream the
//! rules use — but it only has to be precise enough for the resolution
//! heuristics in [`crate::callgraph`] (documented there, with their known
//! unsoundness) to reconstruct this workspace's call edges.

use crate::config::FileRole;
use crate::context::{matching_brace, FileCtx, Suppression};
use crate::lexer::Token;
use crate::rules::lock_order;
use std::collections::BTreeMap;

/// Uncharged data-access methods: `ApiBackend` fetches and raw
/// `Platform` accessors. Shared by the `charging` and `lock-across-call`
/// rules and by call-graph fact seeding.
pub const RAW_METHODS: [&str; 7] = [
    "fetch_search",
    "fetch_timeline",
    "fetch_connections",
    "search_posts",
    "timeline",
    "followers",
    "followees",
];

/// `std::fs` free functions that mutate the filesystem (read-side
/// functions are fine). Shared by `fs-write` and fact seeding.
pub const FS_WRITE_FNS: [&str; 9] = [
    "write",
    "create_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "rename",
    "copy",
    "set_permissions",
];

/// RNG constructors (path or method position). `thread_rng` and
/// `from_entropy` are unseedable and therefore banned outright by
/// `rng-confinement`; the seeded ones are confined to sampler seams.
pub const RNG_CONSTRUCTORS: [&str; 6] = [
    "thread_rng",
    "from_entropy",
    "from_seed",
    "seed_from_u64",
    "from_rng",
    "from_state",
];

/// RNG draw methods (method position only).
pub const RNG_DRAWS: [&str; 9] = [
    "gen",
    "gen_range",
    "gen_bool",
    "gen_ratio",
    "next_u32",
    "next_u64",
    "next_f64",
    "fill_bytes",
    "random",
];

/// The per-function summary lattice: one bit per effect. Facts are
/// seeded here from direct evidence and propagated transitively by
/// [`crate::callgraph::CallGraph`].
pub const FACT_FETCH: usize = 0;
/// Mutates the filesystem directly.
pub const FACT_FSWRITE: usize = 1;
/// Constructs or draws from an RNG directly.
pub const FACT_RNG: usize = 2;
/// Acquires a `Mutex`/`RwLock` declared in its file.
pub const FACT_LOCK: usize = 3;
/// Calls into the charging seam (`.charge(…)` / `trace_charge`).
pub const FACT_CHARGE: usize = 4;
/// Number of facts in the lattice.
pub const FACT_COUNT: usize = 5;

/// A function's direct effect facts, one bit each.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Facts(pub u8);

impl Facts {
    /// Sets fact `f`.
    pub fn set(&mut self, f: usize) {
        self.0 |= 1 << f;
    }

    /// Whether fact `f` is set.
    pub fn has(self, f: usize) -> bool {
        self.0 & (1 << f) != 0
    }
}

/// How a call's receiver was classified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Receiver {
    /// `self.method(…)` — resolve against the caller's `impl` type.
    SelfType,
    /// `x.method(…)` where `x`'s type was recovered from a parameter,
    /// `let` binding or struct field: resolve against that type.
    Typed(String),
    /// `module::function(…)` with a lowercase path head.
    Module(String),
    /// `function(…)` with no path — same-file first, then unique global.
    Bare,
    /// Receiver unknown (chained calls, temporaries): resolved only when
    /// the name is globally unique and not a common std method.
    Opaque,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The called name (method or function).
    pub name: String,
    /// Receiver classification.
    pub recv: Receiver,
    /// 1-based line of the call.
    pub line: u32,
    /// Lock fields whose guards are live at this call (guard model
    /// shared with `lock-order`).
    pub guards: Vec<String>,
    /// Whether the call sits in test-gated code.
    pub in_test: bool,
}

/// One function definition with its summary seed.
#[derive(Clone, Debug)]
pub struct FnSym {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, when any.
    pub impl_type: Option<String>,
    /// File-derived module name (`srw.rs` → `srw`, `lib.rs` → crate dir).
    pub module: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the definition is test-gated.
    pub is_test: bool,
    /// Whether the file is library code (vs test/bin/example/bench).
    pub library: bool,
    /// Direct effect facts.
    pub facts: Facts,
    /// Witness text per direct fact (for hop-chain messages).
    pub why: [Option<String>; FACT_COUNT],
    /// 1-based line of each fact's first direct evidence (for checking
    /// whether an inline suppression at the source seals the chain).
    pub fact_line: [Option<u32>; FACT_COUNT],
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
}

/// A struct definition (used by `checkpoint-coverage`).
#[derive(Clone, Debug)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields, in order (empty for tuple/unit structs).
    pub fields: Vec<String>,
    /// Idents inside the attributes directly above the definition
    /// (derive lists land here: `Serialize`, `Deserialize`, …).
    pub attr_idents: Vec<String>,
    /// Lines of `skip`-carrying attributes *inside* the body (a
    /// `#[serde(skip)]` field silently drops state from checkpoints).
    pub skip_attr_lines: Vec<u32>,
}

/// A struct literal or pattern (`Name { … }`) observed in code.
#[derive(Clone, Debug)]
pub struct StructUse {
    /// The struct name.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Whether the body contains a `..` rest (functional update in a
    /// literal, rest pattern in a match/let).
    pub has_rest: bool,
    /// Whether the use sits in test-gated code.
    pub in_test: bool,
}

/// Everything the workspace phase needs from one file.
#[derive(Clone, Debug)]
pub struct FileSymbols {
    /// Workspace-relative path.
    pub file: String,
    /// File role (test/bin/example/bench classification).
    pub role: FileRole,
    /// File-derived module name.
    pub module: String,
    /// Function definitions.
    pub fns: Vec<FnSym>,
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Struct literal/pattern uses.
    pub struct_uses: Vec<StructUse>,
    /// Inline suppressions, copied so workspace-phase findings honor
    /// `ma-lint: allow(...)` the same way per-file rules do.
    pub suppressions: Vec<Suppression>,
}

impl FileSymbols {
    /// Whether a workspace-phase finding of `rule` at `line` is covered
    /// by an inline directive in this file.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rules.iter().any(|r| r == rule) && (s.whole_file || s.lines.contains(&line)))
    }
}

/// Keywords that can precede `(` without being a call.
const KEYWORDS: [&str; 24] = [
    "if", "else", "while", "match", "for", "loop", "return", "let", "in", "as", "mut", "ref",
    "move", "fn", "impl", "trait", "struct", "enum", "mod", "where", "use", "pub", "unsafe",
    "await",
];

/// Type-position wrappers unwrapped when recovering a receiver type
/// (`Arc<Mutex<T>>` → follow into the generics; the lock itself is
/// handled by the guard model, not the type map).
const TYPE_WRAPPERS: [&str; 7] = ["Arc", "Rc", "Box", "Option", "RefCell", "Cell", "Vec"];

/// Extracts this file's symbols from an already-built context.
pub fn extract(ctx: &FileCtx) -> FileSymbols {
    let toks = &ctx.tokens;
    let impls = impl_ranges(toks);
    let (structs, field_types) = struct_defs(ctx);
    let struct_uses = struct_uses(ctx);
    let lock_fields = lock_order::lock_fields(ctx);
    let module = module_name(ctx.path);
    let mut fns = Vec::new();
    for f in &ctx.fns {
        let name = match toks.get(f.fn_idx + 1).and_then(|t| t.ident()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        let impl_type = impls
            .iter()
            .filter(|(open, close, _)| *open < f.fn_idx && f.body_close <= *close)
            .min_by_key(|(open, close, _)| close - open)
            .map(|(_, _, ty)| ty.clone());
        let mut sym = FnSym {
            name,
            impl_type,
            module: module.clone(),
            file: ctx.path.to_string(),
            line: toks[f.fn_idx].line,
            is_test: ctx.is_test_code(f.fn_idx),
            library: ctx.role.is_library(),
            facts: Facts::default(),
            why: Default::default(),
            fact_line: Default::default(),
            calls: Vec::new(),
        };
        let locals = param_types(toks, f.fn_idx, f.body_open);
        scan_body(ctx, f, &locals, &field_types, &lock_fields, &mut sym);
        fns.push(sym);
    }
    FileSymbols {
        file: ctx.path.to_string(),
        role: ctx.role,
        module,
        fns,
        structs,
        struct_uses,
        suppressions: ctx.suppressions.clone(),
    }
}

/// File path → module name: the file stem, except `mod.rs`/`lib.rs`/
/// `main.rs`, which take their directory's name (for `lib.rs` that is
/// `src`, so we go one more level up to the crate directory).
fn module_name(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    let stem = parts
        .last()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    if stem != "mod" && stem != "lib" && stem != "main" {
        return stem.to_string();
    }
    let mut dirs = parts[..parts.len() - 1].iter().rev();
    match dirs.next() {
        Some(&"src") => dirs.next().copied().unwrap_or("").to_string(),
        Some(d) => d.to_string(),
        None => String::new(),
    }
}

/// Finds `impl`/`trait` body token ranges with the implemented type's
/// name (`impl Trait for Type` → `Type`; `trait Name` → `Name`, so
/// default methods resolve against the trait).
fn impl_ranges(toks: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let kw_impl = toks[i].is_ident("impl");
        let kw_trait = toks[i].is_ident("trait");
        if !kw_impl && !kw_trait {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip the generic parameter list.
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            let mut angle = 0i32;
            while let Some(t) = toks.get(j) {
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Read type paths up to the body `{`; the segment after `for`
        // (when present) names the implementing type.
        let mut ty: Option<String> = None;
        let mut in_where = false;
        let mut angle = 0i32;
        while let Some(t) = toks.get(j) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0 {
                if t.is_punct('{') {
                    break;
                }
                if t.is_punct(';') {
                    // A bodyless `impl`/`trait` declaration: nothing to index.
                    ty = None;
                    break;
                }
                if t.is_ident("for") {
                    // `impl Trait for Type`: the implementing type follows.
                    ty = None;
                } else if t.is_ident("where") {
                    // Bound idents must not overwrite the captured type.
                    in_where = true;
                } else if let Some(id) = t.ident() {
                    if !in_where {
                        ty = Some(id.to_string());
                    }
                }
            }
            j += 1;
        }
        if let (Some(ty), Some(open)) = (
            ty,
            toks.get(j).is_some_and(|t| t.is_punct('{')).then_some(j),
        ) {
            if let Some(close) = matching_brace(toks, open) {
                out.push((open, close, ty));
                // Nested impls (e.g. inside fn bodies) are rare; keep
                // scanning from inside so they are still indexed.
                i = open + 1;
                continue;
            }
        }
        i = j + 1;
    }
    out
}

/// Parses the receiver-relevant head of a type expression starting at
/// `j`: skips `&`/`mut`/`dyn`/`impl`/lifetimes, descends through one
/// layer of wrapper generics, and follows `::` paths to their last
/// segment. `&mut Arc<api::MicroblogClient>` → `MicroblogClient`.
fn type_head(toks: &[Token], mut j: usize, end: usize) -> Option<String> {
    let mut hops = 0;
    while j < end && hops < 32 {
        hops += 1;
        let t = toks.get(j)?;
        if t.is_punct('&') || t.is_punct('*') || t.kind == crate::lexer::TokenKind::Lifetime {
            j += 1;
            continue;
        }
        if t.is_ident("mut") || t.is_ident("dyn") || t.is_ident("impl") || t.is_ident("const") {
            j += 1;
            continue;
        }
        let id = t.ident()?;
        // Wrapper with generics: descend.
        if TYPE_WRAPPERS.contains(&id) && toks.get(j + 1).is_some_and(|t| t.is_punct('<')) {
            j += 2;
            continue;
        }
        // Path: follow `a::b::C` to the last segment.
        let mut last = id.to_string();
        let mut k = j;
        while toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
        {
            match toks.get(k + 3).and_then(|t| t.ident()) {
                Some(seg) => {
                    last = seg.to_string();
                    k += 3;
                }
                None => break,
            }
        }
        return Some(last);
    }
    None
}

/// Recovers `name → type` for the function's parameters (the signature
/// between the name's `(` and its matching `)`).
fn param_types(toks: &[Token], fn_idx: usize, body_open: usize) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut open = None;
    for (k, t) in toks.iter().enumerate().take(body_open).skip(fn_idx) {
        if t.is_punct('(') {
            open = Some(k);
            break;
        }
    }
    let Some(open) = open else { return out };
    let mut depth = 0i32;
    let mut close = open;
    for (k, t) in toks.iter().enumerate().take(body_open + 1).skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                close = k;
                break;
            }
        }
    }
    let mut k = open + 1;
    while k < close {
        // `name :` at the top level of the parameter list.
        let is_name = toks[k].ident().is_some()
            && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(k + 2).is_some_and(|t| t.is_punct(':'));
        if is_name {
            if let (Some(name), Some(ty)) = (toks[k].ident(), type_head(toks, k + 2, close)) {
                out.insert(name.to_string(), ty);
            }
            // Skip to the next top-level comma.
            let mut d = 0i32;
            k += 2;
            while k < close {
                let t = &toks[k];
                if t.is_punct('(') || t.is_punct('<') || t.is_punct('[') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct('>') || t.is_punct(']') {
                    d -= 1;
                } else if t.is_punct(',') && d <= 0 {
                    break;
                }
                k += 1;
            }
        }
        k += 1;
    }
    out
}

/// Extracts struct definitions plus a merged `field → type` map used to
/// type `self.field.method(…)` receivers.
fn struct_defs(ctx: &FileCtx) -> (Vec<StructDef>, BTreeMap<String, String>) {
    let toks = &ctx.tokens;
    let mut defs = Vec::new();
    let mut field_types = BTreeMap::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("struct") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
            i += 1;
            continue;
        };
        // Attributes directly above: walk back over `# [ … ]` groups
        // (skipping `pub`/doc tokens is unnecessary — attrs are adjacent).
        let mut attr_idents = Vec::new();
        let mut back = i;
        if toks
            .get(back.wrapping_sub(1))
            .is_some_and(|t| t.is_ident("pub"))
        {
            back -= 1;
        }
        while back >= 2 && toks[back - 1].is_punct(']') {
            // Find the matching `[` then its leading `#`.
            let mut depth = 0i32;
            let mut k = back - 1;
            loop {
                if toks[k].is_punct(']') {
                    depth += 1;
                } else if toks[k].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    break;
                }
                k -= 1;
            }
            if k >= 1 && toks[k - 1].is_punct('#') {
                for t in &toks[k..back] {
                    if let Some(id) = t.ident() {
                        attr_idents.push(id.to_string());
                    }
                }
                back = k - 1;
            } else {
                break;
            }
        }
        // Body: `{ fields }` for named structs; `(`/`;` for tuple/unit.
        let mut j = i + 2;
        let mut angle = 0i32;
        let mut body = None;
        while let Some(t) = toks.get(j) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0 {
                if t.is_punct('{') {
                    body = Some(j);
                    break;
                }
                if t.is_punct(';') || t.is_punct('(') {
                    break;
                }
            }
            j += 1;
        }
        let def_line = toks[i].line;
        let mut fields = Vec::new();
        let mut skip_attr_lines = Vec::new();
        if let Some(open) = body {
            if let Some(close) = matching_brace(toks, open) {
                let mut k = open + 1;
                let mut in_attr = 0i32;
                while k < close {
                    let t = &toks[k];
                    if t.is_punct('[') && k >= 1 && toks[k - 1].is_punct('#') {
                        in_attr += 1;
                    } else if in_attr > 0 {
                        if t.is_punct(']') {
                            in_attr -= 1;
                        } else if t.is_ident("skip") {
                            skip_attr_lines.push(t.line);
                        }
                    } else if t.ident().is_some()
                        && toks.get(k + 1).is_some_and(|p| p.is_punct(':'))
                        && !toks.get(k + 2).is_some_and(|p| p.is_punct(':'))
                        && !toks.get(k.wrapping_sub(1)).is_some_and(|p| p.is_punct(':'))
                    {
                        let fname = t.ident().unwrap_or("").to_string();
                        if let Some(ty) = type_head(toks, k + 2, close) {
                            field_types.insert(fname.clone(), ty);
                        }
                        fields.push(fname);
                    }
                    k += 1;
                }
                i = close + 1;
                defs.push(StructDef {
                    name: name.to_string(),
                    line: def_line,
                    fields,
                    attr_idents,
                    skip_attr_lines,
                });
                continue;
            }
        }
        defs.push(StructDef {
            name: name.to_string(),
            line: def_line,
            fields,
            attr_idents,
            skip_attr_lines,
        });
        i = j + 1;
    }
    (defs, field_types)
}

/// Finds struct literal/pattern uses: `Name { … }` where `Name` is
/// uppercase and the preceding token puts it in expression/pattern
/// position (after `(`, `,`, `=`, `{`, `[`, `&`, `let`, `return`,
/// `else`, `=>`; *not* after `->`, `impl`, `for`, `struct`, …).
fn struct_uses(ctx: &FileCtx) -> Vec<StructUse> {
    let toks = &ctx.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if !name.starts_with(|c: char| c.is_ascii_uppercase()) {
            continue;
        }
        let Some(open) = i
            .checked_add(1)
            .filter(|&n| toks.get(n).is_some_and(|t| t.is_punct('{')))
        else {
            continue;
        };
        let positional = match i.checked_sub(1).map(|p| &toks[p]) {
            // Start of file: item position, not an expression.
            None => false,
            Some(prev) => {
                if prev.is_punct('>') {
                    // `=> Name {` is a match arm; `-> Name {` is a return
                    // type followed by the function body.
                    i >= 2 && toks[i - 2].is_punct('=')
                } else {
                    prev.is_punct('(')
                        || prev.is_punct(',')
                        || prev.is_punct('=')
                        || prev.is_punct('{')
                        || prev.is_punct('[')
                        || prev.is_punct('&')
                        || prev.is_ident("let")
                        || prev.is_ident("return")
                        || prev.is_ident("else")
                        || prev.is_ident("Some")
                        || prev.is_ident("Ok")
                }
            }
        };
        if !positional {
            continue;
        }
        let Some(close) = matching_brace(toks, open) else {
            continue;
        };
        // `..` rest: adjacent dots at the body's top level, directly
        // after `{` or `,` (a range in field-value position follows a
        // number/ident instead).
        let mut has_rest = false;
        let mut depth = 0i32;
        for k in open..close {
            let tk = &toks[k];
            if tk.is_punct('{') || tk.is_punct('(') || tk.is_punct('[') {
                depth += 1;
            } else if tk.is_punct('}') || tk.is_punct(')') || tk.is_punct(']') {
                depth -= 1;
            } else if depth == 1
                && tk.is_punct('.')
                && toks.get(k + 1).is_some_and(|t| t.is_punct('.'))
                && (toks[k - 1].is_punct('{') || toks[k - 1].is_punct(','))
            {
                has_rest = true;
            }
        }
        out.push(StructUse {
            name: name.to_string(),
            line: t.line,
            has_rest,
            in_test: ctx.is_test_code(i),
        });
    }
    out
}

/// Walks one function body: classifies call sites, replays lock guards
/// (same lifetime model as `lock-order`), tracks `let` types, and seeds
/// the direct facts.
fn scan_body(
    ctx: &FileCtx,
    f: &crate::context::FnSpan,
    params: &BTreeMap<String, String>,
    field_types: &BTreeMap<String, String>,
    lock_fields: &std::collections::BTreeSet<String>,
    sym: &mut FnSym,
) {
    let toks = &ctx.tokens;
    let mut locals = params.clone();
    // (field, acquisition_depth, held_to_block_end)
    let mut live: Vec<(String, i32, bool)> = Vec::new();
    let mut depth = 0i32;
    let mut i = f.body_open;
    while i <= f.body_close {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            live.retain(|(_, d, _)| *d <= depth);
        } else if t.is_punct(';') {
            live.retain(|(_, d, held)| *held && *d <= depth);
        } else if t.is_ident("let") {
            // `let [mut] name : Type = …` or `let [mut] name = Type::…`.
            let mut k = i + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            if let Some(name) = toks.get(k).and_then(|t| t.ident()) {
                if toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                    && !toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                {
                    if let Some(ty) = type_head(toks, k + 2, f.body_close) {
                        locals.insert(name.to_string(), ty);
                    }
                } else if toks.get(k + 1).is_some_and(|t| t.is_punct('=')) {
                    // Constructor inference: `let x = Type::…`.
                    let is_ctor = toks
                        .get(k + 2)
                        .and_then(|t| t.ident())
                        .is_some_and(|id| id.starts_with(|c: char| c.is_ascii_uppercase()))
                        && toks.get(k + 3).is_some_and(|t| t.is_punct(':'))
                        && toks.get(k + 4).is_some_and(|t| t.is_punct(':'));
                    if is_ctor {
                        if let Some(ty) = toks.get(k + 2).and_then(|t| t.ident()) {
                            locals.insert(name.to_string(), ty.to_string());
                        }
                    }
                }
            }
        } else if let Some(m) = t.ident() {
            let is_open_paren = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
            if is_open_paren && !KEYWORDS.contains(&m) {
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let in_test = ctx.is_test_code(i);
                let method = prev.is_some_and(|p| p.is_punct('.'));
                let path_call = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
                let def = prev.is_some_and(|p| p.is_ident("fn"));
                if !def && (method || path_call || prev.is_none() || classify_bare(prev)) {
                    let recv = if method {
                        receiver_of(toks, i, &locals, field_types)
                    } else if path_call {
                        match i.checked_sub(3).and_then(|h| toks[h].ident()) {
                            Some(head) if head.starts_with(|c: char| c.is_ascii_uppercase()) => {
                                Receiver::Typed(head.to_string())
                            }
                            Some(head) => Receiver::Module(head.to_string()),
                            None => Receiver::Opaque,
                        }
                    } else {
                        Receiver::Bare
                    };
                    seed_facts(
                        toks,
                        i,
                        m,
                        method,
                        path_call,
                        lock_fields,
                        &mut live,
                        depth,
                        sym,
                        in_test,
                    );
                    sym.calls.push(CallSite {
                        name: m.to_string(),
                        recv,
                        line: t.line,
                        guards: live.iter().map(|(g, _, _)| g.clone()).collect(),
                        in_test,
                    });
                }
            }
        }
        i += 1;
    }
}

/// Whether a name token preceded by `prev` is a bare function call
/// (excludes field access, paths — handled elsewhere — and `fn` defs).
fn classify_bare(prev: Option<&Token>) -> bool {
    match prev {
        None => true,
        Some(p) => !(p.is_punct('.') || p.is_punct(':') || p.is_ident("fn")),
    }
}

/// Classifies a method call's receiver at `i` (the method-name token).
fn receiver_of(
    toks: &[Token],
    i: usize,
    locals: &BTreeMap<String, String>,
    field_types: &BTreeMap<String, String>,
) -> Receiver {
    let Some(r) = i.checked_sub(2).and_then(|k| toks[k].ident()) else {
        return Receiver::Opaque;
    };
    if r == "self" {
        return Receiver::SelfType;
    }
    // `self.field.method(…)` — type the field through the struct map.
    let via_self = i >= 4 && toks[i - 3].is_punct('.') && toks[i - 4].is_ident("self");
    if via_self {
        if let Some(ty) = field_types.get(r) {
            return Receiver::Typed(ty.clone());
        }
        return Receiver::Opaque;
    }
    // Plain `x.method(…)`: a chained receiver (`a.b().method(…)`) has a
    // `.` two tokens further back and `x` is then a method name itself.
    let chained = i >= 3 && toks[i - 3].is_punct('.');
    if chained {
        return Receiver::Opaque;
    }
    if let Some(ty) = locals.get(r).or_else(|| field_types.get(r)) {
        return Receiver::Typed(ty.clone());
    }
    Receiver::Opaque
}

/// Seeds direct facts for the call at token `i` and updates the live
/// guard set for `lock`/`read`/`write` acquisitions.
#[allow(clippy::too_many_arguments)]
fn seed_facts(
    toks: &[Token],
    i: usize,
    m: &str,
    method: bool,
    path_call: bool,
    lock_fields: &std::collections::BTreeSet<String>,
    live: &mut Vec<(String, i32, bool)>,
    depth: i32,
    sym: &mut FnSym,
    in_test: bool,
) {
    let line = toks[i].line;
    let head = || i.checked_sub(3).and_then(|h| toks[h].ident()).unwrap_or("");
    if method && RAW_METHODS.contains(&m) && !in_test {
        sym.facts.set(FACT_FETCH);
        if sym.why[FACT_FETCH].is_none() {
            sym.why[FACT_FETCH] = Some(format!(".{m}(…) at {}:{line}", sym.file));
            sym.fact_line[FACT_FETCH] = Some(line);
        }
    }
    if path_call && !in_test {
        let h = head();
        let fs_hit = (h == "fs" && FS_WRITE_FNS.contains(&m))
            || (h == "File" && (m == "create" || m == "create_new"))
            || (h == "OpenOptions" && m == "new");
        if fs_hit {
            sym.facts.set(FACT_FSWRITE);
            if sym.why[FACT_FSWRITE].is_none() {
                sym.why[FACT_FSWRITE] = Some(format!("{h}::{m}(…) at {}:{line}", sym.file));
                sym.fact_line[FACT_FSWRITE] = Some(line);
            }
        }
    }
    if !in_test && ((method && RNG_DRAWS.contains(&m)) || RNG_CONSTRUCTORS.contains(&m)) {
        sym.facts.set(FACT_RNG);
        if sym.why[FACT_RNG].is_none() {
            sym.why[FACT_RNG] = Some(format!("{m}(…) at {}:{line}", sym.file));
            sym.fact_line[FACT_RNG] = Some(line);
        }
    }
    if method && (m == "charge" || m == "trace_charge") {
        sym.facts.set(FACT_CHARGE);
    }
    if method && (m == "lock" || m == "read" || m == "write") {
        if let Some(field) = i
            .checked_sub(2)
            .and_then(|r| toks[r].ident())
            .filter(|f| lock_fields.contains(*f))
        {
            sym.facts.set(FACT_LOCK);
            let held = lock_order::statement_binds(toks, i, 0);
            live.push((field.to_string(), depth, held));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym_of(src: &str) -> FileSymbols {
        let ctx = FileCtx::new("crates/core/src/helper.rs", src);
        extract(&ctx)
    }

    #[test]
    fn fn_qualification_and_calls() {
        let s = sym_of(
            "impl Walker {\n  fn step(&mut self, g: &QueryGraph) {\n    self.advance();\n    g.neighbors_into(1);\n    helper();\n    journal::replay();\n  }\n}\nfn helper() {}\n",
        );
        assert_eq!(s.fns.len(), 2);
        let step = &s.fns[0];
        assert_eq!(step.impl_type.as_deref(), Some("Walker"));
        assert_eq!(step.module, "helper");
        let kinds: Vec<(&str, &Receiver)> = step
            .calls
            .iter()
            .map(|c| (c.name.as_str(), &c.recv))
            .collect();
        assert!(kinds.contains(&("advance", &Receiver::SelfType)));
        assert!(kinds.contains(&("neighbors_into", &Receiver::Typed("QueryGraph".into()))));
        assert!(kinds.contains(&("helper", &Receiver::Bare)));
        assert!(kinds.contains(&("replay", &Receiver::Module("journal".into()))));
    }

    #[test]
    fn direct_facts_seeded() {
        let s = sym_of(
            "fn fetches(p: &Platform) { p.timeline(1); }\nfn writes() { fs::write(\"a\", \"b\"); }\nfn draws(rng: &mut Rng) { rng.gen_range(0..4); }\n",
        );
        assert!(s.fns[0].facts.has(FACT_FETCH));
        assert!(!s.fns[0].facts.has(FACT_FSWRITE));
        assert!(s.fns[1].facts.has(FACT_FSWRITE));
        assert!(s.fns[2].facts.has(FACT_RNG));
        assert!(s.fns[0].why[FACT_FETCH]
            .as_deref()
            .unwrap()
            .contains("timeline"));
    }

    #[test]
    fn guards_recorded_at_call_sites() {
        let s = sym_of(
            "struct S { table: Mutex<u32> }\nimpl S {\n  fn f(&self) {\n    let g = self.table.lock();\n    helper();\n  }\n}\n",
        );
        let f = s.fns.iter().find(|f| f.name == "f").expect("fn f");
        let call = f.calls.iter().find(|c| c.name == "helper").expect("call");
        assert_eq!(call.guards, vec!["table".to_string()]);
        assert!(f.facts.has(FACT_LOCK));
    }

    #[test]
    fn struct_defs_and_uses() {
        let s = sym_of(
            "#[derive(Serialize, Deserialize)]\npub struct SrwState { pub node: u64, pub steps: u64 }\nfn make(node: u64) -> SrwState {\n  SrwState { node, steps: 0 }\n}\nfn partial(old: SrwState) -> SrwState {\n  SrwState { node: 1, ..old }\n}\n",
        );
        let d = &s.structs[0];
        assert_eq!(d.name, "SrwState");
        assert_eq!(d.fields, vec!["node", "steps"]);
        assert!(d.attr_idents.iter().any(|a| a == "Serialize"));
        let uses: Vec<(&str, bool)> = s
            .struct_uses
            .iter()
            .map(|u| (u.name.as_str(), u.has_rest))
            .collect();
        assert!(uses.contains(&("SrwState", false)));
        assert!(uses.contains(&("SrwState", true)));
        // The `-> SrwState {` return types must NOT count as uses.
        assert_eq!(uses.len(), 2, "{uses:?}");
    }
}
