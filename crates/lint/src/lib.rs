#![forbid(unsafe_code)]
//! `ma-lint` — the workspace invariant analyzer.
//!
//! The repo's core guarantee is that estimates are bit-identical whether
//! runs are isolated, cached or fault-injected. That guarantee rests on
//! conventions — all API traffic through the metered client stack, no
//! hash-order arithmetic in estimator paths, no lock held across a
//! fetch — that the compiler cannot enforce. This crate turns them into
//! CI-gated invariants with a self-contained token-level analyzer (no
//! external dependencies; the workspace is offline). The conventions
//! the compiler can own live in types instead: the trace vocabulary is
//! `microblog_obs::EventName` / `SpanName`, and the wall-clock ban is
//! clippy's `disallowed-methods` (`crates/clippy.toml`).
//!
//! Since v2 the analyzer is two-phase. Phase 1 runs per file (in
//! parallel across a worker pool): token-level rules, lock-edge
//! extraction and symbol-table construction ([`symbols`]). Phase 2 runs
//! once over the assembled workspace: a call graph ([`callgraph`]) built
//! from every file's symbols, interprocedural re-grounding of the
//! charging/lock/fs rules ([`rules::interproc`]), checkpoint-coverage
//! checking, and lock-order cycle detection.
//!
//! See DESIGN.md §9 and §13 for the rule catalog and the suppression
//! workflow. The entry points are
//! [`analyze_source`] (one in-memory file, used by the fixture
//! self-tests), [`analyze_sources`] (a set of in-memory files analyzed
//! as one workspace — fixture tests for interprocedural rules) and
//! [`analyze_workspace`] (walks `crates/*/src`, `crates/*/tests`,
//! `examples/` and `tests/`).

pub mod callgraph;
pub mod config;
pub mod context;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod symbols;

use callgraph::CallGraph;
use config::Config;
use context::{FileCtx, Finding};
use report::Report;
use rules::lock_order::LockEdge;
use std::path::{Path, PathBuf};

/// Per-file analysis output: findings plus this file's contribution to
/// the global lock graph.
pub struct FileAnalysis {
    /// Findings after inline suppression.
    pub findings: Vec<Finding>,
    /// Lock-acquisition edges (cycle detection happens globally).
    pub lock_edges: Vec<LockEdge>,
}

/// Phase-1 output for one file: everything later phases need, with the
/// source text already dropped.
struct PerFile {
    findings: Vec<Finding>,
    lock_edges: Vec<LockEdge>,
    symbols: symbols::FileSymbols,
}

/// Workspace-level analysis over a set of files: per-file findings plus
/// the interprocedural rules that need the whole symbol table.
pub struct WorkspaceAnalysis {
    /// All findings, sorted by (file, line, rule). Lock-order *cycle*
    /// findings are not included — callers that want them run
    /// [`rules::lock_order::check_cycles`] over [`Self::lock_edges`].
    pub findings: Vec<Finding>,
    /// Lock-acquisition edges from every file.
    pub lock_edges: Vec<LockEdge>,
    /// The assembled call graph (exposed for golden-edge tests).
    pub graph: CallGraph,
}

/// Phase 1: token rules + lock edges + symbol table for one file.
fn analyze_file(path: &str, source: &str, cfg: &Config) -> PerFile {
    let ctx = FileCtx::new(path, source);
    let mut findings = Vec::new();
    rules::panic_safety::check(&ctx, cfg, &mut findings);
    rules::determinism::check(&ctx, cfg, &mut findings);
    rules::charging::check(&ctx, cfg, &mut findings);
    rules::blocking_fetch::check(&ctx, cfg, &mut findings);
    rules::fs_write::check(&ctx, cfg, &mut findings);
    rules::lock_across_call::check(&ctx, cfg, &mut findings);
    rules::hygiene::check(&ctx, cfg, &mut findings);
    rules::rng_confinement::check(&ctx, cfg, &mut findings);
    let lock_edges = rules::lock_order::extract(&ctx, cfg);
    // Malformed suppression directives are findings themselves: a typo'd
    // allow would otherwise silently stop suppressing.
    for (line, msg) in &ctx.bad_directives {
        findings.push(Finding {
            rule: "suppression",
            file: path.to_string(),
            line: *line,
            message: msg.clone(),
        });
    }
    let symbols = symbols::extract(&ctx);
    PerFile {
        findings,
        lock_edges,
        symbols,
    }
}

/// Phase 2: assemble per-file results into a workspace analysis — build
/// the call graph, run the interprocedural rules, sort.
fn assemble(per: Vec<PerFile>, cfg: &Config) -> WorkspaceAnalysis {
    let mut findings = Vec::new();
    let mut lock_edges = Vec::new();
    let mut files = Vec::with_capacity(per.len());
    for mut p in per {
        findings.append(&mut p.findings);
        lock_edges.append(&mut p.lock_edges);
        files.push(p.symbols);
    }
    let graph = CallGraph::build(&files);
    rules::interproc::check(&files, &graph, cfg, &mut findings);
    rules::checkpoint_coverage::check(&files, cfg, &mut findings);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    WorkspaceAnalysis {
        findings,
        lock_edges,
        graph,
    }
}

/// Analyzes a set of in-memory files as one workspace. `files` pairs a
/// workspace-relative path (`/` separators) with its source text. This
/// is the unit the interprocedural fixture tests drive directly.
pub fn analyze_sources(files: &[(&str, &str)], cfg: &Config) -> WorkspaceAnalysis {
    let per: Vec<PerFile> = files
        .iter()
        .map(|(path, source)| analyze_file(path, source, cfg))
        .collect();
    assemble(per, cfg)
}

/// Analyzes one file's source under `path` (workspace-relative, `/`
/// separators). Interprocedural rules still run — calls that resolve
/// within the file are propagated — but cross-file edges obviously
/// cannot exist.
pub fn analyze_source(path: &str, source: &str, cfg: &Config) -> FileAnalysis {
    let ws = analyze_sources(&[(path, source)], cfg);
    FileAnalysis {
        findings: ws.findings,
        lock_edges: ws.lock_edges,
    }
}

/// Walks the workspace at `root` and analyzes every eligible `.rs` file
/// (phase 1 parallelized across a small worker pool).
pub fn analyze_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    // The report's `wall_ms` times the scan itself; nothing
    // estimate-bearing runs here.
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    let files = collect_files(root, cfg)?;
    let files_scanned = files.len();
    let sources: Vec<(String, String)> = files
        .into_iter()
        .map(|rel| {
            let source = std::fs::read_to_string(root.join(&rel))?;
            Ok((rel, source))
        })
        .collect::<std::io::Result<_>>()?;
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
        .min(sources.len().max(1));
    let per = analyze_parallel(&sources, cfg, workers);
    let mut ws = assemble(per, cfg);
    rules::lock_order::check_cycles(&ws.lock_edges, &mut ws.findings);
    ws.findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Report {
        files_scanned,
        workers,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        findings: ws.findings,
    })
}

/// Runs phase 1 over `sources` on `workers` threads. Files are claimed
/// from a shared atomic cursor; results carry their input index so the
/// output order is deterministic regardless of scheduling.
fn analyze_parallel(sources: &[(String, String)], cfg: &Config, workers: usize) -> Vec<PerFile> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    if workers <= 1 || sources.len() <= 1 {
        return sources
            .iter()
            .map(|(rel, src)| analyze_file(rel, src, cfg))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, PerFile)> = Vec::with_capacity(sources.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut done = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some((rel, src)) = sources.get(i) else {
                        break;
                    };
                    done.push((i, analyze_file(rel, src, cfg)));
                }
                done
            }));
        }
        for h in handles {
            // A panic in a worker (a lexer bug, say) propagates rather
            // than silently dropping that file's findings.
            tagged.extend(h.join().expect("analysis worker panicked"));
        }
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, p)| p).collect()
}

/// Collects workspace-relative paths of every `.rs` file to analyze:
/// `crates/*/{src,tests,examples,benches}`, plus the workspace-level
/// `examples/` and `tests/` directories, minus [`Config::skip`].
pub fn collect_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            if !dir.is_dir() {
                continue;
            }
            for sub in ["src", "tests", "examples", "benches"] {
                walk_rs(&dir.join(sub), root, cfg, &mut out)?;
            }
        }
    }
    for top in ["examples", "tests"] {
        walk_rs(&root.join(top), root, cfg, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, root: &Path, cfg: &Config, out: &mut Vec<String>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                if !Config::matches(&rel, &cfg.skip) {
                    out.push(rel);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_typo_is_itself_a_finding() {
        let src = "// ma-lint: alow(panic-safety) reason=\"typo\"\nfn f() {}\n";
        let a = analyze_source("crates/core/src/x.rs", src, &Config::default());
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, "suppression");
    }

    #[test]
    fn clean_file_has_no_findings() {
        let src = "fn f(x: Option<u32>) -> Option<u32> { x.map(|v| v + 1) }\n";
        let a = analyze_source("crates/core/src/x.rs", src, &Config::default());
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = Config::default();
        let sources: Vec<(String, String)> = (0..12)
            .map(|i| {
                (
                    format!("crates/core/src/f{i}.rs"),
                    format!("fn f{i}(x: Option<u32>) -> u32 {{ x.unwrap() }}\n"),
                )
            })
            .collect();
        let seq = analyze_parallel(&sources, &cfg, 1);
        let par = analyze_parallel(&sources, &cfg, 4);
        let flat = |v: &[PerFile]| -> Vec<(String, u32)> {
            v.iter()
                .flat_map(|p| p.findings.iter().map(|f| (f.file.clone(), f.line)))
                .collect()
        };
        assert_eq!(flat(&seq), flat(&par));
        assert_eq!(flat(&seq).len(), 12);
        assert_eq!(seq.len(), par.len());
    }
}
