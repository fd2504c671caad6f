//! The workspace itself must pass its own linter: every invariant the
//! rules encode holds on the code as committed, with no findings —
//! violations are fixed or annotated at the site, never grandfathered.

use ma_lint::config::Config;
use std::path::Path;

#[test]
fn workspace_passes_ma_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report =
        ma_lint::analyze_workspace(&root, &Config::default()).expect("workspace scan succeeds");
    assert!(report.files_scanned > 50, "scan looks truncated");
    assert!(report.ok(), "findings:\n{}", report.render_text());
}
