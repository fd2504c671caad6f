//! Human-readable and JSON rendering of a lint run.
//!
//! JSON is hand-serialized (the linter is dependency-free by design);
//! the schema is stable for CI consumption:
//!
//! ```json
//! {
//!   "files_scanned": 63,
//!   "workers": 4,
//!   "wall_ms": 41.502,
//!   "findings": [{"rule": "…", "file": "…", "line": 12, "message": "…"}]
//! }
//! ```

use crate::context::Finding;

/// Everything one run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Files analyzed.
    pub files_scanned: usize,
    /// Worker threads used for the per-file phase.
    pub workers: usize,
    /// End-to-end wall time of the run, in milliseconds.
    pub wall_ms: f64,
    /// All findings after inline suppression.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Whether the run passes: no findings.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "error[{rule}] {file}:{line}: {msg}\n",
                rule = f.rule,
                file = f.file,
                line = f.line,
                msg = f.message
            ));
        }
        out.push_str(&format!(
            "ma-lint: {files} file(s) scanned in {ms:.1} ms ({workers} worker(s)), \
             {n} finding(s)\n",
            files = self.files_scanned,
            ms = self.wall_ms,
            workers = self.workers,
            n = self.findings.len(),
        ));
        out
    }

    /// Renders the JSON report.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"wall_ms\": {:.3},\n", self.wall_ms));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_escaped() {
        let report = Report {
            files_scanned: 1,
            workers: 2,
            wall_ms: 1.25,
            findings: vec![Finding {
                rule: "panic-safety",
                file: "a \"b\".rs".to_string(),
                line: 3,
                message: "needs\nescaping\\here".to_string(),
            }],
        };
        let json = report.render_json();
        assert!(json.contains("\\\"b\\\""));
        assert!(json.contains("needs\\nescaping\\\\here"));
        assert!(json.contains("\"workers\": 2"));
        assert!(json.contains("\"wall_ms\": 1.250"));
        assert!(json.contains("\"line\": 3, \"message\""));
        assert!(!report.ok());
    }

    #[test]
    fn text_lists_every_finding_as_an_error() {
        let finding = |line| Finding {
            rule: "charging",
            file: "x.rs".to_string(),
            line,
            message: "m".to_string(),
        };
        let report = Report {
            files_scanned: 1,
            workers: 1,
            wall_ms: 0.5,
            findings: vec![finding(1), finding(2)],
        };
        let text = report.render_text();
        assert!(text.contains("error[charging] x.rs:1: m"));
        assert!(text.contains("error[charging] x.rs:2: m"));
        assert!(text.contains("2 finding(s)"));
        assert!(!report.ok());
        assert!(Report::default().ok());
    }
}
