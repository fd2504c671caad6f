//! The `ma-lint` CLI.
//!
//! ```text
//! cargo run -p ma-lint [--release] -- [OPTIONS]
//!
//!   --root <dir>        workspace root (default: .)
//!   --json              print the JSON report to stdout instead of text
//!   --json-out <path>   additionally write the JSON report to a file (CI artifact)
//! ```
//!
//! Exit codes: 0 = no findings, 1 = findings, 2 = usage or I/O error.

use ma_lint::config::Config;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: bool,
    json_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        json_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--json" => args.json = true,
            "--json-out" => {
                args.json_out = Some(PathBuf::from(it.next().ok_or("--json-out needs a value")?))
            }
            "--help" | "-h" => {
                return Err("usage: ma-lint [--root <dir>] [--json] [--json-out <path>]".to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::default();
    let report = match ma_lint::analyze_workspace(&args.root, &cfg) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("ma-lint: failed to scan {}: {err}", args.root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.json_out {
        if let Err(err) = std::fs::write(path, report.render_json()) {
            eprintln!("ma-lint: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if args.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
