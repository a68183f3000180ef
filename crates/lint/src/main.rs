//! The `apex-lint` binary: walks `crates/*/src` under the workspace
//! root and reports invariant violations. Exit codes: 0 clean, 1
//! findings, 2 usage/IO error.
//!
//! ```text
//! apex-lint [--root <dir>] [--list-rules]
//! ```
//!
//! The binary holds itself to the workspace lints: no panicking calls,
//! no print macros (output goes through `io::Write`), and no
//! `process::exit` (`ExitCode` carries the verdict).

#![forbid(unsafe_code)]

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use apex_lint::{lint_workspace, render_text, rules};

const USAGE: &str = "usage: apex-lint [--root <dir>] [--list-rules]";

struct Opts {
    root: PathBuf,
    list_rules: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        list_rules: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a path")?;
                opts.root = PathBuf::from(v);
            }
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn run(args: &[String]) -> io::Result<ExitCode> {
    let mut stdout = io::stdout().lock();
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(msg) => {
            let mut stderr = io::stderr().lock();
            writeln!(stderr, "{msg}")?;
            return Ok(ExitCode::from(2));
        }
    };
    if opts.list_rules {
        let catalog = rules::RULES.iter().map(|r| (r.name, r.summary));
        for (name, summary) in catalog.chain(rules::META_RULES.iter().copied()) {
            writeln!(stdout, "{name:<20} {summary}")?;
        }
        return Ok(ExitCode::SUCCESS);
    }
    let findings = lint_workspace(&opts.root)?;
    write!(stdout, "{}", render_text(&findings))?;
    Ok(if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            let mut stderr = io::stderr().lock();
            let _ = writeln!(stderr, "apex-lint: {e}");
            ExitCode::from(2)
        }
    }
}
