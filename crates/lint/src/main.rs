//! The `bosim-lint` binary: lint the workspace, print the violation
//! table, optionally write the JSON report, exit non-zero on findings.
//!
//! ```text
//! bosim-lint [--root DIR] [--json FILE] [--rules] [--quiet]
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: Option<PathBuf>,
    rules: bool,
    quiet: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: None,
        rules: false,
        quiet: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = it
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--root needs a directory argument")?;
            }
            "--json" => {
                args.json = Some(
                    it.next()
                        .map(PathBuf::from)
                        .ok_or("--json needs a file path")?,
                );
            }
            "--rules" => args.rules = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: bosim-lint [--root DIR] [--json FILE] [--rules] [--quiet]".to_string(),
                )
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("bosim-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.rules {
        print!("{}", bosim_lint::rules_table().to_markdown());
        return ExitCode::SUCCESS;
    }
    let report = match bosim_lint::run(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bosim-lint: cannot lint {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.json {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("bosim-lint: cannot create {}: {e}", dir.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = std::fs::write(path, report.to_json().to_pretty()) {
            eprintln!("bosim-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !report.is_clean() && !args.quiet {
        print!("{}", report.table().to_markdown());
        println!();
    }
    let counts: Vec<String> = report
        .counts()
        .into_iter()
        .map(|(id, n)| format!("{id}×{n}"))
        .collect();
    if !args.quiet || !report.is_clean() {
        println!(
            "bosim-lint: {} file(s), {} schema struct(s), {} violation(s){}{}",
            report.files_scanned,
            report.schemas_checked,
            report.violations.len(),
            if counts.is_empty() { "" } else { ": " },
            counts.join(" ")
        );
        println!("bosim-lint: {}", report.pragma_footer());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
