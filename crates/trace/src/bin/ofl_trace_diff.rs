//! `ofl-trace-diff` — align two trace files and report the first divergent
//! event.
//!
//! ```text
//! ofl-trace-diff <left.jsonl[.gz]> <right.jsonl[.gz]>
//! ```
//!
//! Exit codes: `0` identical event streams, `1` divergence found (the
//! first divergent pair is printed), `2` usage or I/O error. Gzip'd
//! traces (as written by [`ofl_trace::gzip::gzip_stored`] over
//! [`ofl_trace::Trace::to_jsonl`]) are decoded transparently.

#![forbid(unsafe_code)]

use ofl_trace::diff::{decode_trace_bytes, diff_jsonl};
use std::process::ExitCode;

fn load(path: &str) -> Result<String, String> {
    let raw = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    decode_trace_bytes(&raw).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [left_path, right_path] = match args.as_slice() {
        [a, b] => [a.clone(), b.clone()],
        _ => {
            eprintln!("usage: ofl-trace-diff <left.jsonl[.gz]> <right.jsonl[.gz]>");
            return ExitCode::from(2);
        }
    };
    let (left, right) = match (load(&left_path), load(&right_path)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ofl-trace-diff: {e}");
            return ExitCode::from(2);
        }
    };
    let report = diff_jsonl(&left, &right);
    match report.divergence {
        None => {
            println!("traces identical: {} events compared", report.compared);
            ExitCode::SUCCESS
        }
        Some(d) => {
            println!("traces diverge after {} matching events:", report.compared);
            println!("  {left_path}:{}", d.line_a);
            println!("    {}", d.a);
            println!("  {right_path}:{}", d.line_b);
            println!("    {}", d.b);
            ExitCode::from(1)
        }
    }
}
