//! fxgrep: grep for XML. Filters files (or stdin) against a Forward XPath
//! query with near-optimal memory, streaming — documents never need to fit
//! in RAM.
//!
//! Usage:
//!   cargo run --example fxgrep -- '<query>' [file.xml ...]
//!   cat doc.xml | cargo run --example fxgrep -- '//item[price > 300]'
//!
//! Flags:
//!   -p              selection mode: print each matched element (ordinal +
//!                   byte span) the moment the engine confirms it —
//!                   grep-style streaming output
//!   -v              print the filter's space statistics
//!   --format FMT    input format: xml (default), html (lenient soup
//!                   tokenizer — never fails structurally), json
//!                   (objects as elements, keys as QNames; query with
//!                   paths like '/json/user/name'), or ndjson
//!                   (newline-delimited JSON: each line is its own
//!                   record/document; MATCH means *some* record
//!                   matched, so the engine runs in selection mode
//!                   internally and the query must be reportable)
//!
//! With `-p` the engine runs in `Mode::Select`: matches stream out as
//! they are confirmed (often long before end-of-document), each carrying
//! the source byte span of the matched element, so downstream tooling
//! can cut the fragment straight out of the file.
//!
//! Exit status, as grep's: 0 some input matched, 1 none did, 2 a usage
//! error or an input that could not be opened or parsed.

use frontier_xpath::prelude::*;
use std::io::Read;
use std::process::ExitCode;

enum Format {
    Xml,
    Html,
    Json,
    Ndjson,
}

/// Strips `--format FMT` / `--format=FMT` out of `args`; `None` with a
/// message already printed on a bad or missing value.
fn take_format(args: &mut Vec<String>) -> Option<Format> {
    let value = if let Some(pos) = args.iter().position(|a| a == "--format") {
        if pos + 1 >= args.len() {
            eprintln!("fxgrep: --format needs a value (xml, html, json, or ndjson)");
            return None;
        }
        let v = args.remove(pos + 1);
        args.remove(pos);
        v
    } else if let Some(pos) = args.iter().position(|a| a.starts_with("--format=")) {
        args.remove(pos)["--format=".len()..].to_string()
    } else {
        return Some(Format::Xml);
    };
    match value.as_str() {
        "xml" => Some(Format::Xml),
        "html" => Some(Format::Html),
        "json" => Some(Format::Json),
        "ndjson" => Some(Format::Ndjson),
        other => {
            eprintln!("fxgrep: unknown format '{other}' (expected xml, html, json, or ndjson)");
            None
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let positions = args.iter().any(|a| a == "-p");
    let verbose = args.iter().any(|a| a == "-v");
    args.retain(|a| a != "-p" && a != "-v");
    let Some(format) = take_format(&mut args) else {
        return ExitCode::from(2);
    };

    let Some(query_src) = args.first() else {
        eprintln!("usage: fxgrep [-p] [-v] [--format xml|html|json|ndjson] '<xpath>' [file ...]");
        return ExitCode::from(2);
    };
    // NDJSON streams many records through one drive, and the session's
    // verdicts reflect only the last record — so "did any record match"
    // is answered through the match stream: the engine runs in selection
    // mode and a file MATCHes iff some record confirmed a match.
    let ndjson = matches!(format, Format::Ndjson);
    let engine = match Engine::builder()
        .query_str(query_src)
        .mode(if positions || ndjson {
            Mode::Select
        } else {
            Mode::Filter
        })
        .build()
    {
        Ok(e) => e,
        Err(e) => {
            eprintln!("fxgrep: {e}");
            return ExitCode::from(2);
        }
    };

    let files = &args[1..];
    let mut any_match = false;
    // The non-XML frontends are created once and reused across files,
    // keeping their scratch buffers warm; they share the engine's
    // symbol table in lookup-only mode.
    let mut source: Option<Box<dyn EventSource>> = match format {
        Format::Xml => None,
        Format::Html => Some(Box::new(engine.html_source())),
        Format::Json => Some(Box::new(engine.json_source())),
        Format::Ndjson => Some(Box::new(engine.ndjson_source())),
    };
    // One session per file: the session's event counter is cumulative
    // across the documents it processes, and `-v` should report each
    // file on its own. Returns whether the input could be read.
    let mut run = |label: &str, reader: &mut dyn Read| -> bool {
        let mut session = engine.session();
        // Matches print as the engine confirms them, mid-stream.
        let mut matches = 0usize;
        let mut sink = |m: Match| {
            matches += 1;
            if positions {
                println!("{label}: element #{} @ bytes {}", m.ordinal, m.span);
            }
        };
        let result = match source.as_mut() {
            None => session.run_reader_to(reader, &mut sink),
            Some(src) => session.run_source_to(src.as_mut(), reader, &mut sink),
        };
        match result {
            Ok(verdicts) => {
                // NDJSON: any record's confirmed match counts; the
                // verdicts only describe the stream's last record.
                let matched = if ndjson { matches > 0 } else { verdicts.any() };
                any_match |= matched;
                match (matched, positions) {
                    (true, true) => println!("{label}: MATCH ({matches} selected)"),
                    (true, false) => println!("{label}: MATCH"),
                    (false, _) => println!("{label}: no match"),
                }
                if verbose {
                    println!(
                        "  space: {} bits peak, {} pending positions peak; {} events",
                        verdicts.total_peak_bits(),
                        verdicts.peak_pending_positions().iter().sum::<usize>(),
                        verdicts.events()
                    );
                }
                true
            }
            Err(e) => {
                eprintln!("{label}: {e}");
                false
            }
        }
    };

    let mut failed = false;
    if files.is_empty() {
        let mut stdin = std::io::stdin().lock();
        failed |= !run("<stdin>", &mut stdin);
    } else {
        for path in files {
            match std::fs::File::open(path) {
                Ok(mut f) => failed |= !run(path, &mut f),
                Err(e) => {
                    failed = true;
                    eprintln!("{path}: {e}");
                }
            }
        }
    }
    match (failed, any_match) {
        (true, _) => ExitCode::from(2),
        (false, true) => ExitCode::SUCCESS,
        (false, false) => ExitCode::from(1),
    }
}
