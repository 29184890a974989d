//! Runs one benchmark workload and prints its record.
//!
//! ```text
//! psmd-benchsuite --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (every end-to-end metric untraced, every
//! per-layer metric traced).  Lines before it are the run header and
//! diagnostics.  A traced run also writes its spans to
//! `$PSMDBENCH_TRACE_DIR/<workload>-seed<n>.json` when that variable is set.

use std::process::ExitCode;

use psmd_benchsuite::{run, Config, Workload};

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!(
        "usage: psmd-benchsuite --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return usage("every option takes a value");
        };
        match key.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown option {key}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required and valid");
    };

    let cfg = Config::new(workload, seed, seconds, trace);
    let outcome = run(&cfg);
    let record = &outcome.record;
    println!("{}", record.header_json());
    for note in &record.notes {
        println!("# {note}");
    }
    if let (Some(spans), Ok(dir)) = (&outcome.spans_json, std::env::var("PSMDBENCH_TRACE_DIR")) {
        let path = std::path::Path::new(&dir).join(format!("{}-seed{seed}.json", workload.name()));
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans));
        if let Err(e) = written {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match record.result_json(trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
