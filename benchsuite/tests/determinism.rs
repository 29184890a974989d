//! Self-tests of the benchmark: every workload passes its own checks and
//! prints its full catalogue, every exact count repeats across runs and
//! seeds, and `BENCHMARK.json` names exactly the metrics the code prints.
//!
//! Run with `cargo test --release --manifest-path benchsuite/Cargo.toml`.

use psmd_benchsuite::record::{END_TO_END, EXACT_COUNTS, PER_LAYER};
use psmd_benchsuite::{run, Config, Workload};

/// A shortest run: one set-up, and the op loop ends after its first
/// ops.
fn quick(workload: Workload, seed: u64, trace: bool) -> psmd_benchsuite::Outcome {
    let mut cfg = Config::new(workload, seed, 1e-3, trace);
    cfg.setups = 1;
    let outcome = run(&cfg);
    let record = &outcome.record;
    assert!(
        record.attempted > 0 && record.failed == 0,
        "{} seed {seed} trace {trace}: {} of {} checks failed; notes: {:?}",
        workload.name(),
        record.failed,
        record.attempted,
        record.notes
    );
    if let Err(e) = record.result_json(trace) {
        panic!("{} seed {seed} trace {trace}: {e}", workload.name());
    }
    outcome
}

fn counts(outcome: &psmd_benchsuite::Outcome) -> Vec<(&'static str, f64)> {
    EXACT_COUNTS
        .iter()
        .map(|&name| (name, outcome.record.metrics[name]))
        .collect()
}

fn counts_repeat(workload: Workload) {
    quick(workload, 1, false);
    let a = counts(&quick(workload, 1, true));
    let b = counts(&quick(workload, 1, true));
    let c = counts(&quick(workload, 2, true));
    assert_eq!(a, b, "{}: counts differ between two runs", workload.name());
    assert_eq!(a, c, "{}: counts differ between two seeds", workload.name());
}

#[test]
fn eval_deep_counts_repeat() {
    counts_repeat(Workload::EvalDeep);
}

#[test]
fn eval_batch_counts_repeat() {
    counts_repeat(Workload::EvalBatch);
}

#[test]
fn track_ladder_counts_repeat() {
    counts_repeat(Workload::TrackLadder);
}

#[test]
fn serve_coalesce_counts_repeat() {
    counts_repeat(Workload::ServeCoalesce);
}

/// The entries of one metric list of `BENCHMARK.json` as `(name, unit)`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("a closed list")];
    let field = |entry: &str, name: &str| -> String {
        let at = entry.find(&format!("\"{name}\"")).expect("a field") + name.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("a string value") + 1;
        let close = rest[open..].find('"').expect("a closed string") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = listed_names(&json);
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}

fn listed_names(json: &str) -> Vec<String> {
    let start = json.find("\"workloads\"").expect("a workloads list");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("a closed list")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let open = rest.find('"').expect("a string value") + 1;
            let close = rest[open..].find('"').expect("a closed string") + open;
            rest[open..close].to_string()
        })
        .collect()
}
