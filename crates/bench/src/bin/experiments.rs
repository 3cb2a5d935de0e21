//! Prints the paper-vs-measured table for every experiment, with the
//! pipeline counters each one fired, and writes the machine-readable
//! `BENCH_counters.json` next to the current directory.
//!
//! `BENCH_counters.json` is one object: a `schema` header listing every
//! counter name once (in declaration order), then `rows` whose
//! `counters` objects carry only the *nonzero* values — a diff of the
//! file tracks signal, not the ~40 permanent zeros a typical experiment
//! never touches.
//!
//! ```text
//! cargo run --release -p presburger-bench --bin experiments
//! ```

use presburger_bench::all_experiments;
use presburger_trace::json::{array, JsonObject};
use presburger_trace::Counter;

fn main() {
    println!("| Id | Experiment | Paper | Measured | Counters | ms | Pass |");
    println!("|----|------------|-------|----------|----------|----|------|");
    let mut failures = 0;
    let mut entries = Vec::new();
    for r in all_experiments() {
        println!(
            "| {} | {} | {} | {} | {} | {:.1} | {} |",
            r.id,
            r.title,
            r.paper.replace('|', "\\|"),
            r.measured.replace('|', "\\|"),
            r.counter_summary().replace('|', "\\|"),
            r.wall.as_secs_f64() * 1e3,
            if r.pass { "✅" } else { "❌" }
        );
        if !r.pass {
            failures += 1;
        }
        let mut obj = JsonObject::new();
        obj.field_str("id", r.id);
        obj.field_str("title", r.title);
        obj.field_bool("pass", r.pass);
        obj.field_f64("wall_ms", r.wall.as_secs_f64() * 1e3);
        obj.field_raw("counters", &r.counters.to_json_nonzero());
        entries.push(obj.finish());
    }
    let path = "BENCH_counters.json";
    let mut schema = JsonObject::new();
    schema.field_raw(
        "counters",
        &array(
            Counter::ALL
                .iter()
                .map(|c| format!("\"{}\"", c.name()))
                .collect::<Vec<String>>(),
        ),
    );
    let mut doc = JsonObject::new();
    doc.field_raw("schema", &schema.finish())
        .field_raw("rows", &array(entries));
    match std::fs::write(path, doc.finish() + "\n") {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
