//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints one JSON result as its last line;
//! `perfbench compare A.jsonl B.jsonl` compares two sets of results.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Run, Workload};
use std::io::Write;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

const USAGE: &str = "\
usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
                 [--trace-dir <dir>] [--out <file>] [--scale full|smoke]
       perfbench compare <A.jsonl> <B.jsonl>
workloads: paper-cold, splinter-cold, serve-hot-text, serve-hot-binary, serve-cold";

struct Opts {
    run: Run,
    out: Option<PathBuf>,
    setup_probe: bool,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut run = Run {
        workload: Workload::PaperCold,
        seed: 1,
        seconds: 15.0,
        traced: false,
        smoke: false,
        trace_dir: PathBuf::from("bench-traces"),
    };
    let mut out = None;
    let mut setup_probe = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad())?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-dir" => run.trace_dir = PathBuf::from(value),
            "--out" => out = Some(PathBuf::from(value)),
            "--scale" => {
                run.smoke = match value.as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    Ok(Opts {
        run,
        out,
        setup_probe,
    })
}

fn main() {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        exit(perfbench::compare::main(&argv[1..]));
    }
    // PRESBURGER_THREADS and PRESBURGER_MEMO feed CountOptions::default(),
    // PRESBURGER_CHAOS arms a pool started without chaos, and the rest
    // switch on faults and logs: a run measures only what its flags say.
    let env = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("PRESBURGER_"));
    if let Some(name) = env {
        eprintln!("perfbench: {name} is set; unset every PRESBURGER_* variable to benchmark");
        exit(2);
    }
    let opts = match parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    if opts.setup_probe {
        match workloads::setup_probe(opts.run.workload, opts.run.seed, start) {
            Ok(s) => println!("setup_s={s}"),
            Err(e) => {
                eprintln!("perfbench: set-up probe: {e}");
                exit(1);
            }
        }
        return;
    }

    let run = &opts.run;
    let outcome = match workloads::run(run) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", run.workload.name());
            exit(1);
        }
    };
    if outcome.tally.attempted == 0 {
        eprintln!("perfbench: {} attempted nothing", run.workload.name());
        exit(1);
    }
    let list = if run.traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let correct = outcome.tally.wrong == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.metrics.to_json(list)
    );

    eprintln!(
        "perfbench: {} seed {} ({}), {} attempted, {} failed, {} wrong",
        run.workload.name(),
        run.seed,
        if run.traced { "traced" } else { "untraced" },
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.wrong
    );
    for (name, unit) in list {
        let v = outcome.metrics.get(name).unwrap_or(f64::NAN);
        eprintln!("  {name:40} {v:>16} {unit}");
    }
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    if run.traced {
        let path = run.spans_path();
        if let Err(e) = outcome.spans.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            exit(1);
        }
        eprintln!("  spans: {}", path.display());
    }
    if let Some(path) = &opts.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {result}}}\n",
            run.workload.name(),
            run.seed,
            u8::from(run.traced)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("perfbench: writing {}: {e}", path.display());
            exit(1);
        }
    }
    println!("{result}");
    if !correct {
        eprintln!("perfbench: wrong answers; see above");
        exit(1);
    }
}
