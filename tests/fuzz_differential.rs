//! The generative differential-testing gate (see `crates/gen`).
//!
//! Every generated case runs through four oracle/metamorphic families:
//! brute-force enumeration, inclusion–exclusion + invariances,
//! governed bracketing, and baseline (Tawbi / HP) sanity. Failures are delta-debugged to a minimal counterexample
//! before being reported.
//!
//! Knobs:
//!
//! * `PRESBURGER_GEN_SEED=<n>`  — base seed (printed on failure).
//! * `PRESBURGER_GEN_CASES=<n>` — generated cases per run.
//! * `PRESBURGER_GEN_FAULT=count_off_by_one|miscount_stride` — arm a
//!   deliberate engine-side bug; the run then *asserts the harness
//!   catches it* and shrinks it to ≤ 3 constraints (`scripts/check.sh`
//!   exercises both faults).

use presburger::gen::{
    cases_from_env, check_case, constraint_count, corpus, generate, request_lines, seed_from_env,
    shrink_case, BudgetChoice, GenConfig, Harness, Rng,
};
use presburger::omega::{parse_formula, Space};
use presburger::serve::{parse_request, wire};
use std::path::Path;

/// Cases per run when `PRESBURGER_GEN_CASES` is unset: small enough for
/// the debug-profile tier-1 run; `scripts/check.sh` raises it to 200 in
/// release.
const DEFAULT_CASES: usize = 48;

/// How many candidate evaluations the shrinker may spend per failure.
const SHRINK_BUDGET: usize = 600;

#[test]
fn generated_formulas_agree_with_all_oracles() {
    let seed = seed_from_env();
    let n = cases_from_env(DEFAULT_CASES);
    let h = Harness::from_env();
    let cfg = GenConfig::default();

    let mut caught: Vec<(u64, String)> = Vec::new();
    for i in 0..n as u64 {
        let mut rng = Rng::new(seed).fork(i);
        let case = generate(&mut rng, &cfg);
        let bc = BudgetChoice::draw(&mut rng);
        let Err(failure) = check_case(&case, &h, &bc) else {
            continue;
        };

        // Shrink while the *same* failure kind reproduces, so the
        // minimized case demonstrates the original disagreement.
        let (family, kind) = (failure.family, failure.kind);
        let mut checks = 0usize;
        let shrunk = shrink_case(
            &case,
            &mut |c| {
                checks += 1;
                checks <= SHRINK_BUDGET
                    && matches!(check_case(c, &h, &bc),
                                Err(f) if f.family == family && f.kind == kind)
            },
            SHRINK_BUDGET,
        );
        let atoms = constraint_count(&shrunk);
        let report = format!(
            "case {i} (PRESBURGER_GEN_SEED={seed}): {failure}\n\
             shrunk to {atoms} constraint(s):\n{}",
            shrunk.describe()
        );

        if h.fault.is_some() {
            assert!(
                atoms <= 3,
                "injected fault not minimal: shrunk to {atoms} > 3 constraints\n{report}"
            );
            caught.push((i, report));
        } else {
            panic!("differential failure:\n{report}");
        }
    }

    if h.fault.is_some() {
        assert!(
            !caught.is_empty(),
            "PRESBURGER_GEN_FAULT armed but {n} cases all passed — the harness is blind"
        );
        println!(
            "injected fault caught and shrunk on {} of {n} cases; first:\n{}",
            caught.len(),
            caught[0].1
        );
    }
}

/// Replays the persistent seed corpus (`tests/corpus/*.pres`). Always
/// runs clean (no injected fault): the corpus pins past failures and
/// representative regressions as must-pass cases.
#[test]
fn corpus_replay() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = corpus::load_dir(&dir).expect("loading tests/corpus");
    assert!(
        cases.len() >= 3,
        "seed corpus shrank below 3 cases ({} found in {})",
        cases.len(),
        dir.display()
    );

    let h = Harness::default(); // fault-free by construction
    for entry in &cases {
        let case = entry
            .to_case()
            .unwrap_or_else(|e| panic!("corpus case {}: {e}", entry.name));
        // Budgets drawn from the case name keep replay deterministic
        // yet varied across the corpus.
        let mut rng = Rng::from_name(&entry.name);
        let bc = BudgetChoice::draw(&mut rng);
        if let Err(f) = check_case(&case, &h, &bc) {
            panic!("corpus case {} failed: {f}", entry.name);
        }
    }
    println!("replayed {} corpus cases", cases.len());
}

/// The parser must be total on *any* byte sequence: every corpus
/// formula truncated at every char boundary, splice-mutated with
/// operator/keyword junk, and prefixed into garbage must come back
/// `Ok` or a structured `ParseFormulaError` (with a line/column the
/// caret renderer can point at) — never a panic. This is the
/// integration-level companion of the in-crate
/// `parse::tests::arbitrary_bytes_never_panic`.
#[test]
fn corpus_mutations_never_panic_the_parser() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = corpus::load_dir(&dir).expect("loading tests/corpus");
    const JUNK: [&str; 10] = [
        "",
        "|",
        "||",
        "&& exists",
        "<=",
        "9999999999999999999999",
        ")",
        "(",
        "\n\n|",
        "\u{fffd}",
    ];

    let mut attempts = 0u64;
    for entry in &cases {
        let text = &entry.text;
        let mut probe = |input: &str| {
            let mut s = Space::new();
            attempts += 1;
            if let Err(e) = parse_formula(input, &mut s) {
                // Structured, caret-renderable positions: 1-based, and
                // the column must lie inside (or one past) its line.
                assert!(e.line >= 1 && e.column >= 1, "bad position: {e}");
                let line = input.lines().nth(e.line - 1).unwrap_or("");
                assert!(
                    e.column <= line.chars().count() + 1,
                    "column {} beyond line {:?} for input {input:?}",
                    e.column,
                    line
                );
            }
        };
        for cut in 0..=text.len() {
            if text.is_char_boundary(cut) {
                probe(&text[..cut]);
                for junk in JUNK {
                    probe(&format!("{}{junk}{}", &text[..cut], &text[cut..]));
                }
            }
        }
        probe(&format!("count {{ x : {text}"));
        probe(&text.replace("&&", "||").replace(">=", "="));
    }
    println!("parser stayed total over {attempts} mutated corpus inputs");
}

/// The binary wire decoders must be total too: every generated request
/// encoded to a frame, then truncated at every byte and splice-mutated
/// the same way the parser corpus is, must decode or fail with a typed
/// `wire` protocol error — never a panic, never a read past the
/// buffer. This replays the serve-level mutation corpus at the
/// workspace facade, companion to `crates/serve/tests/wire.rs`.
#[test]
fn corpus_mutations_never_panic_the_wire_decoders() {
    let seed = seed_from_env();
    let requests = request_lines(seed ^ 0xB750, 64, &GenConfig::default());
    const SPLICES: [&[u8]; 6] = [
        b"",
        &[0x00],
        &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF],
        &[0x89],
        &[0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
        b"count x {x : 1 <= x}\n",
    ];

    let mut attempts = 0u64;
    let mut probe = |buf: &[u8], what: &str| {
        attempts += 1;
        match wire::decode_wire_request(buf) {
            Ok((_, used)) => assert!(used <= buf.len(), "{what}: request over-read"),
            Err(e) => assert_eq!(e.kind, "wire", "{what}: untyped request error"),
        }
        match wire::Reply::decode(buf) {
            Ok((_, used)) => assert!(used <= buf.len(), "{what}: reply over-read"),
            Err(e) => assert_eq!(e.kind, "wire", "{what}: untyped reply error"),
        }
    };
    for r in &requests {
        let req = parse_request(&r.line).expect("generated lines parse");
        let frame = wire::encode_request(&req);
        for cut in 0..=frame.len() {
            probe(&frame[..cut], "truncation");
            for junk in SPLICES {
                let mut spliced = Vec::with_capacity(frame.len() + junk.len());
                spliced.extend_from_slice(&frame[..cut]);
                spliced.extend_from_slice(junk);
                spliced.extend_from_slice(&frame[cut..]);
                probe(&spliced, "splice");
            }
        }
    }
    println!("wire decoders stayed total over {attempts} mutated frames");
}
