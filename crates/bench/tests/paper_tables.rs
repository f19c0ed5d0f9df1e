//! Runs the `paper_tables` binary: each section exits 0 and prints its
//! own header, an unknown section exits 2, and in X2 the stubborn
//! reduction never visits more states than `off` and reaches the same
//! verdict.
//!
//! X1 and X2 search the 10-task infeasibility proof (~260k–290k states
//! a search), about 20 s in a debug build with its kernel asserts on, so
//! their tests run in optimized builds only: CI runs this suite with
//! `--release`.

use std::process::{Command, Output};

/// Every section, in the order `--exp all` prints them, with the start
/// of its header line.
const SECTIONS: [(&str, &str); 9] = [
    ("t1", "== Table 1:"),
    ("s5", "== Section 5:"),
    ("f3", "== Figure 3:"),
    ("f4", "== Figure 4:"),
    ("f8", "== Figure 8:"),
    ("x1", "== X1:"),
    ("x2", "== X2:"),
    ("x3", "== X3:"),
    ("x4", "== X4:"),
];

/// The sections that search the 10-task proof.
const PROOF_SECTIONS: [&str; 2] = ["x1", "x2"];

fn paper_tables(exp: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(["--exp", exp])
        .output()
        .expect("paper_tables runs")
}

/// Runs one section and returns its stdout, asserting that it exits 0
/// and prints exactly its own header.
fn section(exp: &str) -> String {
    let output = paper_tables(exp);
    assert!(output.status.success(), "--exp {exp}: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let headers: Vec<&str> = stdout.lines().filter(|l| l.starts_with("== ")).collect();
    let (_, header) = SECTIONS.iter().find(|(name, _)| *name == exp).unwrap();
    assert_eq!(headers.len(), 1, "--exp {exp}: {headers:?}");
    assert!(headers[0].starts_with(header), "--exp {exp}: {headers:?}");
    stdout
}

#[test]
fn each_section_without_the_proof_exits_zero_and_prints_its_header() {
    for (exp, _) in SECTIONS {
        if !PROOF_SECTIONS.contains(&exp) {
            section(exp);
        }
    }
}

#[test]
fn an_unknown_section_exits_2() {
    let output = paper_tables("x9");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(output.stdout.is_empty());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "10-task proofs; run with --release")]
fn all_prints_every_header_in_order() {
    for exp in PROOF_SECTIONS {
        section(exp);
    }
    let output = paper_tables("all");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let headers: Vec<&str> = stdout.lines().filter(|l| l.starts_with("== ")).collect();
    assert_eq!(headers.len(), SECTIONS.len(), "{headers:?}");
    for (line, (exp, header)) in headers.iter().zip(SECTIONS) {
        assert!(line.starts_with(header), "{exp}: {line}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "10-task proofs; run with --release")]
fn x2_stubborn_never_visits_more_states_than_off_and_agrees_on_the_verdict() {
    let stdout = section("x2");
    // Rows: spec, por, verdict, states, stubborn skips, sleep skips.
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip(2)
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|row| row.len() == 6)
        .collect();
    assert_eq!(rows.len(), 6, "{stdout}");
    for pair in rows.chunks(2) {
        let (off, stubborn) = (&pair[0], &pair[1]);
        assert_eq!(off[0], stubborn[0], "{stdout}");
        assert_eq!((off[1], stubborn[1]), ("off", "stubborn"), "{stdout}");
        assert_eq!(off[2], stubborn[2], "verdicts differ on {}", off[0]);
        let states = |row: &[&str]| row[3].parse::<u64>().expect("a state count");
        assert!(
            states(stubborn) <= states(off),
            "stubborn visits more states than off on {}",
            off[0]
        );
    }
}
