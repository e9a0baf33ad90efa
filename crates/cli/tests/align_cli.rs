//! The `anyseq` binary end to end: flags in, exit status and stdout out.

use std::process::{Command, Output};

/// `anyseq align` on two identical one-record 10 bp FASTA files.
fn align(scheme: &[&str]) -> Output {
    let path = std::env::temp_dir().join(format!("anyseq-cli-{}.fa", std::process::id()));
    std::fs::write(&path, ">r\nACGTACGTAC\n").unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_anyseq"));
    cmd.args(["align", "--score-only", "--query"]).arg(&path);
    let out = cmd.arg("--subject").arg(&path).args(scheme).output();
    let _ = std::fs::remove_file(path);
    out.unwrap()
}

/// `--match 2147483647` used to print a wrapped score and exit 0 in a
/// release build. The score envelope is now checked where the batch
/// enters the engine: a message, exit 1, and nothing on stdout.
#[test]
fn a_match_score_past_the_envelope_is_refused_with_no_score() {
    let ok = align(&["--match", "2"]);
    assert!(ok.status.success(), "{ok:?}");
    assert_eq!(String::from_utf8_lossy(&ok.stdout), "score: 20\n");

    let refused = align(&["--match", "2147483647"]);
    assert_eq!(refused.status.code(), Some(1), "{refused:?}");
    assert!(refused.stdout.is_empty(), "{refused:?}");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("scores out of range"), "{stderr}");
}
