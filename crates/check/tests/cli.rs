//! The command line CI drives: a malformed value, a missing value or an
//! unknown flag exits 2 with the usage line before anything runs, so a
//! typo in a job cannot pass green on a different check.

use std::process::Command;

#[test]
fn model_check_refuses_bad_arguments() {
    let refused: [&[&str]; 5] = [
        &["--verobse"],
        &["--max-schedules", "x"],
        &["--max-schedules"],
        &["--races", "--max-schedules", "-3"],
        &["verbose"],
    ];
    for args in refused {
        let out = Command::new(env!("CARGO_BIN_EXE_model_check"))
            .args(args)
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: model_check"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran the check");
    }
}
