//! The command lines CI drives: a malformed value, a missing value or an
//! unknown flag exits 2 with the usage line before anything runs, so a
//! typo in a job cannot pass green on a different sweep or skip a check.

use std::process::Command;

#[test]
fn stress_faults_refuses_bad_arguments() {
    let refused: [&[&str]; 8] = [
        &["--gpus", "two"],
        &["--seeds", "1O"],
        &["--gpus", "2", "--fabric-drop-rate", "5x"],
        &["--drop-rate", "70000"],
        &["--seeds"],
        &["--sedes", "4"],
        &["--gpus", "1"],
        &["--partition"],
    ];
    for args in refused {
        let out = Command::new(env!("CARGO_BIN_EXE_stress_faults"))
            .args(args)
            .env_remove("FAULT_SEED")
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: stress_faults"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran a sweep");
    }
}

#[test]
fn trace_report_refuses_bad_arguments() {
    let refused: [&[&str]; 4] = [
        &["--lnit"],
        &["--chrome"],
        &["--lint", "--lines"],
        &["lint"],
    ];
    for args in refused {
        let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
            .args(args)
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: trace_report"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran the report");
    }
}
