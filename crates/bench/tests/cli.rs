//! The soak's command line: a malformed value, a missing value or an
//! unknown flag exits 2 with the usage line before any storm runs, so a
//! typo in a nightly job cannot pass green on a different sweep.

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
