//! `nmvgas-cli` refuses malformed flag values with exit code 2 instead of
//! running with a silently substituted default.

use std::process::Command;

fn exit_code(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nmvgas-cli"))
        .args(args)
        .output()
        .expect("run nmvgas-cli");
    let code = out.status.code().expect("nmvgas-cli exited by signal");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn malformed_xlate_capacity_exits_2() {
    for bad in ["lots", "-1", "1.5"] {
        let (code, err) = exit_code(&["--xlate-capacity", bad]);
        assert_eq!(code, 2, "--xlate-capacity {bad}: {err}");
        assert!(err.contains("--xlate-capacity"), "{err}");
    }
}

#[test]
fn unknown_transport_exits_2() {
    for bad in ["ISIR", "mpi", "true"] {
        let (code, err) = exit_code(&["--transport", bad]);
        assert_eq!(code, 2, "--transport {bad}: {err}");
        assert!(err.contains("unknown --transport"), "{err}");
    }
}

#[test]
fn good_values_run() {
    let (code, err) = exit_code(&[
        "--transport",
        "isir",
        "--xlate-capacity",
        "64",
        "--locs",
        "2",
        "--ops",
        "16",
    ]);
    assert_eq!(code, 0, "{err}");
}
