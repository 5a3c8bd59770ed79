//! `nmvgas-cli` refuses malformed flag values, unknown flags, unknown
//! workloads and flag combinations the runtime cannot honour with exit
//! code 2 instead of running with a silently substituted default; `repro
//! ops` freezes its workload while ops are still in flight.

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
fn coalesce_over_isir_exits_2() {
    let (code, err) = exit_code(&["--transport", "isir", "--coalesce", "--locs", "2"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--coalesce batches PWC parcels only"), "{err}");
}

#[test]
fn unknown_flag_exits_2() {
    for bad in ["--opps", "--max-weight", "--seed"] {
        let (code, err) = exit_code(&[bad, "5", "--ops", "16"]);
        assert_eq!(code, 2, "{bad}: {err}");
        assert!(err.contains(&format!("unknown flag {bad}")), "{err}");
    }
}

#[test]
fn unknown_workload_exits_2() {
    let (code, err) = exit_code(&["--workload", "sssp", "--locs", "2"]);
    assert_eq!(code, 2, "{err}");
    assert!(
        err.contains("unknown --workload \"sssp\" (gups | stencil | bfs | skew | transpose)"),
        "{err}"
    );
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

#[test]
fn agas_net_without_a_nic_table_prints_agas_sw_results() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_nmvgas-cli"))
            .args(args)
            .args(["--locs", "4", "--ops", "64"])
            .output()
            .expect("run nmvgas-cli");
        assert!(out.status.success(), "{args:?}");
        // Everything after the banner, which names the mode.
        let stdout = String::from_utf8(out.stdout).unwrap();
        stdout.split_once('\n').unwrap().1.to_owned()
    };
    let sw = run(&["--mode", "sw"]);
    assert!(sw.contains("simulated time"), "{sw}");
    assert_eq!(run(&["--mode", "net", "--xlate-capacity", "0"]), sw);
}

#[test]
fn repro_ops_freezes_with_ops_in_flight_and_accounts_for_all() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["ops", "--json"])
        .output()
        .expect("run repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let row = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("one JSON row");
    let field = |name: &str| -> u64 {
        let key = format!("\"{name}\":");
        let at = row.find(&key).unwrap_or_else(|| panic!("{name} in {row}")) + key.len();
        let digits: String = row[at..].chars().take_while(char::is_ascii_digit).collect();
        digits.parse().unwrap()
    };
    assert!(field("in_flight_at_freeze") > 0, "{row}");
    // 24 puts and 8 gets, each completed or failed exactly once.
    assert_eq!(field("completed") + field("ops_failed"), 32, "{row}");
}
