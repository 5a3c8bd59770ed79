//! The untraced measuring binary (`--trace 0`), plus the `suite` and
//! `manifest` subcommands `run.sh` forwards to.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("suite") => vgasbench::sweep::main(&argv[1..]),
        Some("manifest") => {
            print!("{}", vgasbench::report::manifest(vgasbench::RUN_SECONDS));
            Ok(0)
        }
        _ => vgasbench::main_untraced(&argv),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("vgasbench: {e}");
            std::process::exit(2);
        }
    }
}
