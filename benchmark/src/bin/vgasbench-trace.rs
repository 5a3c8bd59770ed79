//! The traced measuring binary (`--trace 1`): the same code as
//! `vgasbench` plus a counting global allocator and the span recorder.

use vgasbench::probe::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match vgasbench::main_traced(&argv) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("vgasbench-trace: {e}");
            std::process::exit(2);
        }
    }
}
