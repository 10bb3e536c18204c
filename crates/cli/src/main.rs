//! `tiling3d` — plan, analyse, simulate and profile 3D stencil tiling from
//! the command line. See `tiling3d_cli` for the commands; every subcommand
//! accepts `--help` plus the shared observability flags (`--log-level`,
//! `--trace-out`, `--progress`, `--format`).

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match tiling3d_cli::run_argv(&raw) {
        Ok(out) => {
            tiling3d_bench::driver::write_stdout(&out);
            0
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    };
    std::process::exit(code);
}
