//! `adm-benchmark`: see `README.md` and `adm_benchmark::cli`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(adm_benchmark::cli::main_with(&args));
}
