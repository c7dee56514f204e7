//! `nm-bench <experiment>… | all | --list` — see [`nm_bench::drive`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match nm_bench::drive(&args, &mut std::io::stdout().lock()) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}
