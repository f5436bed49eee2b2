//! `repro` — regenerates every table and figure of the Hipster paper.
//!
//! ```text
//! repro all            # everything (several minutes in release mode)
//! repro table2 fig2    # selected experiments
//! repro all --quick    # 4× shorter runs for a fast smoke pass
//! repro cluster        # beyond-paper 16-1024-node cluster sweep
//! repro faults         # fault injection + mitigation ablation → BENCH_PR8.json,
//!                      # plus zone-wave cells (hedging + admission ladder)
//!                      # → BENCH_PR10.json + waves_summary.csv
//! repro cluster --store d      # journal each cell to d/ as it finishes
//! repro cluster --store d --resume   # skip cells d/ already holds
//! ```

use std::path::PathBuf;

use hipster_bench::experiments as exp;

const EXPERIMENTS: &[(&str, fn(bool))] = &[
    ("table2", exp::table2::run),
    ("fig1", exp::fig1::run),
    ("fig2", exp::fig2::run),
    ("fig3", exp::fig3::run),
    ("fig5", exp::fig5::run),
    ("fig6", exp::fig6_7::run_fig6),
    ("fig7", exp::fig6_7::run_fig7),
    ("fig8", exp::fig8::run),
    ("fig9", exp::fig9::run),
    ("fig10", exp::fig10::run),
    ("fig11", exp::fig11::run),
    ("table3", exp::table3::run),
    ("ablation", exp::ablation::run),
];

/// Sweeps that extrapolate beyond the paper's single machine, so `all`
/// (the paper's tables and figures) excludes them. They are the only
/// experiments that journal their cells, so the only ones
/// `--store`/`--resume` apply to.
const SWEEPS: &[&str] = &["cluster", "faults"];

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] <experiment>...\n       repro [--quick] all\n       \
         repro [--quick] cluster [--store <dir>] [--resume]\n       \
         repro [--quick] faults [--store <dir>] [--resume]\n\n\
         --quick, -q    4x shorter runs\n\
         --store <dir>  journal every finished sweep cell to <dir> (fsync'd)\n\
         --resume       skip cells already in the store (requires --store)\n\n\
         experiments: {} cluster faults",
        EXPERIMENTS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

/// Reports a command-line error, then exits 2 with usage.
fn reject(message: &str) -> ! {
    eprintln!("repro: {message}");
    usage();
}

fn main() {
    let mut quick = false;
    let mut store: Option<PathBuf> = None;
    let mut resume = false;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--resume" => resume = true,
            "--store" => match args.next() {
                Some(dir) if !dir.starts_with('-') => store = Some(PathBuf::from(dir)),
                _ => reject("--store requires a directory path"),
            },
            flag if flag.starts_with('-') => reject(&format!("unknown flag: {flag}")),
            _ => selected.push(arg),
        }
    }
    if selected.is_empty() {
        usage();
    }
    for want in &selected {
        if want != "all"
            && !SWEEPS.contains(&want.as_str())
            && !EXPERIMENTS.iter().any(|(n, _)| n == want)
        {
            reject(&format!("unknown experiment: {want}"));
        }
    }
    // `--store <dir>` journals sweep cells durably; `--resume` restores
    // the cells a previous (possibly killed) run already finished.
    let journaled = selected.iter().any(|s| SWEEPS.contains(&s.as_str()));
    if (store.is_some() || resume) && !journaled {
        reject("--store and --resume apply only to `cluster` and `faults`");
    }
    if resume && store.is_none() {
        reject("--resume requires --store <dir>");
    }
    let store = store.as_deref();
    let wants = |name: &str| selected.iter().any(|s| s == name);
    if wants("cluster") {
        let start = std::time::Instant::now();
        exp::cluster::run(quick, store, resume);
        println!("[cluster done in {:.1}s]\n", start.elapsed().as_secs_f64());
    }
    if wants("faults") {
        let start = std::time::Instant::now();
        exp::faults::run(quick, store, resume);
        println!("[faults done in {:.1}s]\n", start.elapsed().as_secs_f64());
    }
    for (name, runner) in EXPERIMENTS {
        if wants("all") || wants(name) {
            let start = std::time::Instant::now();
            runner(quick);
            println!("[{name} done in {:.1}s]\n", start.elapsed().as_secs_f64());
        }
    }
}
