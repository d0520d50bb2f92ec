//! Runs the entire evaluation suite — every table and figure, core and
//! extension — writing console output and a CSV per experiment under
//! `results/`.
//!
//! ```text
//! cargo run --release -p bt-bench --bin run_all [-- --out results]
//! ```

use std::path::PathBuf;
use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "table1_complexity",
    "fig1_runtime_vs_r",
    "fig2_speedup_vs_r",
    "fig3_strong_scaling",
    "fig4_runtime_vs_n",
    "fig5_runtime_vs_m",
    "table2_breakdown",
    "table3_accuracy",
    "table4_auto_strategy",
    "fig6_comm_volume",
    "fig7_crossover",
    "figa1_windowed_ablation",
    "figa4_spike_comparison",
    "figa5_refinement",
    "figa6_pcr_comparison",
    "figa7_batch_width",
    "tablea2_renormalization",
];

fn main() {
    let args = bt_bench::Args::from_env();
    let out_dir = args.get_str("out").unwrap_or("results").to_string();
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();

    let started = std::time::Instant::now();
    let mut failures = Vec::new();
    for (i, exp) in EXPERIMENTS.iter().enumerate() {
        println!("\n[{}/{}] {exp}", i + 1, EXPERIMENTS.len());
        let bin: PathBuf = exe_dir.join(exp);
        let status = Command::new(&bin)
            .arg("--csv")
            .arg(format!("{out_dir}/{exp}.csv"))
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{exp} exited with {s}");
                failures.push(*exp);
            }
            Err(e) => {
                eprintln!(
                    "could not launch {exp}: {e}\n(hint: build all bins first with \
                     `cargo build --release -p bt-bench`)"
                );
                failures.push(*exp);
            }
        }
    }
    println!(
        "\nfinished {} experiments in {:.1?}; CSVs in {out_dir}/",
        EXPERIMENTS.len() - failures.len(),
        started.elapsed()
    );
    if !failures.is_empty() {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
}
