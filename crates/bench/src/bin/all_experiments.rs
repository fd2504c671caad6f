//! Runs every table and figure in sequence (hours at medium scale; set
//! MA_SCALE=tiny or small for a quick pass).

// Reports its own wall time; the workspace's wall-clock ban
// (`crates/clippy.toml`) does not apply to benchmarks.
#![allow(clippy::disallowed_methods)]
fn main() {
    let t0 = std::time::Instant::now();
    ma_bench::tables::table2();
    ma_bench::figures::fig07();
    ma_bench::ablations::ablation_conductance();
    ma_bench::figures::burnin();
    ma_bench::figures::fig02();
    ma_bench::figures::fig03();
    ma_bench::figures::fig04();
    ma_bench::figures::fig05();
    ma_bench::figures::fig08();
    ma_bench::figures::fig09();
    ma_bench::figures::fig10();
    ma_bench::figures::fig11();
    ma_bench::figures::fig12();
    ma_bench::figures::fig13();
    ma_bench::figures::fig14();
    ma_bench::tables::table3();
    ma_bench::ablations::ablation_root_cache();
    ma_bench::exactp::estimate_p_check();
    eprintln!("\nall experiments done in {:.0?}", t0.elapsed());
}
