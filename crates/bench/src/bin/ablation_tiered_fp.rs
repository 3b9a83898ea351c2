//! Ablation study. See `dedup_bench::experiments::ablations::tiered_fp`.
fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    dedup_bench::experiments::ablations::tiered_fp::run(smoke);
}
