//! Ablation study. See `dedup_bench::experiments::ablations::cdc`.
fn main() {
    dedup_bench::experiments::ablations::cdc::run();
}
