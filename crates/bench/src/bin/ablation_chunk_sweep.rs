//! Ablation study. See `dedup_bench::experiments::ablations::chunk_sweep`.
fn main() {
    dedup_bench::experiments::ablations::chunk_sweep::run();
}
