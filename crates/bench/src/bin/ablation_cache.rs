//! Ablation study. See `dedup_bench::experiments::ablations::cache_policy`.
fn main() {
    dedup_bench::experiments::ablations::cache_policy::run();
}
