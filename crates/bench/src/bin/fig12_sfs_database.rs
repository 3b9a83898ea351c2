//! Regenerates the paper's fig12 results. See `dedup_bench::experiments::fig12`.
fn main() {
    dedup_bench::experiments::fig12::run();
}
