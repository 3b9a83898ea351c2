//! Regenerates the paper's fig05 results. See `dedup_bench::experiments::fig05`.
fn main() {
    dedup_bench::experiments::fig05::run();
}
