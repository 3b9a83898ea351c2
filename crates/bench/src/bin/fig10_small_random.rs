//! Regenerates the paper's fig10 results. See `dedup_bench::experiments::fig10`.
fn main() {
    dedup_bench::experiments::fig10::run();
}
