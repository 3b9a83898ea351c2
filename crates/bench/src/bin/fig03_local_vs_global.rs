//! Regenerates the paper's fig03 results. See `dedup_bench::experiments::fig03`.
fn main() {
    dedup_bench::experiments::fig03::run();
}
