//! Regenerates the paper's fig13 results. See `dedup_bench::experiments::fig13`.
fn main() {
    dedup_bench::experiments::fig13::run();
}
