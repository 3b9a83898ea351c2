//! Regenerates the paper's fig11 results. See `dedup_bench::experiments::fig11`.
fn main() {
    dedup_bench::experiments::fig11::run();
}
