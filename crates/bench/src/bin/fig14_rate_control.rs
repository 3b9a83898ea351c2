//! Regenerates the paper's fig14 results. See `dedup_bench::experiments::fig14`.
fn main() {
    dedup_bench::experiments::fig14::run();
}
