//! Regenerates the paper's table3 results. See `dedup_bench::experiments::table3`.
fn main() {
    dedup_bench::experiments::table3::run();
}
