//! Regenerates the paper's table2 results. See `dedup_bench::experiments::table2`.
fn main() {
    dedup_bench::experiments::table2::run();
}
