//! Regenerates the paper's table1 results. See `dedup_bench::experiments::table1`.
fn main() {
    dedup_bench::experiments::table1::run();
}
