//! Runs every table and figure reproduction in paper order.
use dedup_bench::experiments as e;

fn main() {
    println!("# Paper reproduction — all tables and figures\n");
    e::fig03::run();
    e::table1::run();
    e::fig05::run();
    e::fig10::run();
    e::fig11::run();
    e::table2::run();
    e::fig12::run();
    e::table3::run();
    e::fig13::run();
    e::fig14::run();
    println!("\nDone. Compare against EXPERIMENTS.md for the recorded run.");
}
