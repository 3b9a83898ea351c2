//! End-to-end deduplication benchmark.
//!
//! ```text
//! perfbench --workload <ingest|durable|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload through the public API of `dedup-core` and
//! `dedup-store` in rounds until `--seconds` of measured rounds have
//! passed (after one untimed warm-up round), checks every output, and
//! prints a human-readable report followed by one JSON result line. With
//! `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
//! rounds alternate between traced and untraced, and the result holds the
//! per-layer metrics derived from the traced rounds' spans. The command
//! exits non-zero when any check fails. See `perfbench/README.md`.

mod checks;
mod fleet;
mod kernels;
mod report;
mod serve;
mod steps;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use checks::Checks;
use report::{median, quantile, Values, END_TO_END, PER_LAYER};
use steps::{Counters, Recovery};
use trace::Trace;

/// Measured rounds per run, at least.
const MIN_ROUNDS: usize = 3;

/// What one round measured.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    /// End-to-end values other than latency percentiles and set-up.
    pub e2e: Values,
    pub write_lat_ns: Vec<u64>,
    pub read_lat_ns: Vec<u64>,
    /// Sum of the timed phases, for the tracing overhead.
    pub timed_s: f64,
    /// Per-layer values (traced rounds only).
    pub layers: Values,
    pub counters: Counters,
    pub recovery: Option<Recovery>,
    pub trace: Trace,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ingest,
    Durable,
    Serve,
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "ingest" => Workload::Ingest,
                    "durable" => Workload::Durable,
                    "serve" => Workload::Serve,
                    w => return Err(format!("unknown workload {w}")),
                })
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => trace = value == "1",
            f => return Err(format!("unknown flag {f}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_round(o: &Opts, traced: bool, warm: bool, epoch: Instant, checks: &mut Checks) -> Round {
    match o.workload {
        Workload::Ingest => fleet::round(&fleet::Fleet::ingest(), o.seed, traced, epoch, checks),
        Workload::Durable => fleet::round(&fleet::Fleet::durable(), o.seed, traced, epoch, checks),
        Workload::Serve => {
            let mix_s = if warm {
                0.5
            } else {
                (o.seconds / 4.0).max(0.5)
            };
            serve::round(o.seed, mix_s, traced, epoch, checks)
        }
    }
}

/// Pins glibc malloc to a steady state: blocks under 32 MiB come from the
/// heap and freed heap memory is never returned to the OS. Each round
/// frees everything the previous one built; with the default dynamic
/// thresholds the next round faults that memory back in, so rounds speed
/// up one after another and the latency tails measure page faults. A
/// long-running storage process keeps its heap resident, which is what
/// this reproduces.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn steady_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only adjusts glibc allocator parameters; it is
    // called before this program allocates from another thread, with
    // in-range values (the mmap threshold's limit is 32 MiB on 64-bit).
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn steady_allocator() {}

/// Peak resident set size of this process (Linux `VmHWM`), in KiB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> ExitCode {
    steady_allocator();
    let o = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let wname = match o.workload {
        Workload::Ingest => "ingest",
        Workload::Durable => "durable",
        Workload::Serve => "serve",
    };
    let epoch = Instant::now();
    let mut checks = Checks::default();

    // Warm-up: one untimed round pays first-touch page faults and lazy
    // set-up; its set-up time still counts towards `setup_s`.
    let warm = Instant::now();
    let warm_round = run_round(&o, false, true, epoch, &mut checks);
    let warm_s = warm.elapsed().as_secs_f64();
    let mut setups = vec![warm_round.setup_s];
    let reference = warm_round.counters;

    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    let mut last_s = 0.0;
    // Start another round while at least half of it fits in `--seconds`.
    while rounds.len() + traced_rounds.len() < MIN_ROUNDS
        || start.elapsed().as_secs_f64() + last_s / 2.0 < o.seconds
        || (o.trace && (rounds.is_empty() || traced_rounds.is_empty()))
    {
        let traced = o.trace && i.is_multiple_of(2);
        let round_start = Instant::now();
        let r = run_round(&o, traced, false, epoch, &mut checks);
        last_s = round_start.elapsed().as_secs_f64();
        setups.push(r.setup_s);
        if traced {
            traced_rounds.push(r);
        } else {
            rounds.push(r);
        }
        i += 1;
    }
    let measured_s = start.elapsed().as_secs_f64();
    let all: Vec<&Round> = rounds.iter().chain(traced_rounds.iter()).collect();

    // Deterministic counters: single-client workloads repeat exactly.
    if o.workload != Workload::Serve {
        for r in &all {
            checks.check(r.counters == reference, || {
                format!("counters differ between rounds of seed {}", o.seed)
            });
        }
    }
    // The traced six-step recovery equals a real `recover_after_crash` on
    // an identical crash image (single-client rounds are identical).
    if o.workload != Workload::Serve {
        if let (Some(t), Some(u)) = (traced_rounds.first(), rounds.first()) {
            checks.check(t.recovery == u.recovery, || {
                format!(
                    "traced recovery {:?} differs from recover_after_crash {:?}",
                    t.recovery, u.recovery
                )
            });
        }
    }

    println!(
        "# perfbench {wname} seed={} trace={}",
        o.seed,
        u8::from(o.trace)
    );
    println!(
        "warm-up round {warm_s:.3} s; {} untraced + {} traced rounds in {measured_s:.3} s; host cores {}",
        rounds.len(),
        traced_rounds.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("counters (warm-up round):");
    for (k, v) in &reference {
        let spread = if o.workload == Workload::Serve {
            let vals: Vec<u64> = all
                .iter()
                .map(|r| r.counters.get(k).copied().unwrap_or(0))
                .collect();
            format!(
                "  [{}..{}]",
                vals.iter().min().copied().unwrap_or(0),
                vals.iter().max().copied().unwrap_or(0)
            )
        } else {
            String::new()
        };
        println!("  {k} = {v}{spread}");
    }

    let timed = if o.trace { &traced_rounds } else { &rounds };
    for (i, r) in timed.iter().enumerate() {
        let vals: Vec<String> = r.e2e.0.iter().map(|(k, v)| format!("{k}={v:.4}")).collect();
        println!("round {i}: setup_s={:.4} {}", r.setup_s, vals.join(" "));
    }
    let mut e2e = Values::median_of(&timed.iter().map(|r| r.e2e.clone()).collect::<Vec<_>>());
    e2e.set("setup_s", median(&mut setups));
    let mut wl: Vec<u64> = timed
        .iter()
        .flat_map(|r| r.write_lat_ns.iter().copied())
        .collect();
    let mut rl: Vec<u64> = timed
        .iter()
        .flat_map(|r| r.read_lat_ns.iter().copied())
        .collect();
    wl.sort_unstable();
    rl.sort_unstable();
    // Each round's own percentile, then the median over rounds: a burst
    // of host preemption that hits one round cannot set the tail.
    let per_round = |lat: fn(&Round) -> &Vec<u64>, q: f64| {
        let mut v: Vec<f64> = timed
            .iter()
            .map(|r| {
                let mut l = lat(r).clone();
                l.sort_unstable();
                quantile(&l, q) as f64 / 1e3
            })
            .collect();
        median(&mut v)
    };
    e2e.set("write_p50_us", per_round(|r| &r.write_lat_ns, 0.5));
    e2e.set("write_p99_us", per_round(|r| &r.write_lat_ns, 0.99));
    e2e.set("read_p50_us", per_round(|r| &r.read_lat_ns, 0.5));
    e2e.set("read_p99_us", per_round(|r| &r.read_lat_ns, 0.99));
    let min_samples = timed
        .iter()
        .map(|r| r.write_lat_ns.len().min(r.read_lat_ns.len()))
        .min()
        .unwrap_or(0);
    let failed_op_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "end-to-end ({}):",
        if o.trace {
            "traced rounds"
        } else {
            "untraced rounds"
        }
    );
    for (name, unit) in END_TO_END {
        println!("  {name} = {:.6} {unit}", e2e.get(name));
    }
    for (what, lat) in [("write", &wl), ("read", &rl)] {
        let qs: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999]
            .iter()
            .map(|&q| format!("p{}={:.1}", q * 100.0, quantile(lat, q) as f64 / 1e3))
            .collect();
        println!(
            "  {what} latency us, all rounds pooled: {} (samples {})",
            qs.join(" "),
            lat.len()
        );
    }
    println!("  fewest latency samples in one round = {min_samples}");
    println!(
        "  failed_op_ratio = {failed_op_ratio} ({} of {})",
        checks.failed, checks.attempted
    );
    if let Some(kb) = peak_rss_kb() {
        println!("  peak_rss = {:.1} MB", kb as f64 / 1024.0);
    }

    let mut layers = Values::default();
    if o.trace {
        layers = Values::median_of(
            &traced_rounds
                .iter()
                .map(|r| r.layers.clone())
                .collect::<Vec<_>>(),
        );
        let mut t: Vec<f64> = traced_rounds.iter().map(|r| r.timed_s).collect();
        let mut u: Vec<f64> = rounds.iter().map(|r| r.timed_s).collect();
        let (t, u) = (median(&mut t), median(&mut u));
        layers.set("trace.overhead_share", (t - u) / u);
        println!("per-layer (median of traced rounds):");
        for (name, unit) in PER_LAYER {
            println!("  {name} = {:.6} {unit}", layers.get(name));
        }
        let mut all_spans = Trace::default();
        for r in traced_rounds {
            all_spans.absorb(r.trace);
        }
        let path = std::path::PathBuf::from(format!("perfbench/out/spans-{wname}.tsv"));
        match trace::write_tsv(&path, all_spans.spans()) {
            Ok(()) => println!(
                "spans: {} written to {}",
                all_spans.spans().len(),
                path.display()
            ),
            Err(e) => println!("spans not written ({e})"),
        }
    }

    for p in &checks.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = checks.failed == 0;
    let (table, values) = if o.trace {
        (PER_LAYER, &layers)
    } else {
        (END_TO_END, &e2e)
    };
    println!(
        "{}",
        report::result_json(
            correct,
            checks.attempted.max(1),
            checks.failed,
            table,
            values
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
