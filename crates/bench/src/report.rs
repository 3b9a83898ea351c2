//! Markdown reporting shared by every experiment binary and the sidecar
//! files every figure binary drops next to its output.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use dedup_obs::{sample_resources, Observer, Registry};
use dedup_sim::SimTime;

use crate::systems::StorageSystem;

/// Whether the binary was started with `--trace`. Systems built under it
/// attach a traced [`Observer`] (tracer and event log), so their trace,
/// event and op-dump sidecars are written too.
pub fn trace_requested() -> bool {
    std::env::args().skip(1).any(|a| a == "--trace")
}

/// Accumulates what an experiment's systems observed and writes it as
/// one set of sidecars under `$DEDUP_OBS_DIR` (default `target/obs`):
///
/// - `<figure>.metrics.jsonl` — one registry metric per line, tagged with
///   a `system` label naming the configuration under test;
/// - `<figure>.trace.json` — the tracers' span trees as one Chrome trace
///   (loadable in Perfetto / `chrome://tracing`), one track group per
///   system;
/// - `<figure>.events.jsonl` — every event-log entry, tagged with the
///   system label;
/// - `<figure>.ops.json` — each tracer's op-tracker dump (Ceph's
///   `dump_in_flight_ops` / `dump_historic_ops`).
///
/// The last three are written only when a captured system has a tracer
/// or event log attached (`--trace`), so figure binaries call this
/// unconditionally.
pub struct Sidecars {
    figure: String,
    metrics: Vec<String>,
    observed: Vec<(String, Observer)>,
}

impl Sidecars {
    /// Starts the sidecars for `figure` (e.g. `"fig14"`).
    pub fn new(figure: impl Into<String>) -> Self {
        Sidecars {
            figure: figure.into(),
            metrics: Vec::new(),
            observed: Vec::new(),
        }
    }

    /// Snapshots `system`'s registry at virtual time `now` under `label`,
    /// after sampling per-resource utilisation into it so the metrics
    /// cover the timing plane too. The system's tracer and event log are
    /// kept and rendered by [`Sidecars::write`], so they include
    /// everything the system does until then.
    pub fn capture(&mut self, label: &str, system: &dyn StorageSystem, now: SimTime) {
        let registry = system.registry();
        sample_resources(registry, &system.cluster().perf().pool, now);
        self.capture_registry(label, registry, now);
        self.observed
            .push((label.to_string(), system.observer().clone()));
    }

    /// Snapshots a bare registry (analyses without a storage stack).
    pub fn capture_registry(&mut self, label: &str, registry: &Registry, now: SimTime) {
        let mut snaps = registry.snapshot(now);
        for snap in &mut snaps {
            // Registry labels are sorted by key; keep the injected label in
            // order so sidecar lines are byte-deterministic regardless of
            // each metric's own label set.
            let pos = snap
                .labels
                .binary_search_by(|(k, _)| k.as_str().cmp("system"))
                .unwrap_or_else(|p| p);
            snap.labels
                .insert(pos, ("system".to_string(), label.to_string()));
            self.metrics.push(snap.to_json());
        }
    }

    /// Metric lines captured so far (one JSON object per metric).
    pub fn metrics_lines(&self) -> &[String] {
        &self.metrics
    }

    /// Writes every non-empty sidecar, creating the directory if needed,
    /// and returns the paths written. Errors are reported but not fatal:
    /// a read-only checkout must not kill a figure run.
    pub fn write(&self) -> Vec<PathBuf> {
        let dir = std::env::var_os("DEDUP_OBS_DIR")
            .map_or_else(|| PathBuf::from("target/obs"), PathBuf::from);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("sidecars skipped ({}: {e})", dir.display());
            return Vec::new();
        }
        let mut traces = Vec::new();
        let mut ops = Vec::new();
        let mut events = None;
        for (label, obs) in &self.observed {
            if let Some(t) = obs.tracer() {
                traces.push((label.clone(), t.export()));
                ops.push(format!(
                    "{{\"system\":\"{label}\",\"in_flight\":{},\"historic\":{}}}",
                    t.dump_in_flight(),
                    t.dump_historic()
                ));
            }
            if let Some(log) = obs.events() {
                let lines = events.get_or_insert_with(String::new);
                for e in log.events() {
                    // Splice the system label in as the first key; event
                    // JSON always starts with `{"seq":`.
                    let _ = writeln!(lines, "{{\"system\":\"{label}\",{}", &e.to_json()[1..]);
                }
            }
        }
        let mut metrics = self.metrics.join("\n");
        metrics.push('\n');
        let mut files = vec![("metrics.jsonl", metrics)];
        if !traces.is_empty() {
            files.push(("trace.json", dedup_obs::render(&traces)));
            files.push(("ops.json", format!("[{}]\n", ops.join(","))));
        }
        if let Some(events) = events {
            files.push(("events.jsonl", events));
        }
        files
            .into_iter()
            .filter_map(|(ext, body)| write_sidecar(&dir, &format!("{}.{ext}", self.figure), body))
            .collect()
    }
}

fn write_sidecar(dir: &Path, name: &str, body: String) -> Option<PathBuf> {
    let path = dir.join(name);
    match std::fs::write(&path, body) {
        Ok(()) => {
            println!("sidecar: {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("sidecar skipped ({}: {e})", path.display());
            None
        }
    }
}

/// Prints an experiment header with the paper reference.
pub fn header(id: &str, title: &str, notes: &str) {
    println!("\n## {id} — {title}\n");
    if !notes.is_empty() {
        println!("{notes}\n");
    }
}

/// Renders a markdown table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Prints a markdown table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table(headers, rows));
}

/// Renders a per-second series as a compact `t=..s v` listing, sampling
/// every `step` bins.
pub fn series(name: &str, values: &[f64], step: usize) -> String {
    let mut out = format!("{name}: ");
    for (i, v) in values.iter().enumerate().step_by(step.max(1)) {
        let _ = write!(out, "{i}s={v:.0} ");
    }
    out
}

/// Formats bytes human-readably (GiB/MiB/KiB).
pub fn fmt_bytes(bytes: u64) -> String {
    const GIB: f64 = (1u64 << 30) as f64;
    const MIB: f64 = (1u64 << 20) as f64;
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= GIB {
        format!("{:.2} GiB", b / GIB)
    } else if b >= MIB {
        format!("{:.2} MiB", b / MIB)
    } else if b >= KIB {
        format!("{:.1} KiB", b / KIB)
    } else {
        format!("{bytes} B")
    }
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{x:.2}%")
}

/// Formats milliseconds with two decimals.
pub fn ms(x: f64) -> String {
    format!("{x:.2} ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape() {
        let t = table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("| a | b |"));
        assert!(lines[1].contains("---"));
        assert!(lines[2].contains("| 1 | 2 |"));
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(10), "10 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00 GiB");
    }

    #[test]
    fn series_sampling() {
        let s = series("x", &[1.0, 2.0, 3.0, 4.0], 2);
        assert!(s.contains("0s=1"));
        assert!(s.contains("2s=3"));
        assert!(!s.contains("1s=2"));
    }
}
