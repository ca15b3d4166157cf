//! Fixed-work, paper-scale benchmark of the REI search, its kernels and
//! its TCP service. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_seq --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). The exit
//! code is 0 only when every answer passed the oracle and the work was
//! fixed.

mod batch;
mod oracle;
mod pool;
mod reference;
mod replay;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use batch::Batch;
use trace::Trace;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, from [`END_TO_END`], [`PER_LAYER`] or the
    /// workload-specific names of the text report.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) become 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// The end-to-end metrics every workload reports untraced, with units.
/// Batch workloads count spec runs as answers; the service counts
/// answered synthesis requests. Times are each operation's fastest round,
/// expressed at the nominal host speed (see `reference`). Typical latency
/// is the interquartile mean; the tail is p80 for batch runs and p95 for
/// the service.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("answers_per_s", "1/s"),
    ("latency_ms_iqm", "ms"),
    ("latency_ms_tail", "ms"),
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("lang.closure_ms", "ms"),
    ("lang.guide_ms", "ms"),
    ("lang.satisfy_masks_ms", "ms"),
    ("lang.closure_words", "count"),
    ("lang.row_blocks", "count"),
    ("lang.guide_entries", "count"),
    ("lang.guide_mb", "MB"),
    ("kernel.concat_ns", "ns"),
    ("kernel.star_ns", "ns"),
    ("kernel.satisfy_ns", "ns"),
    ("kernel.union_ns", "ns"),
    ("kernel.question_ns", "ns"),
    ("kernel.concat_bytes", "B-computed"),
    ("kernel.star_bytes", "B-computed"),
    ("search.candidates", "count"),
    ("search.unique", "count"),
    ("search.unique_ratio", "ratio"),
    ("search.candidates_per_s", "1/s"),
    ("search.levels", "count"),
    ("search.top_level_ms", "ms"),
    ("search.prefilter_reject_rate", "ratio"),
    ("search.admission_folds", "count"),
    ("search.dedup_overflowed", "count"),
    ("search.cache_rows", "count"),
    ("search.cache_mb", "MB"),
    ("search.on_the_fly_runs", "count"),
    ("sched.chunks_claimed", "count"),
    ("sched.chunks_stolen", "count"),
    ("sched.steal_ratio", "ratio"),
    ("service.wait_ms_p50", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("service.fused_batches", "count"),
    ("service.refine_warm_ratio", "ratio"),
    ("service.rejected", "count"),
    ("wal.replay_ms", "ms"),
    ("wal.records_loaded", "count"),
    ("wal.bytes_appended", "bytes"),
    ("net.connect_ms_p50", "ms"),
    ("net.overhead_ms_p50", "ms"),
    ("net.overhead_ms_p99", "ms"),
    ("net.first_overhead_ms_p50", "ms"),
    ("hit_ms_p50", "ms"),
    ("miss_ms_p50", "ms"),
    ("first_reply_ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.spec_self_ms", "ms"),
    ("trace.conn_self_ms", "ms"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: spec runs, or synthesis requests sent.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Values for [`END_TO_END`] (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Values for [`PER_LAYER`] (traced runs).
    pub per_layer: Vec<Metric>,
    /// The workload's end-to-end metrics under their own names
    /// (`specs_per_s`, `req_ms_p99`, ...), for the text report.
    pub named: Vec<Metric>,
    /// The tail percentile reported and its sample count.
    pub tail_samples: Option<(f64, usize)>,
    /// The traced run's spans.
    pub trace: Option<Trace>,
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Worker threads for the parallel backend and the server: one per core.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The repository root this benchmark was built from.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Where runs keep temporary stores and traces: under the Cargo target
/// directory, so they stay inside the checkout and out of version control.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("target"));
    let target = if target.is_relative() {
        std::env::current_dir()
            .map(|cwd| cwd.join(&target))
            .unwrap_or(target)
    } else {
        target
    };
    target.join("perfbench")
}

/// `VmHWM` (peak resident set) of process `pid`, or of this process, in
/// MB.
pub fn vm_hwm_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let status =
        std::fs::read_to_string(&path).map_err(|err| format!("cannot read {path}: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Resets the peak resident set of process `pid`, or of this process, to
/// its current resident set.
pub fn reset_peak(pid: Option<u32>) -> Result<(), String> {
    std::fs::write(proc_path(pid, "clear_refs"), "5")
        .map_err(|err| format!("cannot reset the peak resident set: {err}"))
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// A workload by its command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Batch(Batch),
    ServiceTcp,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("paper_seq", Workload::Batch(Batch::PaperSeq)),
    ("wide_words", Workload::Batch(Batch::WideWords)),
    ("service_tcp", Workload::ServiceTcp),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_expectations: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_seq|wide_words|service_tcp> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --write-expectations";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: pool::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        write_expectations: false,
    };
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = WORKLOADS
                    .iter()
                    .find(|(known, _)| known == name)
                    .map(|(known, _)| *known)
                    .ok_or_else(|| format!("unknown workload '{name}'"))?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("bad --seconds")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--write-expectations" => args.write_expectations = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() && !args.write_expectations {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs every pair of the default seed's pools once and writes their
/// outcomes to `expected/seed-<DEFAULT_SEED>.tsv`.
fn write_expectations() -> Result<(), String> {
    use rei_core::{SynthConfig, SynthSession};
    let mut lines = vec![format!(
        "# Outcome of every (spec, cost function) pair of seed {}: pool, pair key, outcome.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --write-expectations",
        pool::DEFAULT_SEED
    )];
    for (name, pairs) in [
        ("paper", pool::paper_pairs(pool::DEFAULT_SEED)),
        ("wide", pool::wide_pairs(pool::DEFAULT_SEED)),
    ] {
        for pair in &pairs {
            let config = SynthConfig::new(pair.costs.costs).with_max_cost(pair.max_cost);
            let mut session = SynthSession::new(config).map_err(|err| err.to_string())?;
            let result = session.run(&pair.spec);
            let outcome = oracle::check_run(
                &pair.spec,
                &pair.costs.costs,
                pair.max_cost,
                result.as_ref(),
            )?;
            lines.push(format!("{name}\t{}\t{outcome}", pair.key()));
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("seed-{}.tsv", pool::DEFAULT_SEED));
    std::fs::write(&path, lines.join("\n") + "\n")
        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    eprintln!("wrote {} pairs to {}", lines.len() - 1, path.display());
    Ok(())
}

/// Fills in the metrics of `names` from `measured`, 0 where a layer was
/// not exercised, in the list's order.
fn complete(
    names: &[(&'static str, &'static str)],
    measured: &[Metric],
) -> Result<Vec<Metric>, String> {
    if let Some(stray) = measured
        .iter()
        .find(|m| !names.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric '{}' is not declared", stray.name));
    }
    Ok(names
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit))
        })
        .collect())
}

fn run(args: &Args) -> Result<(), String> {
    // The benchmark measures the default kernel dispatch and no injected
    // faults, as users run the program.
    for var in ["REI_KERNEL_TIER", "REI_FAILPOINT"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it to measure default behaviour"
            ));
        }
    }
    let workload = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|(_, w)| *w)
        .expect("validated by parse_args");
    let mut report = match workload {
        Workload::Batch(batch) => batch::run(batch, args.seed, args.seconds, args.trace)?,
        Workload::ServiceTcp => service::run(args.seed, args.seconds, args.trace)?,
    };

    if let Some(trace) = &report.trace {
        let summary = trace.summary();
        let self_ms = |name: &str| {
            summary
                .iter()
                .find(|row| row.0 == name)
                .map_or(0.0, |row| row.3.as_secs_f64() * 1e3 / row.1 as f64)
        };
        report.per_layer.extend([
            Metric::new("trace.spans", trace.spans().len() as f64, "count"),
            Metric::new("trace.spec_self_ms", self_ms("spec"), "ms"),
            Metric::new("trace.conn_self_ms", self_ms("conn"), "ms"),
        ]);
        println!("spans (name, count, total ms, self ms):");
        for (name, count, total, own) in summary {
            println!(
                "  {name:<22} {count:>8} {:>12.3} {:>12.3}",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            );
        }
        let path = work_dir()
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        trace
            .write_jsonl(&path)
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
        println!("spans written to {}", path.display());
    }

    if report.attempted == 0 {
        return Err("the run attempted nothing".into());
    }
    let failed = report.failures.len() as u64;
    for failure in report.failures.iter().take(20) {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for metric in &report.named {
        println!(
            "  {:<20} {:>14.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    println!(
        "  {:<20} {:>14.6} ratio ({failed} failed / {} attempted)",
        "error_rate",
        stats::ratio(failed as f64, report.attempted as f64),
        report.attempted
    );
    if let Some((p, n)) = report.tail_samples {
        println!("  {:<20} {n:>14} count (tail is p{p})", "latency_samples");
        if !stats::tail_supported(p, n) {
            eprintln!(
                "warning: p{p} over {n} samples has fewer than {} beyond it",
                stats::TAIL_SAMPLES
            );
        }
    }
    let metrics = if args.trace {
        complete(&PER_LAYER, &report.per_layer)?
    } else {
        complete(&END_TO_END, &report.end_to_end)?
    };
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        report.attempted,
        fields.join(", ")
    );
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} checks failed"))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|args| {
        if args.write_expectations {
            write_expectations()
        } else {
            run(&args)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            if message.starts_with("unknown") || message.contains("needs a value") {
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_valid() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");
    }

    #[test]
    fn name_charset() {
        assert!(valid_name("search.top_level_ms"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("spaced name"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let json = rei_service::json::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_workloads_are_runnable() {
        let json = rei_service::json::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let workloads = json.get("workloads").and_then(|w| w.as_array()).unwrap();
        assert!(workloads.len() >= 2);
        for workload in workloads {
            let name = workload.get("name").and_then(|n| n.as_str()).unwrap();
            assert!(WORKLOADS.iter().any(|(known, _)| *known == name), "{name}");
        }
    }

    #[test]
    fn undeclared_metrics_are_refused_and_missing_ones_are_zero() {
        let measured = [Metric::new("setup_s", 0.5, "s")];
        let full = complete(&END_TO_END, &measured).unwrap();
        assert_eq!(full.len(), END_TO_END.len());
        assert_eq!(full[0].value, 0.5);
        assert_eq!(full[2].value, 0.0);
        assert!(complete(&END_TO_END, &[Metric::new("bogus", 1.0, "s")]).is_err());
    }
}
