//! The `perf` experiment: a machine-readable performance baseline.
//!
//! Unlike the paper-reproduction experiments, this one tracks the
//! repository's *own* performance trajectory: per-benchmark kernel
//! micro-timings (the mask-based concatenation and squared star against
//! the split-gather and linear-iteration kernels they replaced) and a
//! per-backend wall-clock comparison over the Table 1 benchmark pool.
//! The `reproduce perf` command serialises the report to
//! `BENCH_core.json` (see [`PerfReport::to_json`]); a copy of the file is
//! committed at the repository root so every PR has a baseline to beat,
//! and CI regenerates it as an artifact on every push.

use std::time::Instant;

use rei_core::{BackendChoice, SynthSession, SynthesisStats};
use rei_lang::{csops, Cs, GuideMasks, GuideTable, InfixClosure};
use rei_service::json::Json;
use rei_syntax::parse;

use crate::costs::REFERENCE;
use crate::harness::figure1::benchmark_pool;
use crate::harness::{HarnessConfig, Scale};

/// Kernel micro-timings on one benchmark's infix closure.
#[derive(Debug, Clone)]
pub struct KernelPerfRow {
    /// Benchmark name (`T1-…` / `T2-…`).
    pub benchmark: String,
    /// Size of the infix closure the kernels operate over.
    pub closure_size: usize,
    /// Mean nanoseconds per split-gather concatenation (the seed kernel).
    pub concat_gather_ns: f64,
    /// Mean nanoseconds per mask-based concatenation.
    pub concat_masked_ns: f64,
    /// `concat_gather_ns / concat_masked_ns`.
    pub concat_speedup: f64,
    /// Mean nanoseconds per linear-iteration star (the seed kernel).
    pub star_linear_ns: f64,
    /// Mean nanoseconds per squared star.
    pub star_squared_ns: f64,
    /// `star_linear_ns / star_squared_ns`.
    pub star_speedup: f64,
}

/// Wall-clock and search statistics of one backend over the whole pool.
#[derive(Debug, Clone)]
pub struct BackendPerfRow {
    /// Canonical backend name (`Backend::name()`).
    pub backend: String,
    /// Wall-clock seconds across every run of the pool.
    pub wall_seconds: f64,
    /// Runs that produced an expression.
    pub solved: usize,
    /// Total runs.
    pub total: usize,
    /// Candidate languages constructed across all runs.
    pub candidates: u64,
    /// Unique languages (rows built) across all runs.
    pub rows_built: u64,
    /// Fraction of candidates rejected as duplicates:
    /// `1 − rows_built / candidates`.
    pub dedup_hit_rate: f64,
    /// Work chunks claimed by the level execution engine (streamed level
    /// chunks, or work-stealing claims on the thread-parallel backend).
    pub chunks_claimed: u64,
    /// Chunks a thread-parallel worker stole from a peer's range.
    pub chunks_stolen: u64,
    /// Rows whose full satisfaction check the admission prefilter
    /// skipped.
    pub prefilter_rejects: u64,
    /// `prefilter_rejects / candidates` (0 when no candidates ran).
    pub prefilter_reject_rate: f64,
    /// Uniqueness-filter insertions that overflowed its table.
    pub dedup_overflowed: u64,
}

/// The full perf baseline: kernel micro-timings plus the per-backend
/// comparison, with geometric-mean summaries.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// Seed the benchmark pool was generated from.
    pub seed: u64,
    /// Worker threads used by the parallel backends.
    pub threads: usize,
    /// Cores the host reported; the thread-parallel vs sequential
    /// wall-clock comparison is only meaningful when this is ≥ 2.
    pub available_cores: usize,
    /// Per-benchmark kernel rows.
    pub kernels: Vec<KernelPerfRow>,
    /// Geometric mean of the per-benchmark concat speedups.
    pub geomean_concat_speedup: f64,
    /// Geometric mean of the per-benchmark star speedups.
    pub geomean_star_speedup: f64,
    /// One row per backend over the shared pool.
    pub backends: Vec<BackendPerfRow>,
}

/// Times `f` and returns the nanoseconds per operation of the *fastest*
/// of several measurement rounds (the minimum is the standard scheduler-
/// noise-resistant estimator for micro-benchmarks), where each call of
/// `f` performs `ops_per_call` operations. One warm-up call precedes the
/// measurements.
fn time_per_op<F: FnMut()>(calls: usize, ops_per_call: usize, mut f: F) -> f64 {
    const ROUNDS: usize = 5;
    f();
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let per_op = start.elapsed().as_nanos() as f64 / (calls * ops_per_call) as f64;
        best = best.min(per_op);
    }
    best
}

/// A mixed bag of operand rows over `ic`: sparse literals, mid-density
/// concatenations and dense starred languages, mirroring what a real
/// cost level combines.
fn operand_rows(ic: &InfixClosure) -> Vec<Cs> {
    [
        "0",
        "1",
        "01",
        "0?1",
        "(0+1)(0+1)",
        "1(0+1)*",
        "(0?1)*",
        "(0+11)*1",
        "(10)*",
    ]
    .iter()
    .map(|e| ic.cs_of_regex(&parse(e).expect("operand regex parses")))
    .collect()
}

fn kernel_row(name: &str, spec: &rei_lang::Spec, calls: usize) -> KernelPerfRow {
    let ic = InfixClosure::of_spec(spec);
    let gt = GuideTable::build(&ic);
    let gm = GuideMasks::build(&ic);
    let eps = ic.eps_index().expect("non-empty spec closure");
    let rows = operand_rows(&ic);
    let width = ic.width();
    let pairs = rows.len() * rows.len();

    let mut dst = Cs::zero(width);
    let concat_gather_ns = time_per_op(calls, pairs, || {
        for a in &rows {
            for b in &rows {
                csops::concat_into_gather(dst.blocks_mut(), a.blocks(), b.blocks(), &gt);
            }
        }
    });
    let concat_masked_ns = time_per_op(calls, pairs, || {
        for a in &rows {
            for b in &rows {
                csops::concat_into(dst.blocks_mut(), a.blocks(), b.blocks(), &gm);
            }
        }
    });

    let mut scratch = vec![0u64; width.blocks()];
    let star_linear_ns = time_per_op(calls, rows.len(), || {
        for a in &rows {
            csops::star_into_linear(dst.blocks_mut(), a.blocks(), &gt, eps, &mut scratch);
        }
    });
    let star_squared_ns = time_per_op(calls, rows.len(), || {
        for a in &rows {
            csops::star_into(dst.blocks_mut(), a.blocks(), &gm, eps, &mut scratch);
        }
    });

    KernelPerfRow {
        benchmark: name.to_string(),
        closure_size: ic.len(),
        concat_gather_ns,
        concat_masked_ns,
        concat_speedup: concat_gather_ns / concat_masked_ns,
        star_linear_ns,
        star_squared_ns,
        star_speedup: star_linear_ns / star_squared_ns,
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0f64, 0usize), |(s, c), v| (s + v.ln(), c + 1));
    if count == 0 {
        1.0
    } else {
        (sum / count as f64).exp()
    }
}

fn backend_row(
    config: &HarnessConfig,
    choice: BackendChoice,
    specs: &[rei_lang::Spec],
) -> BackendPerfRow {
    let synth_config = config.synth_config(REFERENCE.costs).with_backend(choice);
    let mut session = SynthSession::new(synth_config).expect("perf config is valid");
    let started = Instant::now();
    let mut solved = 0usize;
    let mut candidates = 0u64;
    let mut rows_built = 0u64;
    for spec in specs {
        let stats: Option<SynthesisStats> = match session.run(spec) {
            Ok(result) => {
                solved += 1;
                Some(result.stats)
            }
            Err(err) => err.stats().cloned(),
        };
        if let Some(stats) = stats {
            candidates += stats.candidates_generated;
            rows_built += stats.unique_languages;
        }
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    // The scheduler and prefilter counters accumulate on the session
    // across the whole pool — exactly the per-backend totals the report
    // wants.
    let totals = *session.stats();
    BackendPerfRow {
        backend: session.backend_name().to_string(),
        wall_seconds,
        solved,
        total: specs.len(),
        candidates,
        rows_built,
        dedup_hit_rate: if candidates == 0 {
            0.0
        } else {
            1.0 - rows_built as f64 / candidates as f64
        },
        chunks_claimed: totals.chunks_claimed,
        chunks_stolen: totals.chunks_stolen,
        prefilter_rejects: totals.prefilter_rejects,
        prefilter_reject_rate: if candidates == 0 {
            0.0
        } else {
            totals.prefilter_rejects as f64 / candidates as f64
        },
        dedup_overflowed: totals.dedup_overflowed,
    }
}

/// Runs the perf baseline: kernel micro-timings on every benchmark of the
/// Table 1 pool, then the pool end-to-end on each backend.
pub fn run_perf(config: &HarnessConfig) -> PerfReport {
    let pool = benchmark_pool(config);
    let calls = match config.scale {
        Scale::Quick => 200,
        Scale::Full => 1000,
    };
    let kernels: Vec<KernelPerfRow> = pool
        .iter()
        .map(|b| kernel_row(&b.name, &b.spec, calls))
        .collect();

    let specs: Vec<rei_lang::Spec> = pool.iter().map(|b| b.spec.clone()).collect();
    let threads = config.device_threads;
    let backends = vec![
        backend_row(config, BackendChoice::Sequential, &specs),
        backend_row(
            config,
            BackendChoice::ThreadParallel {
                threads: Some(threads),
            },
            &specs,
        ),
        backend_row(
            config,
            BackendChoice::DeviceParallel {
                threads: Some(threads),
            },
            &specs,
        ),
    ];

    PerfReport {
        scale: match config.scale {
            Scale::Quick => "quick".to_string(),
            Scale::Full => "full".to_string(),
        },
        seed: config.seed,
        threads,
        available_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        geomean_concat_speedup: geomean(kernels.iter().map(|k| k.concat_speedup)),
        geomean_star_speedup: geomean(kernels.iter().map(|k| k.star_speedup)),
        kernels,
        backends,
    }
}

impl PerfReport {
    /// The report as a JSON document (schema `rei-bench/perf-v6`), built
    /// with the shared writer in [`rei_service::json`] — the workspace's
    /// serde shim provides no serializer. The `reproduce` binary merges
    /// this object into `BENCH_core.json`, preserving sections other
    /// experiments own (such as `service`). v3 added the level-execution
    /// counters per backend: chunks claimed, chunks stolen, prefilter
    /// rejects (plus rate) and dedup overflow. v4 marks the document
    /// whose `service` section (owned by `reproduce serve`) carries the
    /// sharded-pool breakdown and the disk-warm restart pass. v5 added a
    /// second kernel section, which v6 removed together with the kernels
    /// it timed: `kernels` holds only the per-benchmark tripwire rows.
    pub fn to_json_value(&self) -> Json {
        Json::object([
            ("schema", Json::str("rei-bench/perf-v6")),
            ("scale", Json::str(&self.scale)),
            ("seed", Json::uint(self.seed)),
            ("threads", Json::uint(self.threads as u64)),
            ("available_cores", Json::uint(self.available_cores as u64)),
            (
                "kernels",
                Json::object([
                    (
                        "geomean_concat_speedup",
                        Json::fixed(self.geomean_concat_speedup, 2),
                    ),
                    (
                        "geomean_star_speedup",
                        Json::fixed(self.geomean_star_speedup, 2),
                    ),
                    (
                        "per_benchmark",
                        Json::array(self.kernels.iter().map(|k| {
                            Json::object([
                                ("benchmark", Json::str(&k.benchmark)),
                                ("closure_size", Json::uint(k.closure_size as u64)),
                                ("concat_gather_ns", Json::fixed(k.concat_gather_ns, 1)),
                                ("concat_masked_ns", Json::fixed(k.concat_masked_ns, 1)),
                                ("concat_speedup", Json::fixed(k.concat_speedup, 2)),
                                ("star_linear_ns", Json::fixed(k.star_linear_ns, 1)),
                                ("star_squared_ns", Json::fixed(k.star_squared_ns, 1)),
                                ("star_speedup", Json::fixed(k.star_speedup, 2)),
                            ])
                        })),
                    ),
                ]),
            ),
            (
                "backends",
                Json::array(self.backends.iter().map(|b| {
                    Json::object([
                        ("backend", Json::str(&b.backend)),
                        ("wall_seconds", Json::fixed(b.wall_seconds, 4)),
                        ("solved", Json::uint(b.solved as u64)),
                        ("total", Json::uint(b.total as u64)),
                        ("candidates", Json::uint(b.candidates)),
                        ("rows_built", Json::uint(b.rows_built)),
                        ("dedup_hit_rate", Json::fixed(b.dedup_hit_rate, 4)),
                        ("chunks_claimed", Json::uint(b.chunks_claimed)),
                        ("chunks_stolen", Json::uint(b.chunks_stolen)),
                        ("prefilter_rejects", Json::uint(b.prefilter_rejects)),
                        (
                            "prefilter_reject_rate",
                            Json::fixed(b.prefilter_reject_rate, 4),
                        ),
                        ("dedup_overflowed", Json::uint(b.dedup_overflowed)),
                    ])
                })),
            ),
        ])
    }

    /// The report rendered as a standalone pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> HarnessConfig {
        let mut config = HarnessConfig::quick();
        config.time_budget = std::time::Duration::from_millis(250);
        config
    }

    #[test]
    fn perf_report_covers_every_backend_and_benchmark() {
        let config = tiny_config();
        let report = run_perf(&config);
        assert_eq!(report.backends.len(), 3);
        assert!(!report.kernels.is_empty());
        let names: Vec<&str> = report.backends.iter().map(|b| b.backend.as_str()).collect();
        assert_eq!(
            names,
            ["cpu-sequential", "cpu-thread-parallel", "gpu-sim-parallel"]
        );
        for b in &report.backends {
            assert_eq!(b.total, benchmark_pool(&config).len());
            assert!(b.wall_seconds > 0.0);
            assert!((0.0..=1.0).contains(&b.dedup_hit_rate));
            assert!(b.chunks_claimed > 0, "{}: no chunks claimed", b.backend);
            assert!(
                (0.0..=1.0).contains(&b.prefilter_reject_rate),
                "{}: reject rate {}",
                b.backend,
                b.prefilter_reject_rate
            );
            assert!(
                b.prefilter_rejects <= b.candidates,
                "{}: more rejects than candidates",
                b.backend
            );
        }
        for k in &report.kernels {
            assert!(k.concat_masked_ns > 0.0 && k.concat_gather_ns > 0.0);
            assert!(k.star_squared_ns > 0.0 && k.star_linear_ns > 0.0);
        }
    }

    #[test]
    fn json_round_trips_through_the_shared_parser() {
        let config = tiny_config();
        let report = run_perf(&config);
        let text = report.to_json();
        assert!(text.starts_with("{\n"));
        assert!(text.ends_with("}\n"));
        let doc = Json::parse(&text).expect("report renders valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("rei-bench/perf-v6")
        );
        let backends = doc.get("backends").and_then(Json::as_array).unwrap();
        assert_eq!(backends.len(), 3);
        assert_eq!(
            backends[1].get("backend").and_then(Json::as_str),
            Some("cpu-thread-parallel")
        );
        for row in backends {
            for key in [
                "chunks_claimed",
                "chunks_stolen",
                "prefilter_rejects",
                "prefilter_reject_rate",
                "dedup_overflowed",
            ] {
                assert!(row.get(key).is_some(), "missing {key}: {row:?}");
            }
        }
        let kernels = doc.get("kernels").unwrap();
        assert!(kernels
            .get("geomean_concat_speedup")
            .unwrap()
            .as_f64()
            .is_some());
        assert!(!kernels
            .get("per_benchmark")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        let g = geomean([2.0, 2.0, 2.0].into_iter());
        assert!((g - 2.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }
}
