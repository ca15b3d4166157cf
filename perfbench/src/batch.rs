//! The two batch workloads: spec runs through `SynthSession::run_with`
//! on one caller thread, back to back.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rei_core::{
    BackendChoice, LevelStats, NoopObserver, Observer, SynthConfig, SynthSession, SynthesisError,
    SynthesisResult, SynthesisStats,
};
use rei_lang::Spec;

use crate::oracle::{self, Expectations, Outcome};
use crate::pool::{self, Pair};
use crate::reference::{self, Reference};
use crate::replay;
use crate::stats::{interquartile_mean, median, percentile, ratio};
use crate::trace::Trace;
use crate::{Metric, Report};

/// Far above any pair's expected time: a run ends solved or `NotFound`.
const TIME_BUDGET: Duration = Duration::from_secs(60);

/// Rounds a run makes at the least, however short its window. A round
/// builds the pool's sessions and runs every pair once; a pair's time is
/// its fastest round, so at least this many runs stand behind each.
const MIN_ROUNDS: usize = 3;

/// Whether a run that has made `done` rounds in `elapsed` starts another
/// in a window of `window`: always below [`MIN_ROUNDS`], and after that
/// while the next round, as long as the mean one, would end at most half
/// a round past the window. A run then lasts its window give or take half
/// a round.
pub fn another_round(done: usize, elapsed: Duration, window: Duration) -> bool {
    done < MIN_ROUNDS || elapsed + elapsed / (2 * done as u32) < window
}

/// Set-up readings at the start of each round. One reading builds the
/// pool's sessions [`SETUP_BATCH`] times over and counts the mean, so it
/// spans far more than the clock's resolution.
const SETUP_READINGS: usize = 21;
const SETUP_BATCH: usize = 100;

/// One of the batch workloads, both on `cpu-sequential`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// The paper pool.
    PaperSeq,
    /// Long-example specs.
    WideWords,
}

impl Batch {
    fn pool_name(self) -> &'static str {
        match self {
            Batch::PaperSeq => "paper",
            Batch::WideWords => "wide",
        }
    }

    /// The workload's pairs for `seed`.
    pub fn pairs(self, seed: u64) -> Vec<Pair> {
        match self {
            Batch::PaperSeq => pool::paper_pairs(seed),
            Batch::WideWords => pool::wide_pairs(seed),
        }
    }

    /// Pairs re-run after the timed window to check that the work is fixed.
    fn check_pairs(self) -> usize {
        match self {
            Batch::PaperSeq => 12,
            Batch::WideWords => 2,
        }
    }
}

/// The backend the fixed-work check compares the sequential runs with.
fn threaded() -> BackendChoice {
    BackendChoice::ThreadParallel {
        threads: Some(crate::cores()),
    }
}

fn config(pair: &Pair, backend: BackendChoice) -> SynthConfig {
    SynthConfig::new(pair.costs.costs)
        .with_backend(backend)
        .with_max_cost(pair.max_cost)
        .with_time_budget(TIME_BUDGET)
}

/// The key of a pair's session: its cost function and `max_cost`.
type SessionKey = ([u64; 5], u64);

fn session_key(pair: &Pair) -> SessionKey {
    (pair.costs.costs.as_tuple(), pair.max_cost)
}

/// One session per distinct (cost function, max_cost) of the pool.
struct Sessions {
    sessions: Vec<SynthSession>,
    index: HashMap<SessionKey, usize>,
}

impl Sessions {
    /// The distinct session configurations of `pairs`, and which one each
    /// key uses.
    fn configs(pairs: &[Pair]) -> (Vec<SynthConfig>, HashMap<SessionKey, usize>) {
        let mut configs = Vec::new();
        let mut index = HashMap::new();
        for pair in pairs {
            index.entry(session_key(pair)).or_insert_with(|| {
                configs.push(config(pair, BackendChoice::Sequential));
                configs.len() - 1
            });
        }
        (configs, index)
    }

    fn get(&mut self, pair: &Pair) -> &mut SynthSession {
        &mut self.sessions[self.index[&session_key(pair)]]
    }
}

/// One pass over the pool.
struct Round {
    /// The round's fastest set-up reading, in seconds.
    setup: f64,
    /// The process's peak resident set over the round's spec runs, in MB.
    peak_mb: f64,
    /// The summed wall time of the round's spec runs, in seconds.
    wall: f64,
    /// One record per pair, in pool order.
    records: Vec<RunRecord>,
}

/// What one spec run produced.
struct RunRecord {
    pair: usize,
    wall: Duration,
    /// The host-speed reference timed just before the run, in seconds.
    reference: f64,
    /// The process's peak resident set during the run, in MB.
    peak_mb: f64,
    outcome: Option<Outcome>,
    stats: SynthesisStats,
    levels: usize,
    top_level: Duration,
}

/// Observer of the traced run: one `level` span per gap between
/// consecutive events, under the spec span.
struct SpanObserver<'t> {
    trace: &'t mut Trace,
    spec: usize,
    last: Instant,
    levels: usize,
    top_level: Duration,
}

impl Observer for SpanObserver<'_> {
    fn on_start(&mut self, _spec: &Spec) {
        self.last = Instant::now();
    }

    fn on_level(&mut self, _level: &LevelStats) {
        let now = Instant::now();
        let (start, end) = (self.trace.offset(self.last), self.trace.offset(now));
        self.trace.record("level", Some(self.spec), 0, start, end);
        self.levels += 1;
        self.top_level = now - self.last;
        self.last = now;
    }

    fn on_finish(&mut self, _outcome: Result<&SynthesisResult, &SynthesisError>) {
        let now = Instant::now();
        let (start, end) = (self.trace.offset(self.last), self.trace.offset(now));
        self.trace.record("level", Some(self.spec), 0, start, end);
    }
}

/// Runs pairs and checks every answer.
struct Runner<'a> {
    batch: Batch,
    pairs: &'a [Pair],
    expected: Option<Expectations>,
    sessions: Sessions,
    /// First outcome and candidate count seen per pair, for repeats.
    seen: HashMap<usize, (Option<Outcome>, u64)>,
    reference: Reference,
    attempted: u64,
    failures: Vec<String>,
}

impl Runner<'_> {
    fn fail(&mut self, pair: usize, message: String) {
        let pair = &self.pairs[pair];
        self.failures.push(format!(
            "{} {} under {}: {message}",
            self.batch.pool_name(),
            pair.spec_name,
            pair.costs.label
        ));
    }

    /// Runs pair `index` once, traced when `trace` is given.
    fn run(&mut self, index: usize, trace: Option<(&mut Trace, usize)>) -> RunRecord {
        let pairs = self.pairs;
        let pair = &pairs[index];
        if let Err(message) = crate::reset_peak(None) {
            self.fail(index, message);
        }
        let reference = self.reference.time();
        let session = self.sessions.get(pair);
        let (wall, result, levels, top_level) = match trace {
            None => {
                let started = Instant::now();
                let result = session.run_with(&pair.spec, &mut NoopObserver);
                (started.elapsed(), result, 0, Duration::ZERO)
            }
            Some((trace, root)) => {
                let span = trace.open("spec", Some(root), index as u64);
                let started = Instant::now();
                let mut observer = SpanObserver {
                    trace,
                    spec: span,
                    last: started,
                    levels: 0,
                    top_level: Duration::ZERO,
                };
                let result = session.run_with(&pair.spec, &mut observer);
                let wall = started.elapsed();
                let (levels, top_level) = (observer.levels, observer.top_level);
                trace.close(span);
                (wall, result, levels, top_level)
            }
        };
        let peak_mb = crate::vm_hwm_mb(None).unwrap_or_else(|message| {
            self.fail(index, message);
            0.0
        });
        self.attempted += 1;
        let stats = match &result {
            Ok(solved) => solved.stats.clone(),
            Err(err) => err.stats().cloned().unwrap_or_default(),
        };
        let outcome = match oracle::check_run(
            &pair.spec,
            &pair.costs.costs,
            pair.max_cost,
            result.as_ref(),
        ) {
            Ok(outcome) => Some(outcome),
            Err(message) => {
                self.fail(index, message);
                None
            }
        };
        if let (Some(regex), Some(got)) = (&pair.planted, outcome) {
            if let Err(message) = oracle::check_planted(got, regex, &pair.costs.costs) {
                self.fail(index, message);
            }
        }
        self.verify(index, outcome, stats.candidates_generated);
        RunRecord {
            reference,
            pair: index,
            wall,
            peak_mb,
            outcome,
            stats,
            levels,
            top_level,
        }
    }

    /// Checks an outcome against the expectations file and against earlier
    /// runs of the same pair.
    fn verify(&mut self, index: usize, outcome: Option<Outcome>, candidates: u64) {
        let key = self.pairs[index].key();
        if let (Some(expected), Some(got)) = (&self.expected, outcome) {
            match expected.get(self.batch.pool_name(), &key) {
                Some(want) if want == got => {}
                Some(want) => self.fail(index, format!("outcome {got}, expected {want}")),
                None => self.fail(index, format!("pair {key} missing from expectations")),
            }
        }
        match self.seen.get(&index).copied() {
            None => {
                self.seen.insert(index, (outcome, candidates));
            }
            Some((first, first_candidates)) => {
                if first != outcome || first_candidates != candidates {
                    self.fail(
                        index,
                        format!(
                            "work not fixed: {candidates} candidates ({outcome:?}) on a repeat, \
                             {first_candidates} ({first:?}) before"
                        ),
                    );
                }
            }
        }
    }

    /// One round: fresh sessions for every configuration of the pool,
    /// built and timed [`SETUP_READINGS`] times, then every pair once, in
    /// pool order, traced when `trace` is given.
    fn round(&mut self, configs: &[SynthConfig], mut trace: Option<(&mut Trace, usize)>) -> Round {
        let mut setup = f64::INFINITY;
        for _ in 0..SETUP_READINGS {
            let fresh: Vec<SynthConfig> = (0..SETUP_BATCH).flat_map(|_| configs.to_vec()).collect();
            let mut built = Vec::with_capacity(fresh.len());
            let started = Instant::now();
            built.extend(
                fresh
                    .into_iter()
                    .map(|config| SynthSession::new(config).expect("benchmark config is valid")),
            );
            setup = setup.min(started.elapsed().as_secs_f64() / SETUP_BATCH as f64);
            built.truncate(configs.len());
            self.sessions.sessions = built;
        }
        let records: Vec<RunRecord> = (0..self.pairs.len())
            .map(|index| {
                let trace = trace.as_mut().map(|(trace, root)| (&mut **trace, *root));
                self.run(index, trace)
            })
            .collect();
        Round {
            setup,
            peak_mb: records.iter().map(|r| r.peak_mb).fold(0.0, f64::max),
            wall: records.iter().map(|r| r.wall.as_secs_f64()).sum(),
            records,
        }
    }

    /// The fixed-work check: a spread of the pairs already run, again on
    /// fresh sessions of `cpu-sequential` and `cpu-thread-parallel`;
    /// outcomes and candidate counts must equal the timed run's. Returns
    /// the statistics of the threaded runs.
    fn check_fixed_work(&mut self, records: &[RunRecord]) -> Vec<SynthesisStats> {
        let mut other = Vec::new();
        let count = self.batch.check_pairs().min(records.len());
        for k in 0..count {
            let record = &records[k * records.len() / count];
            let pairs = self.pairs;
            let pair = &pairs[record.pair];
            for backend in [BackendChoice::Sequential, threaded()] {
                let mut session =
                    SynthSession::new(config(pair, backend)).expect("benchmark config is valid");
                let result = session.run(&pair.spec);
                let stats = match &result {
                    Ok(solved) => solved.stats.clone(),
                    Err(err) => err.stats().cloned().unwrap_or_default(),
                };
                let candidates = stats.candidates_generated;
                if backend != BackendChoice::Sequential {
                    other.push(stats);
                }
                let outcome = oracle::check_run(
                    &pair.spec,
                    &pair.costs.costs,
                    pair.max_cost,
                    result.as_ref(),
                )
                .ok();
                if outcome != record.outcome || candidates != record.stats.candidates_generated {
                    let index = record.pair;
                    self.fail(
                        index,
                        format!(
                            "work not fixed on {backend}: {candidates} candidates ({outcome:?}), \
                             timed run had {} ({:?})",
                            record.stats.candidates_generated, record.outcome
                        ),
                    );
                }
            }
        }
        other
    }
}

/// Runs one batch workload for `seconds` and reports its metrics.
///
/// The run makes rounds over the pool until the window is over, at least
/// [`MIN_ROUNDS`]. Each pair's time is its fastest round: a shared host's
/// speed wanders by a fifth within seconds and more over minutes, and a
/// pair's fastest of several runs spread over the window repeats from run
/// to run far better than any one run does.
pub fn run(batch: Batch, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let pairs = batch.pairs(seed);
    let expected = if seed == pool::DEFAULT_SEED {
        Some(Expectations::parse(oracle::DEFAULT_EXPECTATIONS)?)
    } else {
        None
    };
    let (configs, index) = Sessions::configs(&pairs);
    let mut runner = Runner {
        batch,
        pairs: &pairs,
        expected,
        sessions: Sessions {
            sessions: Vec::new(),
            index,
        },
        seen: HashMap::new(),
        reference: Reference::default(),
        attempted: 0,
        failures: Vec::new(),
    };

    let mut report = Report::default();
    let window = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let started = Instant::now();
    let mut rounds = Vec::new();
    while another_round(rounds.len(), started.elapsed(), window) {
        rounds.push(runner.round(&configs, None));
    }

    if traced {
        let mut trace = Trace::new(Instant::now());
        let root = trace.open("workload", None, 0);
        let traced_round = runner.round(&configs, Some((&mut trace, root)));
        let untraced = median(&rounds.iter().map(|r| r.wall).collect::<Vec<_>>());
        let mut specs: Vec<&Spec> = Vec::new();
        for pair in &pairs {
            if !specs.contains(&&pair.spec) {
                specs.push(&pair.spec);
            }
        }
        report.per_layer = replay::layer_metrics(&specs, seed, &mut trace, root);
        trace.close(root);
        let threaded = runner.check_fixed_work(&traced_round.records);
        // The sequential workloads schedule nothing: the scheduler counters
        // come from the fixed-work check's runs on the threaded backend.
        report
            .per_layer
            .extend(layer_metrics(&traced_round.records, &threaded));
        report.per_layer.push(Metric::new(
            "trace.overhead_pct",
            100.0 * ratio(traced_round.wall - untraced, untraced),
            "%",
        ));
        report.trace = Some(trace);
    } else {
        runner.check_fixed_work(&rounds[0].records);
    }

    // Each pair's fastest run and the fastest reference timed before one
    // of its runs; times are expressed at the nominal host speed.
    let mut best = vec![f64::INFINITY; pairs.len()];
    let mut fastest_reference = vec![f64::INFINITY; pairs.len()];
    for record in rounds.iter().flat_map(|r| &r.records) {
        best[record.pair] = best[record.pair].min(record.wall.as_secs_f64() * 1e3);
        fastest_reference[record.pair] = fastest_reference[record.pair].min(record.reference);
    }
    let factor = reference::host_factor(&fastest_reference);
    let raw_per_s = ratio(best.len() as f64, best.iter().sum::<f64>() / 1e3);
    let raw_p50 = percentile(&best, 50.0);
    let per_s = raw_per_s / factor;
    let (p50, p80) = (raw_p50 * factor, percentile(&best, 80.0) * factor);
    let iqm = interquartile_mean(&best) * factor;
    let setup_s = median(&rounds.iter().map(|r| r.setup).collect::<Vec<_>>()) * factor;
    let rss = median(&rounds.iter().map(|r| r.peak_mb).collect::<Vec<_>>());
    report.end_to_end = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("answers_per_s", per_s, "1/s"),
        Metric::new("latency_ms_iqm", iqm, "ms"),
        Metric::new("latency_ms_tail", p80, "ms"),
    ];
    report.named = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("specs_per_s", per_s, "1/s"),
        Metric::new("spec_ms_p50", p50, "ms"),
        Metric::new("spec_ms_iqm", iqm, "ms"),
        Metric::new("spec_ms_p80", p80, "ms"),
        Metric::new("rounds", rounds.len() as f64, "count"),
        Metric::new("host_factor", factor, "ratio"),
        Metric::new("raw_specs_per_s", raw_per_s, "1/s"),
        Metric::new("raw_spec_ms_p50", raw_p50, "ms"),
    ];
    report.tail_samples = Some((80.0, best.len()));
    report.attempted = runner.attempted;
    report.failures = runner.failures;
    Ok(report)
}

/// The per-layer metrics of a batch workload's traced run; the `sched.*`
/// counters come from `sched`.
fn layer_metrics(records: &[RunRecord], sched: &[SynthesisStats]) -> Vec<Metric> {
    let runs = records.len() as f64;
    let sum =
        |f: fn(&SynthesisStats) -> u64| -> f64 { records.iter().map(|r| f(&r.stats) as f64).sum() };
    let candidates = sum(|s| s.candidates_generated);
    let unique = sum(|s| s.unique_languages);
    let sched_runs = sched.len() as f64;
    let claimed: f64 = sched.iter().map(|s| s.chunks_claimed as f64).sum();
    let stolen: f64 = sched.iter().map(|s| s.chunks_stolen as f64).sum();
    let spec_seconds: f64 = records.iter().map(|r| r.wall.as_secs_f64()).sum();
    let top_levels: Vec<f64> = records
        .iter()
        .map(|r| r.top_level.as_secs_f64() * 1e3)
        .collect();
    vec![
        Metric::new("search.candidates", candidates / runs, "count"),
        Metric::new("search.unique", unique / runs, "count"),
        Metric::new("search.unique_ratio", ratio(unique, candidates), "ratio"),
        Metric::new(
            "search.candidates_per_s",
            ratio(candidates, spec_seconds),
            "1/s",
        ),
        Metric::new(
            "search.levels",
            records.iter().map(|r| r.levels as f64).sum::<f64>() / runs,
            "count",
        ),
        Metric::new("search.top_level_ms", median(&top_levels), "ms"),
        Metric::new(
            "search.prefilter_reject_rate",
            ratio(sum(|s| s.prefilter_rejects), sum(|s| s.admission_folds)),
            "ratio",
        ),
        Metric::new(
            "search.admission_folds",
            sum(|s| s.admission_folds) / runs,
            "count",
        ),
        Metric::new(
            "search.dedup_overflowed",
            sum(|s| s.dedup_overflowed),
            "count",
        ),
        Metric::new("search.cache_rows", sum(|s| s.cache_rows) / runs, "count"),
        Metric::new(
            "search.cache_mb",
            records
                .iter()
                .map(|r| r.stats.cache_bytes as f64 / 1e6)
                .fold(0.0, f64::max),
            "MB",
        ),
        Metric::new(
            "search.on_the_fly_runs",
            records.iter().filter(|r| r.stats.used_on_the_fly).count() as f64,
            "count",
        ),
        Metric::new("sched.chunks_claimed", ratio(claimed, sched_runs), "count"),
        Metric::new("sched.chunks_stolen", ratio(stolen, sched_runs), "count"),
        Metric::new("sched.steal_ratio", ratio(stolen, claimed), "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_make_three_rounds_then_stop_within_half_a_round() {
        let s = Duration::from_secs;
        assert!(another_round(0, s(0), s(1)));
        assert!(another_round(2, s(50), s(1)), "three rounds at the least");
        assert!(!another_round(3, s(30), s(1)));
        // Three 8 s rounds in a 30 s window: a fourth would end at 32 s,
        // within half a round (4 s) of the window.
        assert!(another_round(3, s(24), s(30)));
        // Three 10 s rounds: a fourth would end 10 s late.
        assert!(!another_round(3, s(30), s(30)));
        assert!(!another_round(3, s(27), s(30)));
    }
}
