//! Replays of single `rei-lang` layers on a workload's own specs, made by
//! the traced run outside every spec span: the staging builders and the
//! public `csops` kernels.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rei_lang::{csops, Cs, GuideMasks, InfixClosure, MaskEntry, SatisfyMasks, Spec};
use rei_syntax::Regex;

use crate::stats::median;
use crate::trace::Trace;
use crate::Metric;

/// Distinct specs whose staging the traced run replays.
const STAGE_SPECS: usize = 10;

/// Distinct specs whose kernels the traced run replays.
const KERNEL_SPECS: usize = 4;

/// Small seeded regexes whose characteristic sequences feed the kernels.
const KERNEL_OPERANDS: usize = 16;

/// Minimum time one kernel is replayed for, per spec.
const KERNEL_MIN_TIME: Duration = Duration::from_millis(3);

/// Staging of one spec.
struct Staged {
    closure_ms: f64,
    guide_ms: f64,
    satisfy_ms: f64,
    words: f64,
    blocks: f64,
    entries: f64,
    guide_mb: f64,
}

/// Per-call kernel times on one spec's closure, plus computed bytes.
#[derive(Default)]
struct KernelTimes {
    concat_ns: f64,
    star_ns: f64,
    satisfy_ns: f64,
    union_ns: f64,
    question_ns: f64,
    concat_bytes: f64,
    star_bytes: f64,
}

/// At most `limit` items spread evenly over `items`.
fn spread<T: Clone>(items: &[T], limit: usize) -> Vec<T> {
    let step = items.len().div_ceil(limit.max(1)).max(1);
    items.iter().step_by(step).take(limit).cloned().collect()
}

/// Times the benchmark's own calls to `InfixClosure::of_spec`,
/// `GuideMasks::build` and `SatisfyMasks::new`, one span each under
/// `root`.
fn stage(specs: &[&Spec], trace: &mut Trace, root: usize) -> Vec<Staged> {
    let ms = |trace: &Trace, span: usize| trace.spans()[span].duration().as_secs_f64() * 1e3;
    specs
        .iter()
        .map(|spec| {
            let span = trace.open("stage.closure", Some(root), 0);
            let ic = std::hint::black_box(InfixClosure::of_spec(spec));
            trace.close(span);
            let closure_ms = ms(trace, span);
            let span = trace.open("stage.guide", Some(root), 0);
            let masks = std::hint::black_box(GuideMasks::build(&ic));
            trace.close(span);
            let guide_ms = ms(trace, span);
            let span = trace.open("stage.satisfy_masks", Some(root), 0);
            std::hint::black_box(SatisfyMasks::new(spec, &ic));
            trace.close(span);
            Staged {
                closure_ms,
                guide_ms,
                satisfy_ms: ms(trace, span),
                words: ic.len() as f64,
                blocks: ic.width().blocks() as f64,
                entries: masks.total_entries() as f64,
                guide_mb: masks.memory_bytes() as f64 / 1e6,
            }
        })
        .collect()
}

/// A small random regex over `0`/`1` of at most `depth` constructor levels.
fn small_regex(rng: &mut StdRng, depth: u32) -> Regex {
    if depth == 0 || rng.gen_range(0..4u32) == 0 {
        return match rng.gen_range(0..5u32) {
            0 => Regex::epsilon(),
            1 | 2 => Regex::literal('0'),
            _ => Regex::literal('1'),
        };
    }
    match rng.gen_range(0..4u32) {
        0 => Regex::concat(small_regex(rng, depth - 1), small_regex(rng, depth - 1)),
        1 => Regex::union(small_regex(rng, depth - 1), small_regex(rng, depth - 1)),
        2 => small_regex(rng, depth - 1).star(),
        _ => small_regex(rng, depth - 1).question(),
    }
}

/// Calls `body` (one round of `calls_per_round` kernel calls) until at
/// least [`KERNEL_MIN_TIME`] has passed, inside one span; returns
/// nanoseconds per call.
fn time_kernel(
    trace: &mut Trace,
    root: usize,
    name: &'static str,
    calls_per_round: usize,
    mut body: impl FnMut(),
) -> f64 {
    let span = trace.open(name, Some(root), 0);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || started.elapsed() < KERNEL_MIN_TIME {
        body();
        rounds += 1;
    }
    let elapsed = started.elapsed();
    trace.close(span);
    elapsed.as_nanos() as f64 / (rounds * calls_per_round) as f64
}

/// Bytes one mask-based concatenation `a · b` reads and writes, computed
/// rather than measured: both operand rows and the result row, plus the
/// mask row of every set bit of `a`.
fn concat_bytes(a: &[u64], masks: &GuideMasks) -> f64 {
    let entries: usize = (0..masks.num_left())
        .filter(|&l| csops::get_bit(a, l))
        .map(|l| masks.row(l).len())
        .sum();
    (3 * 8 * a.len() + entries * std::mem::size_of::<MaskEntry>()) as f64
}

/// Replays the public `csops` kernels on each spec's closure, with the
/// characteristic sequences of seeded small regexes as operands.
fn kernels(specs: &[&Spec], seed: u64, trace: &mut Trace, root: usize) -> Vec<KernelTimes> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4b45_524e);
    specs
        .iter()
        .map(|spec| {
            let ic = InfixClosure::of_spec(spec);
            let masks = GuideMasks::build(&ic);
            let satisfy = SatisfyMasks::new(spec, &ic);
            let eps = ic
                .eps_index()
                .expect("an infix closure contains the empty word");
            let operands: Vec<Cs> = (0..KERNEL_OPERANDS)
                .map(|_| ic.cs_of_regex(&small_regex(&mut rng, 3)))
                .collect();
            let blocks = ic.width().blocks();
            let mut dst = vec![0u64; blocks];
            let mut scratch = vec![0u64; blocks];
            let (pos, neg) = (satisfy.positive().blocks(), satisfy.negative().blocks());
            let n = operands.len();

            let concat_ns = time_kernel(trace, root, "kernel.concat", n * n, || {
                for a in &operands {
                    for b in &operands {
                        csops::concat_into(&mut dst, a.blocks(), b.blocks(), &masks);
                        std::hint::black_box(&dst);
                    }
                }
            });
            let star_ns = time_kernel(trace, root, "kernel.star", n, || {
                for a in &operands {
                    csops::star_into(&mut dst, a.blocks(), &masks, eps, &mut scratch);
                    std::hint::black_box(&dst);
                }
            });
            let satisfy_ns = time_kernel(trace, root, "kernel.satisfy", n, || {
                for a in &operands {
                    std::hint::black_box(csops::satisfies(a.blocks(), pos, neg));
                }
            });
            let union_ns = time_kernel(trace, root, "kernel.union", n * n, || {
                for a in &operands {
                    for b in &operands {
                        csops::or_into(&mut dst, a.blocks(), b.blocks());
                        std::hint::black_box(&dst);
                    }
                }
            });
            let question_ns = time_kernel(trace, root, "kernel.question", n, || {
                for a in &operands {
                    csops::question_into(&mut dst, a.blocks(), eps);
                    std::hint::black_box(&dst);
                }
            });

            // A star squares `a + ε` until the fixed point; each round is
            // one concatenation plus a compare and a copy of the row.
            let mut star_bytes = 0.0;
            for a in &operands {
                let mut t = a.blocks().to_vec();
                csops::set_bit(&mut t, eps);
                loop {
                    star_bytes += concat_bytes(&t, &masks) + (2 * 8 * blocks) as f64;
                    csops::concat_into(&mut scratch, &t, &t, &masks);
                    if scratch == t {
                        break;
                    }
                    t.copy_from_slice(&scratch);
                }
            }
            KernelTimes {
                concat_ns,
                star_ns,
                satisfy_ns,
                union_ns,
                question_ns,
                concat_bytes: operands
                    .iter()
                    .map(|a| concat_bytes(a.blocks(), &masks))
                    .sum::<f64>()
                    / n as f64,
                star_bytes: star_bytes / n as f64,
            }
        })
        .collect()
}

/// Replays staging on up to [`STAGE_SPECS`] and the kernels on up to
/// [`KERNEL_SPECS`] of `specs` (spread over the list) and returns the
/// `lang.*` and `kernel.*` metrics: medians over the replayed specs.
pub fn layer_metrics(specs: &[&Spec], seed: u64, trace: &mut Trace, root: usize) -> Vec<Metric> {
    let staged = stage(&spread(specs, STAGE_SPECS), trace, root);
    let kernels = kernels(&spread(specs, KERNEL_SPECS), seed, trace, root);
    let stage = |f: fn(&Staged) -> f64| median(&staged.iter().map(f).collect::<Vec<_>>());
    let kernel = |f: fn(&KernelTimes) -> f64| median(&kernels.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::new("lang.closure_ms", stage(|s| s.closure_ms), "ms"),
        Metric::new("lang.guide_ms", stage(|s| s.guide_ms), "ms"),
        Metric::new("lang.satisfy_masks_ms", stage(|s| s.satisfy_ms), "ms"),
        Metric::new("lang.closure_words", stage(|s| s.words), "count"),
        Metric::new("lang.row_blocks", stage(|s| s.blocks), "count"),
        Metric::new("lang.guide_entries", stage(|s| s.entries), "count"),
        Metric::new("lang.guide_mb", stage(|s| s.guide_mb), "MB"),
        Metric::new("kernel.concat_ns", kernel(|k| k.concat_ns), "ns"),
        Metric::new("kernel.star_ns", kernel(|k| k.star_ns), "ns"),
        Metric::new("kernel.satisfy_ns", kernel(|k| k.satisfy_ns), "ns"),
        Metric::new("kernel.union_ns", kernel(|k| k.union_ns), "ns"),
        Metric::new("kernel.question_ns", kernel(|k| k.question_ns), "ns"),
        Metric::new(
            "kernel.concat_bytes",
            kernel(|k| k.concat_bytes),
            "B-computed",
        ),
        Metric::new("kernel.star_bytes", kernel(|k| k.star_bytes), "B-computed"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_takes_evenly_spaced_items() {
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(spread(&items, 4), vec![0, 3, 6, 9]);
        assert_eq!(spread(&items, 20), items);
        assert!(spread::<u32>(&[], 3).is_empty());
    }

    #[test]
    fn computed_concat_bytes_count_mask_rows_of_set_bits() {
        let spec = Spec::from_strs(["01", "10"], ["1"]).unwrap();
        let ic = InfixClosure::of_spec(&spec);
        let masks = GuideMasks::build(&ic);
        let empty = vec![0u64; ic.width().blocks()];
        assert_eq!(concat_bytes(&empty, &masks), (3 * 8 * empty.len()) as f64);
        let all = ic.cs_of_regex(&rei_syntax::parse("(0+1)*").unwrap());
        assert!(concat_bytes(all.blocks(), &masks) > concat_bytes(&empty, &masks));
    }
}
