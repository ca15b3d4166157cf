//! The benchmark's inputs, generated from the seed. The program only ever
//! sees the resulting specifications and requests.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rei_bench::costs::{NamedCostFn, PAPER_COST_FUNCTIONS};
use rei_bench::generator::{generate_type1, generate_type2, Type1Params, Type2Params};
use rei_core::{SynthConfig, SynthSession};
use rei_lang::{Alphabet, Spec, Word};
use rei_syntax::dfa::Dfa;
use rei_syntax::{CostFn, Regex};

use crate::oracle::{self, Outcome};

/// The seed whose expected outcomes are committed in `expected/`.
pub const DEFAULT_SEED: u64 = 1;

/// Specs per generation scheme in the paper pool (Type 1, Type 2 and
/// planted each), one pair per spec. A run passes over the whole pool
/// several times; one pass takes 3–5 s on one core of a shared 2-vCPU
/// guest.
pub const PAPER_SPECS_PER_SCHEME: usize = 120;

/// `max_cost` per paper cost function, in `PAPER_COST_FUNCTIONS` order.
/// Each is the lowest cost bound at which the median Type 1/Type 2 spec
/// at paper parameters enumerates at least 70 000 candidates, so every
/// cost function does a similar amount of work per pair (about 20–50 ms
/// on one core). Almost no Type 1 or Type 2 pair solves below it; the
/// planted pairs all do.
pub const PAPER_MAX_COST: [u64; 12] = [11, 56, 12, 13, 32, 13, 102, 84, 100, 100, 66, 180];

/// Shortest and longest example length of the wide-word specs.
pub const WIDE_LENGTHS: (usize, usize) = (24, 48);

/// Specs in the wide-word pool: three cycles of the lengths, one for each
/// example count. One pass takes 6–11 s on one core of a shared 2-vCPU
/// guest.
pub const WIDE_SPECS: usize = 75;

/// The low `max_cost` (uniform cost) of the wide-word runs.
pub const WIDE_MAX_COST: u64 = 7;

/// One unit of batch work: a spec run to a fixed `max_cost` under one cost
/// function.
#[derive(Debug, Clone)]
pub struct Pair {
    /// The generator's name of the spec (`T1-007`, `W-012`, ...).
    pub spec_name: String,
    /// The specification.
    pub spec: Spec,
    /// The cost function and its paper label.
    pub costs: NamedCostFn,
    /// The cost bound the run enumerates up to.
    pub max_cost: u64,
    /// For a planted spec, the regex its examples were classified by: it
    /// satisfies the spec within `max_cost`, so the run must solve at no
    /// more than its cost.
    pub planted: Option<Regex>,
}

impl Pair {
    /// A key naming this pair independently of pool order: the spec's
    /// fingerprint and the cost tuple.
    pub fn key(&self) -> String {
        let [a, q, s, c, u] = self.costs.costs.as_tuple();
        format!("{:016x}/{a},{q},{s},{c},{u}", self.spec.fingerprint())
    }
}

/// The paper pool: specs with the `Scale::Full` generator ranges of the
/// Figure 1 harness (Type 1: `le` 4–7, p, n 8–12; Type 2: `le` 4–10,
/// p, n 7–14), each under one of the twelve paper cost functions.
///
/// The pairs are stratified rather than drawn: pair `j` of each type takes
/// its cost function, `le`, p and n as the digits of `j` in a mixed radix
/// (cost function fastest, n slowest), so every prefix of the pool covers
/// the cost functions and ranges evenly and the seed chooses only the
/// words. One spec per pair keeps the mix of closure sizes in a run steady
/// from seed to seed.
///
/// Random examples at these sizes almost never have a regex within the
/// cost bound, so a third scheme plants one: a planted spec has the Type 1
/// ranges, and its words are classified by a random regex of cost at most
/// `max_cost` (see [`planted_spec`]). Type 1, Type 2 and planted pairs
/// take turns.
pub fn paper_pairs(seed: u64) -> Vec<Pair> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a9e_5eed);
    let alphabet = Alphabet::binary();
    let functions = PAPER_COST_FUNCTIONS.len();
    let mut pairs = Vec::new();
    for j in 0..PAPER_SPECS_PER_SCHEME {
        let cf = j % functions;
        let digits = |radices: [usize; 2]| {
            let le = (j / functions) % radices[0];
            let p = (j / functions / radices[0]) % radices[1];
            let n = (j / functions / radices[0] / radices[1]) % radices[1];
            (le, p, n)
        };
        let (le, p, n) = digits([4, 5]);
        let type1 = generate_type1(
            &Type1Params {
                alphabet: alphabet.clone(),
                max_len: 4 + le,
                positives: 8 + p,
                negatives: 8 + n,
            },
            rng.gen(),
        );
        let (le, p, n) = digits([7, 8]);
        let type2 = generate_type2(
            &Type2Params {
                alphabet: alphabet.clone(),
                max_len: 4 + le,
                positives: 7 + p,
                negatives: 7 + n,
            },
            rng.gen(),
        );
        let (le, p, n) = digits([4, 5]);
        let (planted, regex) = planted_spec(
            &mut StdRng::seed_from_u64(rng.gen()),
            &PAPER_COST_FUNCTIONS[cf].costs,
            PAPER_MAX_COST[cf],
            4 + le,
            (8 + p, 8 + n),
        );
        for (name, spec, regex) in [
            (format!("T1-{j:03}"), type1, None),
            (format!("T2-{j:03}"), type2, None),
            (format!("P1-{j:03}"), Some(planted), Some(regex)),
        ] {
            pairs.push(Pair {
                spec_name: name,
                spec: spec.expect("the paper ranges leave room for every example count"),
                costs: PAPER_COST_FUNCTIONS[cf],
                max_cost: PAPER_MAX_COST[cf],
                planted: regex,
            });
        }
    }
    pairs
}

/// A spec planted with a regex: a random binary regex of cost at most
/// `max_cost` under `costs`, and `examples.0` accepted and `examples.1`
/// rejected words drawn uniformly from the words of length at most
/// `max_len` (the Type 1 distribution), classified by a DFA of the regex.
/// Regexes whose language leaves too few words on either side are drawn
/// again. A cost function can make many accepted words unaffordable (a
/// costly star leaves only finite languages and `0*`-like ones): after
/// every [`PLANT_TRIES`] regexes that fail, one positive fewer is asked
/// for.
pub fn planted_spec(
    rng: &mut StdRng,
    costs: &CostFn,
    max_cost: u64,
    max_len: usize,
    examples: (usize, usize),
) -> (Spec, Regex) {
    let (mut positives, negatives) = examples;
    for attempt in 1.. {
        if attempt % PLANT_TRIES == 0 && positives > 1 {
            positives -= 1;
        }
        let nodes = rng.gen_range(3..=9usize);
        let regex = random_regex(rng, nodes);
        if regex.cost(costs) > max_cost {
            continue;
        }
        let dfa = Dfa::from_regex(&regex, &['0', '1']);
        let (mut pos, mut neg) = (BTreeSet::new(), BTreeSet::new());
        for _ in 0..64 * (positives + negatives) {
            // Uniform over the 2^(max_len+1) - 1 binary words up to max_len.
            let index = rng.gen_range(1u64..1 << (max_len + 1));
            let len = 63 - index.leading_zeros() as usize;
            let bits = (0..len).rev().map(|bit| (index >> bit) & 1 == 1);
            let word = Word::new(bits.map(|one| if one { '1' } else { '0' }));
            let side = if dfa.accepts(word.chars().iter().copied()) {
                (&mut pos, positives)
            } else {
                (&mut neg, negatives)
            };
            if side.0.len() < side.1 {
                side.0.insert(word);
            }
            if pos.len() == positives && neg.len() == negatives {
                let spec = Spec::new(pos, neg).expect("a DFA classifies each word once");
                return (spec, regex);
            }
        }
    }
    unreachable!("one positive is always plantable")
}

/// Failed regexes after which a planted spec asks for one positive fewer.
const PLANT_TRIES: usize = 100;

/// A random binary regex of `nodes` literals and operators.
fn random_regex(rng: &mut StdRng, nodes: usize) -> Regex {
    if nodes <= 1 {
        return Regex::literal(if rng.gen() { '1' } else { '0' });
    }
    let op = rng.gen_range(0..if nodes == 2 { 2u32 } else { 4 });
    match op {
        0 => random_regex(rng, nodes - 1).star(),
        1 => random_regex(rng, nodes - 1).question(),
        binary => {
            let left = rng.gen_range(1..nodes - 1);
            let (lhs, rhs) = (random_regex(rng, left), random_regex(rng, nodes - 1 - left));
            if binary == 2 {
                Regex::concat(lhs, rhs)
            } else {
                Regex::union(lhs, rhs)
            }
        }
    }
}

/// The wide-word pool: specs with 8–10 examples per side and every length
/// in [`WIDE_LENGTHS`], uniform cost, low `max_cost`. Lengths cycle
/// fastest; each cycle of lengths takes the next (p, n) of a fixed order
/// that alternates large and small example counts. Every run therefore
/// sees the same sequence of closure sizes, and the seed chooses only the
/// words. Every third spec is planted (see [`planted_spec`]), the others
/// are Type 1. Planted specs solve early and need less time and memory, so
/// an even split would put the median run between two modes.
pub fn wide_pairs(seed: u64) -> Vec<Pair> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00de_0001);
    let lengths = WIDE_LENGTHS.1 - WIDE_LENGTHS.0 + 1;
    (0..WIDE_SPECS)
        .map(|i| {
            let cycle = i / lengths;
            let params = Type1Params {
                alphabet: Alphabet::binary(),
                max_len: WIDE_LENGTHS.0 + i % lengths,
                positives: 8 + cycle % 3,
                negatives: 8 + (cycle + cycle / 3) % 3,
            };
            let costs = PAPER_COST_FUNCTIONS[0];
            let (spec_name, spec, planted) = if i % 3 != 2 {
                let spec = generate_type1(&params, rng.gen())
                    .expect("long binary words are plentiful for ten examples");
                (format!("W-{i:03}"), spec, None)
            } else {
                let (spec, regex) = planted_spec(
                    &mut StdRng::seed_from_u64(rng.gen()),
                    &costs.costs,
                    WIDE_MAX_COST,
                    params.max_len,
                    (params.positives, params.negatives),
                );
                (format!("WP-{i:03}"), spec, Some(regex))
            };
            Pair {
                spec_name,
                spec,
                costs,
                max_cost: WIDE_MAX_COST,
                planted,
            }
        })
        .collect()
}

/// The cost bound the service workload's server runs with (uniform cost):
/// it caps the rare spec that would otherwise search for seconds.
pub const SERVICE_MAX_COST: u64 = 12;

/// The cost function of the service workload's server.
pub const SERVICE_COSTS: CostFn = CostFn::UNIFORM;

/// Draws the small specs the service workload sends. `hot` specs fill the
/// store before timing (they solve in well under a millisecond); the
/// others are cold solves of about 1 to 100 ms.
pub struct ServiceSpecs {
    rng: StdRng,
    hot: bool,
}

impl ServiceSpecs {
    /// Specs for the store's pre-filled answers.
    pub fn hot(seed: u64) -> Self {
        ServiceSpecs {
            rng: StdRng::seed_from_u64(seed ^ 0x0407_0001),
            hot: true,
        }
    }

    /// Cold specs from stream `stream` of `seed` (one stream per client).
    pub fn cold(seed: u64, stream: u64) -> Self {
        ServiceSpecs {
            rng: StdRng::seed_from_u64(seed ^ (0x0c01_d000 + stream).rotate_left(17)),
            hot: false,
        }
    }

    /// The next spec of this stream.
    pub fn next_spec(&mut self) -> Spec {
        let seed = self.rng.gen();
        let spec = if self.hot {
            generate_type2(
                &Type2Params {
                    alphabet: Alphabet::binary(),
                    max_len: 4,
                    positives: 3,
                    negatives: 3,
                },
                seed,
            )
        } else {
            generate_type1(
                &Type1Params {
                    alphabet: Alphabet::binary(),
                    max_len: 5,
                    positives: 4,
                    negatives: 4,
                },
                seed,
            )
        };
        spec.expect("short binary words are plentiful for eight examples")
    }
}

/// Candidate counts of the service's cold specs (Type 1, `le` 5, 4 + 4
/// examples, uniform cost to `max_cost` 12) at the 0 %, 5 %, ..., 100 %
/// quantiles, measured over 1000 specs of one seed. The cold specs of a
/// run are chosen to follow these quantiles.
const COLD_CANDIDATE_QUANTILES: [f64; 21] = [
    151.0, 2450.0, 3185.0, 7798.0, 14269.0, 19220.0, 21010.0, 23281.0, 44627.0, 50595.0, 57929.0,
    88898.0, 102383.0, 110219.0, 114968.0, 121836.0, 126538.0, 132119.0, 139407.0, 147895.0,
    173970.0,
];

/// Specs drawn and solved per ladder rung, to choose the rung's spec from.
const LADDER_DRAWS: usize = 3;

/// A cold spec of the service workload and its outcome as the library
/// finds it in-process.
#[derive(Debug, Clone)]
pub struct ColdSpec {
    pub spec: Spec,
    pub outcome: Outcome,
    pub candidates: u64,
}

/// `count` cold specs of stream `stream` of `seed`, chosen by difficulty.
///
/// A cold solve takes from 0.1 to 30 ms, and the median falls where few
/// specs lie, so `count` specs drawn at random put a different amount of
/// work in every seed's run. Instead, rung `i` of a ladder asks for the
/// candidate count at quantile `(i + 1/2) / count` of
/// [`COLD_CANDIDATE_QUANTILES`], and takes the unused spec nearest to it
/// (in log candidates) among [`LADDER_DRAWS`]` * count` specs of the
/// stream, each solved in-process to learn its count. The seed chooses
/// the words and, by a seeded shuffle, the order. Every solve is checked
/// by the oracle.
pub fn cold_ladder(seed: u64, stream: u64, count: usize) -> Result<Vec<ColdSpec>, String> {
    let config = SynthConfig::new(SERVICE_COSTS).with_max_cost(SERVICE_MAX_COST);
    let mut session = SynthSession::new(config).map_err(|err| err.to_string())?;
    let mut specs = ServiceSpecs::cold(seed, stream);
    let mut drawn = Vec::with_capacity(LADDER_DRAWS * count);
    for _ in 0..LADDER_DRAWS * count {
        let spec = specs.next_spec();
        let result = session.run(&spec);
        let candidates = match &result {
            Ok(solved) => solved.stats.candidates_generated,
            Err(err) => err.stats().map_or(0, |s| s.candidates_generated),
        };
        let outcome = oracle::check_run(&spec, &SERVICE_COSTS, SERVICE_MAX_COST, result.as_ref())?;
        drawn.push(Some(ColdSpec {
            spec,
            outcome,
            candidates,
        }));
    }
    let mut ladder = Vec::with_capacity(count);
    for rung in 0..count {
        let target = ladder_target((rung as f64 + 0.5) / count as f64).ln();
        let distance = |c: &ColdSpec| ((c.candidates.max(1) as f64).ln() - target).abs();
        let nearest = drawn
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i, distance(c))))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            .expect("more specs are drawn than rungs");
        ladder.push(drawn[nearest].take().expect("unused"));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ (0x1add_e400 + stream));
    for i in (1..ladder.len()).rev() {
        ladder.swap(i, rng.gen_range(0..=i));
    }
    Ok(ladder)
}

/// The candidate count at quantile `q` of [`COLD_CANDIDATE_QUANTILES`],
/// interpolated between neighbouring quantiles in log space.
fn ladder_target(q: f64) -> f64 {
    let steps = (COLD_CANDIDATE_QUANTILES.len() - 1) as f64;
    let at = (q.clamp(0.0, 1.0) * steps).min(steps - 1e-9);
    let (i, frac) = (at.floor() as usize, at.fract());
    let (lo, hi) = (
        COLD_CANDIDATE_QUANTILES[i].ln(),
        COLD_CANDIDATE_QUANTILES[i + 1].ln(),
    );
    (lo + frac * (hi - lo)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_depend_only_on_the_seed() {
        let keys = |pairs: Vec<Pair>| pairs.iter().map(Pair::key).collect::<Vec<_>>();
        assert_eq!(keys(paper_pairs(5)), keys(paper_pairs(5)));
        assert_ne!(keys(paper_pairs(5)), keys(paper_pairs(6)));
        assert_eq!(keys(wide_pairs(5)), keys(wide_pairs(5)));
    }

    #[test]
    fn paper_pool_cycles_cost_functions_and_alternates_types() {
        let pairs = paper_pairs(3);
        assert_eq!(pairs.len(), 3 * PAPER_SPECS_PER_SCHEME);
        for block in pairs.chunks(36) {
            let mut labels: Vec<_> = block.iter().map(|p| p.costs.label).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), 12);
        }
        assert!(pairs[0].spec_name.starts_with("T1-"));
        assert!(pairs[1].spec_name.starts_with("T2-"));
        assert!(pairs[2].spec_name.starts_with("P1-"));
        assert_eq!(pairs[0].costs, pairs[2].costs);
        // The first 48 Type 1 specs take every length bound 4..=7.
        let lengths: BTreeSet<usize> = pairs[..144]
            .iter()
            .step_by(3)
            .map(|p| p.spec.max_example_len())
            .collect();
        assert_eq!(lengths.into_iter().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn planted_regexes_satisfy_their_specs_within_the_bound() {
        for pair in paper_pairs(4).iter().chain(&wide_pairs(4)).take(400) {
            let Some(regex) = &pair.planted else {
                continue;
            };
            assert_eq!(pair.spec.misclassified_by(regex), 0, "{regex}");
            assert!(regex.cost(&pair.costs.costs) <= pair.max_cost, "{regex}");
        }
    }

    #[test]
    fn ladder_targets_follow_the_quantiles() {
        assert!((ladder_target(0.0) - COLD_CANDIDATE_QUANTILES[0]).abs() < 1e-6);
        assert!((ladder_target(0.5) - COLD_CANDIDATE_QUANTILES[10]).abs() < 1e-6);
        assert!((ladder_target(1.0) - COLD_CANDIDATE_QUANTILES[20]).abs() < 1e-3);
        let (lo, hi) = (COLD_CANDIDATE_QUANTILES[1], COLD_CANDIDATE_QUANTILES[2]);
        assert!((ladder_target(0.075) - (lo * hi).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn cold_ladders_repeat_by_seed_and_spread_their_work() {
        let ladder = cold_ladder(9, 0, 20).unwrap();
        let again = cold_ladder(9, 0, 20).unwrap();
        let prints = |l: &[ColdSpec]| l.iter().map(|c| c.spec.fingerprint()).collect::<Vec<_>>();
        assert_eq!(prints(&ladder), prints(&again));
        let mut counts: Vec<u64> = ladder.iter().map(|c| c.candidates).collect();
        counts.sort_unstable();
        assert!(counts[2] < 20_000 && counts[17] > 80_000, "{counts:?}");
    }

    #[test]
    fn wide_pool_cycles_lengths() {
        let pairs = wide_pairs(2);
        for (i, pair) in pairs.iter().take(30).enumerate() {
            let le = WIDE_LENGTHS.0 + i % 25;
            assert!(pair.spec.max_example_len() <= le);
            assert!(pair.spec.max_example_len() + 2 >= le);
        }
    }
}
