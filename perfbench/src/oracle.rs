//! The answer oracle: every answer is checked outside the search's own
//! bitmask path before it counts as a success.

use std::collections::HashMap;
use std::fmt;

use rei_core::{SynthesisError, SynthesisResult};
use rei_lang::Spec;
use rei_syntax::{CostFn, Regex};

/// What a fixed-`max_cost` run may end in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// A minimal regex of this cost was found.
    Solved(u64),
    /// No regex up to `max_cost` satisfies the spec.
    NotFound,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Solved(cost) => write!(f, "cost={cost}"),
            Outcome::NotFound => f.write_str("not-found"),
        }
    }
}

/// Checks one solved answer given as text: it must re-parse, the
/// `rei-syntax` matcher must accept every positive and reject every
/// negative, and its cost must be the reported one and within the bound.
pub fn check_regex(
    spec: &Spec,
    costs: &CostFn,
    max_cost: u64,
    regex: &str,
    reported_cost: u64,
) -> Result<Outcome, String> {
    let parsed: Regex =
        rei_syntax::parse(regex).map_err(|err| format!("regex '{regex}' does not parse: {err}"))?;
    let wrong = spec.misclassified_by(&parsed);
    if wrong != 0 {
        return Err(format!("regex '{regex}' misclassifies {wrong} examples"));
    }
    let cost = parsed.cost(costs);
    if cost != reported_cost {
        return Err(format!(
            "regex '{regex}' costs {cost}, reported {reported_cost}"
        ));
    }
    if cost > max_cost {
        return Err(format!(
            "regex '{regex}' costs {cost} > max_cost {max_cost}"
        ));
    }
    Ok(Outcome::Solved(cost))
}

/// Checks the outcome of one library run to a fixed `max_cost`.
pub fn check_run(
    spec: &Spec,
    costs: &CostFn,
    max_cost: u64,
    outcome: Result<&SynthesisResult, &SynthesisError>,
) -> Result<Outcome, String> {
    match outcome {
        Ok(result) => check_regex(
            spec,
            costs,
            max_cost,
            &result.regex.to_string(),
            result.cost,
        ),
        Err(SynthesisError::NotFound { .. }) => Ok(Outcome::NotFound),
        Err(err) => Err(format!("run failed: {err}")),
    }
}

/// Checks the outcome of a run on a spec planted with `planted`, a regex
/// within the run's cost bound that satisfies the spec: the run must have
/// solved, at a cost no higher than the planted regex's.
pub fn check_planted(outcome: Outcome, planted: &Regex, costs: &CostFn) -> Result<(), String> {
    let bound = planted.cost(costs);
    match outcome {
        Outcome::Solved(cost) if cost <= bound => Ok(()),
        Outcome::Solved(cost) => Err(format!(
            "minimal cost {cost} above the planted regex '{planted}' of cost {bound}"
        )),
        Outcome::NotFound => Err(format!(
            "not found, but the planted regex '{planted}' of cost {bound} satisfies the spec"
        )),
    }
}

/// Expected outcomes of the default seed's pairs, keyed by pool and
/// [`Pair::key`](crate::pool::Pair::key).
pub struct Expectations {
    outcomes: HashMap<(String, String), Outcome>,
}

/// The committed expectations of [`DEFAULT_SEED`](crate::pool::DEFAULT_SEED).
pub const DEFAULT_EXPECTATIONS: &str = include_str!("../expected/seed-1.tsv");

impl Expectations {
    /// Parses `pool<TAB>key<TAB>outcome` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut outcomes = HashMap::new();
        for (number, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [pool, key, outcome] = fields[..] else {
                return Err(format!("expectations line {}: need 3 fields", number + 1));
            };
            let outcome = match outcome.strip_prefix("cost=") {
                Some(cost) => Outcome::Solved(
                    cost.parse()
                        .map_err(|_| format!("expectations line {}: bad cost", number + 1))?,
                ),
                None if outcome == "not-found" => Outcome::NotFound,
                None => return Err(format!("expectations line {}: bad outcome", number + 1)),
            };
            outcomes.insert((pool.to_string(), key.to_string()), outcome);
        }
        Ok(Expectations { outcomes })
    }

    /// The expected outcome of pair `key` in `pool`, if recorded.
    pub fn get(&self, pool: &str, key: &str) -> Option<Outcome> {
        self.outcomes
            .get(&(pool.to_string(), key.to_string()))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::from_strs(
            ["10", "101", "100", "1010", "1011", "1000", "1001"],
            ["", "0", "1", "00", "11", "010"],
        )
        .unwrap()
    }

    #[test]
    fn accepts_a_correct_answer_and_rejects_wrong_ones() {
        let costs = CostFn::UNIFORM;
        assert_eq!(
            check_regex(&spec(), &costs, 20, "10(0+1)*", 8),
            Ok(Outcome::Solved(8))
        );
        // Wrong cost, misclassification, unparsable text, over the bound.
        assert!(check_regex(&spec(), &costs, 20, "10(0+1)*", 7).is_err());
        assert!(check_regex(&spec(), &costs, 20, "(0+1)*", 6).is_err());
        assert!(check_regex(&spec(), &costs, 20, "10(0+", 8).is_err());
        assert!(check_regex(&spec(), &costs, 7, "10(0+1)*", 8).is_err());
    }

    #[test]
    fn planted_runs_must_solve_within_the_planted_cost() {
        let costs = CostFn::UNIFORM;
        let planted = rei_syntax::parse("10(0+1)*").unwrap();
        assert!(check_planted(Outcome::Solved(8), &planted, &costs).is_ok());
        assert!(check_planted(Outcome::Solved(5), &planted, &costs).is_ok());
        assert!(check_planted(Outcome::Solved(9), &planted, &costs).is_err());
        assert!(check_planted(Outcome::NotFound, &planted, &costs).is_err());
    }

    #[test]
    fn committed_expectations_parse() {
        let expected = Expectations::parse(DEFAULT_EXPECTATIONS).unwrap();
        let first = crate::pool::paper_pairs(crate::pool::DEFAULT_SEED)[0].key();
        assert!(expected.get("paper", &first).is_some());
        let parsed = Expectations::parse("paper\tk1\tcost=9\nwide\tk2\tnot-found\n").unwrap();
        assert_eq!(parsed.get("paper", "k1"), Some(Outcome::Solved(9)));
        assert_eq!(parsed.get("wide", "k2"), Some(Outcome::NotFound));
        assert_eq!(parsed.get("wide", "k1"), None);
        assert!(Expectations::parse("paper\tk\tmaybe\n").is_err());
    }
}
