//! The infix closure `ic(P ∪ N)` and its shortlex indexing.
//!
//! The closure is stored as the trie of all its words. Every suffix of
//! every example is inserted into a trie; since a trie holds every prefix
//! of what it stores, its nodes are exactly the infixes. The nodes are
//! then numbered breadth-first, visiting the children of each node in
//! `char` order. That numbering is shortlex order (breadth-first visits
//! shorter words first, and within one length it compares parents first,
//! then last chars), so a node's number *is* the word's closure index, and
//! the children of every node occupy one contiguous index range.
//!
//! Per node the closure keeps the index of the word without its last char
//! (`parent`) and without its first char (`link`, the trie's suffix link).
//! Both are total on an infix-closed set, and together they give every
//! split of a word by two index walks ([`InfixClosure::splits_into`]).
//! The splits that share a left half are the trie below it, walked
//! level by level ([`InfixClosure::left_splits_into`]).

use std::fmt;

use rei_syntax::Regex;

use crate::{Cs, CsWidth, Spec, Word};

/// The infix closure of a finite set of words, totally ordered by shortlex.
///
/// `ic(S)` is the smallest superset of `S` that contains every infix
/// (substring) of every member (Definition 2.2). It is the index set of
/// every characteristic sequence: the `i`-th bit of a CS records whether
/// the `i`-th word of the closure belongs to the represented language.
///
/// The closure is immutable once built — `P` and `N` do not change during a
/// synthesis run — which is what allows the guide table to be staged and
/// every CS to have the same width.
///
/// # Example
///
/// ```
/// use rei_lang::{InfixClosure, Spec, Word};
///
/// // Example 3.6 of the paper.
/// let spec = Spec::from_strs(["1", "011", "1011", "11011"], ["", "10", "101", "0011"]).unwrap();
/// let ic = InfixClosure::of_spec(&spec);
/// assert_eq!(ic.len(), 15);
/// assert_eq!(ic.index_of(&Word::epsilon()), Some(0));
/// assert_eq!(ic.word(ic.len() - 1).to_string(), "11011");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfixClosure {
    /// The words, in shortlex order (node `i` spells `words[i]`).
    words: Vec<Word>,
    /// `parent[i]`: the index of `word(i)` without its last char (the
    /// root `ε` is its own parent).
    parent: Vec<u32>,
    /// `link[i]`: the index of `word(i)` without its first char (the root
    /// links to itself).
    link: Vec<u32>,
    /// `last[i]`: the last char of `word(i)` (`'\0'` for the root).
    last: Vec<char>,
    /// The children of node `i` are `child_start[i]..child_start[i + 1]`,
    /// in ascending order of their `last` char.
    child_start: Vec<u32>,
}

/// Sentinel for "no node" in the build-time trie.
const NONE: u32 = u32::MAX;

impl InfixClosure {
    /// Builds the infix closure of all examples of `spec`.
    pub fn of_spec(spec: &Spec) -> Self {
        InfixClosure::of_words(spec.iter().cloned())
    }

    /// Builds the infix closure of an arbitrary finite set of words.
    ///
    /// # Panics
    ///
    /// Panics if the closure has `u32::MAX` or more members (far beyond
    /// any feasible memory budget).
    pub fn of_words<I: IntoIterator<Item = Word>>(words: I) -> Self {
        // Build-time trie in insertion order: each node's children form a
        // singly linked sibling list kept sorted by char.
        let mut first_child: Vec<u32> = vec![NONE];
        let mut next_sibling: Vec<u32> = vec![NONE];
        let mut label: Vec<char> = vec!['\0'];
        let mut any_word = false;
        for word in words {
            any_word = true;
            let chars = word.chars();
            for start in 0..chars.len() {
                let mut node = 0usize;
                for &c in &chars[start..] {
                    let mut prev = NONE;
                    let mut cur = first_child[node];
                    while cur != NONE && label[cur as usize] < c {
                        prev = cur;
                        cur = next_sibling[cur as usize];
                    }
                    if cur == NONE || label[cur as usize] != c {
                        let fresh = u32::try_from(label.len())
                            .ok()
                            .filter(|&id| id != NONE)
                            .expect("infix closure too large");
                        first_child.push(NONE);
                        next_sibling.push(cur);
                        label.push(c);
                        if prev == NONE {
                            first_child[node] = fresh;
                        } else {
                            next_sibling[prev as usize] = fresh;
                        }
                        cur = fresh;
                    }
                    node = cur as usize;
                }
            }
        }
        if !any_word {
            return InfixClosure {
                words: Vec::new(),
                parent: Vec::new(),
                link: Vec::new(),
                last: Vec::new(),
                child_start: vec![0],
            };
        }

        // Number the nodes breadth-first, children in char order: the
        // queue position of a node is its shortlex index.
        let n = label.len();
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        let mut parent: Vec<u32> = Vec::with_capacity(n);
        let mut last: Vec<char> = Vec::with_capacity(n);
        let mut child_start: Vec<u32> = Vec::with_capacity(n + 1);
        queue.push(0);
        parent.push(0);
        last.push('\0');
        let mut head = 0;
        while head < queue.len() {
            child_start.push(queue.len() as u32);
            let mut child = first_child[queue[head] as usize];
            while child != NONE {
                queue.push(child);
                parent.push(head as u32);
                last.push(label[child as usize]);
                child = next_sibling[child as usize];
            }
            head += 1;
        }
        child_start.push(n as u32);

        let mut closure = InfixClosure {
            words: Vec::with_capacity(n),
            parent,
            link: Vec::with_capacity(n),
            last,
            child_start,
        };
        closure.words.push(Word::epsilon());
        closure.link.push(0);
        for i in 1..n {
            let p = closure.parent[i] as usize;
            let c = closure.last[i];
            // link(v) = child(link(parent(v)), last(v)); both operands have
            // smaller indices, so they are already known.
            let link = if p == 0 {
                0
            } else {
                closure
                    .child(closure.link[p] as usize, c)
                    .expect("suffix of a closure word must be in the closure")
            };
            closure.link.push(link as u32);
            let word = Word::new(closure.words[p].chars().iter().copied().chain([c]));
            closure.words.push(word);
        }
        closure
    }

    /// The index of `word(v) · c`, if it is in the closure.
    fn child(&self, v: usize, c: char) -> Option<usize> {
        let lo = self.child_start[v] as usize;
        let hi = self.child_start[v + 1] as usize;
        self.last[lo..hi].binary_search(&c).ok().map(|k| lo + k)
    }

    /// Writes the splits of word `w` into `out`, which must hold exactly
    /// `word(w).len() + 1` pairs: `out[c]` is the pair of indices of the
    /// first `c` chars of `word(w)` and of the rest.
    ///
    /// The prefixes are the `parent` chain of `w` and the suffixes its
    /// `link` chain, so this is two index walks of `len + 1` steps each,
    /// with no allocation and no look-up.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != word(w).len() + 1`.
    pub(crate) fn splits_into(&self, w: usize, out: &mut [(u32, u32)]) {
        assert_eq!(out.len(), self.words[w].len() + 1, "split buffer size");
        let mut suffix = w as u32;
        for pair in out.iter_mut() {
            pair.1 = suffix;
            suffix = self.link[suffix as usize];
        }
        let mut prefix = w as u32;
        for pair in out.iter_mut().rev() {
            pair.0 = prefix;
            prefix = self.parent[prefix as usize];
        }
    }

    /// Fills `out` with the pair `(r, w)` of every split
    /// `word(w) = word(l) · word(r)` whose left half is `word(l)`, in
    /// ascending `w`.
    ///
    /// The words that start with `word(l)` are the trie below `l`; walking
    /// it level by level, children in index order, lists them in shortlex
    /// order. The right half of a child `y` of `x` is the child of `x`'s
    /// right half by `y`'s last char, one binary search away.
    pub(crate) fn left_splits_into(&self, l: usize, out: &mut Vec<(u32, u32)>) {
        out.clear();
        out.push((0, l as u32));
        let mut level = 0..1;
        while !level.is_empty() {
            let next = out.len();
            for k in level {
                let (r, x) = out[k];
                for y in self.child_start[x as usize]..self.child_start[x as usize + 1] {
                    let ry = self
                        .child(r as usize, self.last[y as usize])
                        .expect("suffix of a closure word must be in the closure");
                    out.push((ry as u32, y));
                }
            }
            level = next..out.len();
        }
    }

    /// Number of words in the closure (`#ic(P ∪ N)`, the `k` of the
    /// paper's space analysis).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if the closure is empty (only possible for an empty
    /// input set).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The bitvector geometry induced by this closure.
    pub fn width(&self) -> CsWidth {
        CsWidth::for_len(self.words.len())
    }

    /// The `i`-th word in shortlex order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn word(&self, i: usize) -> &Word {
        &self.words[i]
    }

    /// All words of the closure in shortlex order.
    pub fn words(&self) -> &[Word] {
        &self.words
    }

    /// Index of `word` in the closure, if present: a walk down the trie
    /// with one binary search among the children per char.
    pub fn index_of(&self, word: &Word) -> Option<usize> {
        if self.words.is_empty() {
            return None;
        }
        word.chars()
            .iter()
            .try_fold(0, |node, &c| self.child(node, c))
    }

    /// Index of the empty word, if the closure is non-empty. With shortlex
    /// ordering this is always index 0.
    pub fn eps_index(&self) -> Option<usize> {
        if self.words.is_empty() {
            None
        } else {
            debug_assert!(self.words[0].is_empty());
            Some(0)
        }
    }

    /// Iterates over `(index, word)` pairs in shortlex order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Word)> {
        self.words.iter().enumerate()
    }

    /// The characteristic sequence of a finite set of words: bit `i` is set
    /// iff the `i`-th word of the closure is in the set. Words outside the
    /// closure are ignored.
    pub fn cs_of_words<'a, I: IntoIterator<Item = &'a Word>>(&self, words: I) -> Cs {
        let mut cs = Cs::zero(self.width());
        for word in words {
            if let Some(i) = self.index_of(word) {
                cs.set(i);
            }
        }
        cs
    }

    /// The characteristic sequence of the single-character language `{a}`.
    pub fn cs_of_literal(&self, a: char) -> Cs {
        self.cs_of_words([Word::new([a])].iter())
    }

    /// The characteristic sequence of `{ε}`.
    pub fn cs_of_epsilon(&self) -> Cs {
        self.cs_of_words([Word::epsilon()].iter())
    }

    /// The characteristic sequence of `Lang(regex) ∩ ic(P ∪ N)`, computed
    /// with the derivative matcher. This is the reference implementation
    /// ("the math") that the synthesiser's bit-parallel operations are
    /// tested against.
    pub fn cs_of_regex(&self, regex: &Regex) -> Cs {
        let mut cs = Cs::zero(self.width());
        for (i, word) in self.iter() {
            if regex.accepts(word.chars().iter().copied()) {
                cs.set(i);
            }
        }
        cs
    }
}

impl fmt::Display for InfixClosure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, w) in self.words.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use proptest::prelude::*;
    use rei_syntax::parse;

    fn example_3_6() -> InfixClosure {
        let spec =
            Spec::from_strs(["1", "011", "1011", "11011"], ["", "10", "101", "0011"]).unwrap();
        InfixClosure::of_spec(&spec)
    }

    #[test]
    fn example_3_6_has_15_words() {
        let ic = example_3_6();
        assert_eq!(ic.len(), 15);
        let rendered: Vec<String> = ic.words().iter().map(|w| w.to_string()).collect();
        // Same set as the paper (the paper lists them in a different
        // order; we use shortlex ascending).
        let mut expected = vec![
            "11011", "1101", "110", "11", "1011", "101", "10", "1", "011", "01", "0011", "001",
            "00", "0", "ε",
        ];
        expected.sort_by_key(|s| {
            let w = if *s == "ε" {
                Word::epsilon()
            } else {
                Word::from(*s)
            };
            (w.len(), w.chars().to_vec())
        });
        assert_eq!(rendered, expected);
    }

    #[test]
    fn closure_is_infix_closed() {
        let ic = example_3_6();
        for (_, word) in ic.iter() {
            for infix in word.infixes() {
                assert!(
                    ic.index_of(&infix).is_some(),
                    "infix {infix} of {word} missing from closure"
                );
            }
        }
    }

    #[test]
    fn epsilon_is_first() {
        let ic = example_3_6();
        assert_eq!(ic.eps_index(), Some(0));
        assert!(ic.word(0).is_empty());
    }

    #[test]
    fn cs_of_regex_matches_example_3_6() {
        // (0?1)*1 intersected with ic is {11011, 1011, 011, 11, 1}.
        let ic = example_3_6();
        let cs = ic.cs_of_regex(&parse("(0?1)*1").unwrap());
        let members: Vec<String> = ic
            .iter()
            .filter(|(i, _)| cs.get(*i))
            .map(|(_, w)| w.to_string())
            .collect();
        let mut expected = vec!["1", "11", "011", "1011", "11011"];
        expected.sort_by_key(|s| (s.len(), s.to_string()));
        assert_eq!(members, expected);
    }

    #[test]
    fn heterogeneity_example_from_section_4_3() {
        // ic({aaa, aa}) = {aaa, aa, a, ε} has 4 elements while
        // ic({abc, de}) has 10.
        let homogeneous = InfixClosure::of_words([Word::from("aaa"), Word::from("aa")]);
        let heterogeneous = InfixClosure::of_words([Word::from("abc"), Word::from("de")]);
        assert_eq!(homogeneous.len(), 4);
        assert_eq!(heterogeneous.len(), 10);
    }

    #[test]
    fn empty_input_gives_empty_closure() {
        let ic = InfixClosure::of_words(Vec::new());
        assert!(ic.is_empty());
        assert_eq!(ic.eps_index(), None);
    }

    #[test]
    fn cs_of_literal_and_epsilon() {
        let ic = example_3_6();
        let eps = ic.cs_of_epsilon();
        assert!(eps.get(0));
        assert_eq!(eps.count_ones(), 1);
        let zero = ic.cs_of_literal('0');
        assert_eq!(zero.count_ones(), 1);
        assert_eq!(ic.word(zero.iter_ones().next().unwrap()).to_string(), "0");
        // A literal outside every example has an all-zero CS.
        assert_eq!(ic.cs_of_literal('x').count_ones(), 0);
    }

    /// The closure as Definition 2.2 states it: every infix of every
    /// generator, deduplicated and sorted by shortlex. The trie build is
    /// checked against it.
    fn reference_closure(generators: &[Word]) -> BTreeSet<Word> {
        generators.iter().flat_map(Word::infixes).collect()
    }

    proptest! {
        /// The trie closure equals the reference word for word, in order;
        /// `index_of` finds every member at its index and rejects every
        /// non-member; `parent` and `link` drop the last and the first
        /// char. Three letters, one of them multi-byte, give nodes with
        /// more than two children.
        #[test]
        fn closure_is_sound_and_complete(words in proptest::collection::vec("[ab€]{0,16}", 0..6)) {
            let generators: Vec<Word> = words.iter().map(|s| Word::from(s.as_str())).collect();
            let ic = InfixClosure::of_words(generators.clone());
            let reference = reference_closure(&generators);
            prop_assert!(ic.words().iter().eq(reference.iter()));
            for (i, w) in ic.iter() {
                // Sound: every member is an infix of some generator.
                prop_assert!(generators.iter().any(|g| g.contains_infix(w)));
                prop_assert_eq!(ic.index_of(w), Some(i));
                if i > 0 {
                    let chars = w.chars();
                    prop_assert_eq!(ic.word(ic.parent[i] as usize).chars(), &chars[..chars.len() - 1]);
                    prop_assert_eq!(ic.word(ic.link[i] as usize).chars(), &chars[1..]);
                }
                // One char more is a member exactly when the reference
                // has it; 'x' is outside the alphabet.
                for c in ['a', 'b', '€', 'x'] {
                    let longer = Word::new(w.chars().iter().copied().chain([c]));
                    prop_assert_eq!(ic.index_of(&longer).is_some(), reference.contains(&longer));
                }
            }
            let longest = generators.iter().map(Word::len).max().unwrap_or(0);
            let too_long = Word::new(std::iter::repeat_n('a', longest + 1));
            prop_assert_eq!(ic.index_of(&too_long), None);
            prop_assert_eq!(ic.index_of(&Word::epsilon()).is_some(), !generators.is_empty());
        }
    }
}
