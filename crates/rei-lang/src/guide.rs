//! Staged pre-computation of every split of every word: the pair-based
//! [`GuideTable`] and its transposed, bit-parallel companion
//! [`GuideMasks`].
//!
//! The [`GuideTable`] is the paper's staging structure: for each word `w`
//! of the infix closure, the list of index pairs `(l, r)` with
//! `word(l) · word(r) = w`. A concatenation kernel driven by it performs
//! one gather (two bit tests) per split per target word.
//!
//! The [`GuideMasks`] structure stores the *same* relation transposed and
//! compressed into block masks: for each **left** index `l`, a row of
//! entries, each covering every split `(l, r) → w` whose `r` bits live in
//! one 64-bit block of the operand, whose `w` bits live in one block of
//! the result, and whose bit offset `w − r` is constant. Because the
//! shortlex order makes the map `r ↦ w` (for fixed `l`) strictly
//! monotone, long runs of consecutive splits collapse into a single entry,
//! and a concatenation becomes: for every set bit `l` of the left operand,
//! a handful of *whole-block* mask-shift-or operations on the right
//! operand — no per-split bit tests at all. See
//! [`crate::csops::concat_into`].
//!
//! # Memory trade-off
//!
//! The pair table costs 8 bytes per split, always. A mask entry costs 32
//! bytes but covers between 1 and 64 splits: on dense closures (all words
//! of a short alphabet up to some length — the common shape of example
//! sets) entire length classes collapse into one entry and the mask table
//! is *smaller* than the pair table; on adversarially sparse closures
//! every entry covers a single split and the mask table costs up to 4× the
//! pair table. Both structures are staged once per synthesis run, and
//! [`GuideMasks::memory_bytes`] / [`GuideTable::memory_bytes`] expose the
//! actual footprint for memory accounting.

use crate::InfixClosure;

/// For each word `w` of the infix closure, the guide table stores every way
/// of writing `w = σ1 · σ2` with both `σ1` and `σ2` in the closure, as a
/// pair of bit positions `(index(σ1), index(σ2))`.
///
/// Because the closure is infix-closed, every prefix and suffix of `w` is a
/// member, so a word of length `ℓ` has exactly `ℓ + 1` splits. The table is
/// computed once per synthesis run (the paper's *staging*), after which the
/// convolution at the heart of concatenation and Kleene star becomes a pure
/// gather over bit positions with no string comparisons.
///
/// # Example
///
/// ```
/// use rei_lang::{GuideTable, InfixClosure, Word};
///
/// let ic = InfixClosure::of_words([Word::from("110")]);
/// let gt = GuideTable::build(&ic);
/// let w = ic.index_of(&Word::from("110")).unwrap();
/// // "110" splits as ε·110, 1·10, 11·0, 110·ε.
/// assert_eq!(gt.splits(w).len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuideTable {
    /// `offsets[w]..offsets[w + 1]` indexes the splits of word `w` in
    /// `pairs`.
    offsets: Vec<u32>,
    /// Flattened `(left, right)` index pairs.
    pairs: Vec<(u32, u32)>,
}

impl GuideTable {
    /// Builds the guide table for an infix closure.
    ///
    /// # Panics
    ///
    /// Panics if the closure has more than `u32::MAX` members (far beyond
    /// any feasible memory budget).
    pub fn build(ic: &InfixClosure) -> Self {
        assert!(ic.len() <= u32::MAX as usize, "infix closure too large");
        let mut offsets = Vec::with_capacity(ic.len() + 1);
        let mut pairs = Vec::new();
        offsets.push(0u32);
        for (_, word) in ic.iter() {
            let n = word.len();
            for cut in 0..=n {
                let left = word.infix(0, cut);
                let right = word.infix(cut, n);
                let li = ic
                    .index_of(&left)
                    .expect("prefix of a closure word must be in the closure");
                let ri = ic
                    .index_of(&right)
                    .expect("suffix of a closure word must be in the closure");
                pairs.push((li as u32, ri as u32));
            }
            offsets.push(pairs.len() as u32);
        }
        GuideTable { offsets, pairs }
    }

    /// Number of words covered by the table.
    pub fn num_words(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the table covers no words.
    pub fn is_empty(&self) -> bool {
        self.num_words() == 0
    }

    /// The splits of the `w`-th word, as pairs of closure indices.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.num_words()`.
    pub fn splits(&self, w: usize) -> &[(u32, u32)] {
        let start = self.offsets[w] as usize;
        let end = self.offsets[w + 1] as usize;
        &self.pairs[start..end]
    }

    /// Total number of `(σ1, σ2)` pairs across all words; proportional to
    /// the memory the staged table occupies.
    pub fn total_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Approximate memory footprint of the table in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.pairs.len() * std::mem::size_of::<(u32, u32)>()
    }
}

/// One bit-parallel unit of work of a mask-based concatenation: a group of
/// splits `(l, r) → w` (for one fixed left index `l`) whose right indices
/// share a 64-bit block, whose target indices share a block, and whose
/// offset `w − r` is constant.
///
/// Applying an entry to a right operand `b` is three instructions:
/// `dst[target_block] |= (b[right_block] & right_mask) << shift` (a right
/// shift when `shift` is negative). Every bit of `right_mask` lands on the
/// corresponding bit of `target_mask` by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskEntry {
    /// Block index into the right operand.
    pub right_block: u32,
    /// Block index into the result row.
    pub target_block: u32,
    /// Bit distance `(w % 64) − (r % 64)`, in `-63..=63`.
    pub shift: i8,
    /// The right-operand bits `r` covered by this entry.
    pub right_mask: u64,
    /// The result bits `w` covered by this entry (`right_mask` shifted by
    /// `shift`).
    pub target_mask: u64,
}

impl MaskEntry {
    /// ORs into `dst` the target bits whose right operand bit is set in
    /// `b`.
    #[inline]
    pub fn apply(&self, b: &[u64], dst: &mut [u64]) {
        let picked = b[self.right_block as usize] & self.right_mask;
        if picked == 0 {
            return;
        }
        let moved = if self.shift >= 0 {
            picked << self.shift
        } else {
            picked >> -(self.shift as i32)
        };
        debug_assert_eq!(moved & !self.target_mask, 0, "stray bits after shift");
        dst[self.target_block as usize] |= moved;
    }
}

/// The transposed, mask-compressed form of the [`GuideTable`]: for each
/// left index `l`, the block-level [`MaskEntry`] row covering every split
/// `word(l) · word(r) = w` of the closure.
///
/// This is the structure behind the bit-parallel concatenation kernel
/// [`crate::csops::concat_into`], which walks only the set bits of its
/// left operand and applies each entry as a whole-block mask-shift-or.
/// See the `guide` module documentation (in the source) for the layout
/// and its memory trade-off against the pair table.
///
/// # Example
///
/// ```
/// use rei_lang::{GuideMasks, InfixClosure, Word};
///
/// let ic = InfixClosure::of_words([Word::from("110")]);
/// let gm = GuideMasks::build(&ic);
/// // Every split of every closure word is covered by some entry.
/// assert_eq!(gm.num_left(), ic.len());
/// assert!(gm.total_entries() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuideMasks {
    /// `offsets[l]..offsets[l + 1]` indexes the entries of left index `l`.
    offsets: Vec<u32>,
    /// Flattened mask entries, grouped by left index; the rows
    /// [`crate::csops::concat_into`] applies.
    entries: Vec<MaskEntry>,
}

impl GuideMasks {
    /// Builds the mask table for an infix closure.
    ///
    /// # Panics
    ///
    /// Panics if the closure has more than `u32::MAX` members.
    pub fn build(ic: &InfixClosure) -> Self {
        assert!(ic.len() <= u32::MAX as usize, "infix closure too large");
        // Bucket every split (l, r) → w of the closure by its left index.
        // Shortlex order makes r (and therefore w) ascending within each
        // bucket, so same-key splits are usually adjacent and the reverse
        // key scan below matches the row's newest entry first.
        let mut pairs_by_left: Vec<Vec<(u32, u32)>> = vec![Vec::new(); ic.len()];
        for (w, word) in ic.iter() {
            let n = word.len();
            for cut in 0..=n {
                let li = ic
                    .index_of(&word.infix(0, cut))
                    .expect("prefix of a closure word must be in the closure");
                let ri = ic
                    .index_of(&word.infix(cut, n))
                    .expect("suffix of a closure word must be in the closure");
                pairs_by_left[li].push((ri as u32, w as u32));
            }
        }

        let mut offsets = Vec::with_capacity(ic.len() + 1);
        let mut entries: Vec<MaskEntry> = Vec::new();
        offsets.push(0u32);
        for pairs in &mut pairs_by_left {
            pairs.sort_unstable();
            let row_start = entries.len();
            for &(r, w) in pairs.iter() {
                let right_block = r / 64;
                let target_block = w / 64;
                let shift = (w % 64) as i8 - (r % 64) as i8;
                let slot = entries[row_start..].iter_mut().rev().find(|e| {
                    e.right_block == right_block
                        && e.target_block == target_block
                        && e.shift == shift
                });
                match slot {
                    Some(entry) => {
                        entry.right_mask |= 1u64 << (r % 64);
                        entry.target_mask |= 1u64 << (w % 64);
                    }
                    None => entries.push(MaskEntry {
                        right_block,
                        target_block,
                        shift,
                        right_mask: 1u64 << (r % 64),
                        target_mask: 1u64 << (w % 64),
                    }),
                }
            }
            offsets.push(entries.len() as u32);
        }
        GuideMasks { offsets, entries }
    }

    /// Number of left indices covered (the size of the closure).
    pub fn num_left(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the table covers no words.
    pub fn is_empty(&self) -> bool {
        self.num_left() == 0
    }

    /// The mask entries of left index `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.num_left()`.
    pub fn row(&self, l: usize) -> &[MaskEntry] {
        let start = self.offsets[l] as usize;
        let end = self.offsets[l + 1] as usize;
        &self.entries[start..end]
    }

    /// Total number of mask entries across all left indices.
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }

    /// Total number of splits covered (equals
    /// [`GuideTable::total_pairs`] on the same closure).
    pub fn total_splits(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.right_mask.count_ones() as usize)
            .sum()
    }

    /// Approximate memory footprint of the table in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.entries.len() * std::mem::size_of::<MaskEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Spec, Word};
    use proptest::prelude::*;

    #[test]
    fn splits_count_is_length_plus_one() {
        let spec =
            Spec::from_strs(["1", "011", "1011", "11011"], ["", "10", "101", "0011"]).unwrap();
        let ic = InfixClosure::of_spec(&spec);
        let gt = GuideTable::build(&ic);
        assert_eq!(gt.num_words(), ic.len());
        for (i, word) in ic.iter() {
            assert_eq!(gt.splits(i).len(), word.len() + 1, "word {word}");
        }
    }

    #[test]
    fn splits_reconstruct_the_word() {
        let ic = InfixClosure::of_words([Word::from("11011")]);
        let gt = GuideTable::build(&ic);
        for (i, word) in ic.iter() {
            for &(l, r) in gt.splits(i) {
                let rebuilt = ic.word(l as usize).concat(ic.word(r as usize));
                assert_eq!(&rebuilt, word);
            }
        }
    }

    #[test]
    fn paper_guide_table_example() {
        // Section 3 of the paper: the guide-table row for "110" contains a
        // split into "11" and "0".
        let spec =
            Spec::from_strs(["1", "011", "1011", "11011"], ["", "10", "101", "0011"]).unwrap();
        let ic = InfixClosure::of_spec(&spec);
        let gt = GuideTable::build(&ic);
        let w = ic.index_of(&Word::from("110")).unwrap();
        let eleven = ic.index_of(&Word::from("11")).unwrap() as u32;
        let zero = ic.index_of(&Word::from("0")).unwrap() as u32;
        assert!(gt.splits(w).contains(&(eleven, zero)));
    }

    #[test]
    fn empty_closure() {
        let ic = InfixClosure::of_words(Vec::new());
        let gt = GuideTable::build(&ic);
        assert!(gt.is_empty());
        assert_eq!(gt.total_pairs(), 0);
    }

    #[test]
    fn memory_accounting_is_positive() {
        let ic = InfixClosure::of_words([Word::from("0101")]);
        let gt = GuideTable::build(&ic);
        assert!(gt.memory_bytes() > 0);
        assert_eq!(
            gt.total_pairs(),
            ic.iter().map(|(_, w)| w.len() + 1).sum::<usize>()
        );
    }

    /// Expands a mask table back into the set of `(l, r, w)` splits it
    /// encodes.
    fn expand_masks(gm: &GuideMasks) -> Vec<(u32, u32, u32)> {
        let mut splits = Vec::new();
        for l in 0..gm.num_left() {
            for entry in gm.row(l) {
                let mut bits = entry.right_mask;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as i32;
                    bits &= bits - 1;
                    let r = entry.right_block * 64 + bit as u32;
                    let w = entry.target_block * 64 + (bit + entry.shift as i32) as u32;
                    assert_ne!(entry.target_mask & (1u64 << (bit + entry.shift as i32)), 0);
                    splits.push((l as u32, r, w));
                }
            }
        }
        splits.sort_unstable();
        splits
    }

    /// Expands the pair table into the same `(l, r, w)` representation.
    fn expand_table(gt: &GuideTable) -> Vec<(u32, u32, u32)> {
        let mut splits = Vec::new();
        for w in 0..gt.num_words() {
            for &(l, r) in gt.splits(w) {
                splits.push((l, r, w as u32));
            }
        }
        splits.sort_unstable();
        splits
    }

    #[test]
    fn masks_encode_exactly_the_table_splits() {
        let spec =
            Spec::from_strs(["1", "011", "1011", "11011"], ["", "10", "101", "0011"]).unwrap();
        let ic = InfixClosure::of_spec(&spec);
        let gt = GuideTable::build(&ic);
        let gm = GuideMasks::build(&ic);
        assert_eq!(gm.num_left(), ic.len());
        assert_eq!(gm.total_splits(), gt.total_pairs());
        assert_eq!(expand_masks(&gm), expand_table(&gt));
    }

    #[test]
    fn masks_compress_dense_closures() {
        // All binary words up to length 5: length classes collapse into
        // few block entries, so the mask table has far fewer entries than
        // the table has pairs.
        let words: Vec<Word> = (0..32u32)
            .map(|bits| Word::new((0..5).map(|i| if bits >> i & 1 == 1 { '1' } else { '0' })))
            .collect();
        let ic = InfixClosure::of_words(words);
        let gt = GuideTable::build(&ic);
        let gm = GuideMasks::build(&ic);
        assert_eq!(gm.total_splits(), gt.total_pairs());
        // Whole length classes collapse into single entries (one per
        // (left word, suffix length) here), so the mask table needs
        // well under half as many entries as the table has pairs.
        assert!(
            gm.total_entries() * 2 < gt.total_pairs(),
            "entries {} vs pairs {}",
            gm.total_entries(),
            gt.total_pairs()
        );
    }

    #[test]
    fn empty_closure_masks() {
        let gm = GuideMasks::build(&InfixClosure::of_words(Vec::new()));
        assert!(gm.is_empty());
        assert_eq!(gm.total_entries(), 0);
        // Just the sentinel offset of the entry table.
        assert_eq!(gm.memory_bytes(), std::mem::size_of::<u32>());
    }

    proptest! {
        /// The mask table and the pair table encode the same split
        /// relation on random closures.
        #[test]
        fn masks_agree_with_table_on_random_closures(
            words in proptest::collection::vec("[01]{0,6}", 1..5)
        ) {
            let ic = InfixClosure::of_words(words.iter().map(|s| Word::from(s.as_str())));
            let gt = GuideTable::build(&ic);
            let gm = GuideMasks::build(&ic);
            prop_assert_eq!(expand_masks(&gm), expand_table(&gt));
        }
    }

    proptest! {
        /// Every split listed is valid and every valid split is listed.
        #[test]
        fn splits_sound_and_complete(words in proptest::collection::vec("[01]{0,5}", 1..4)) {
            let ic = InfixClosure::of_words(words.iter().map(|s| Word::from(s.as_str())));
            let gt = GuideTable::build(&ic);
            for (i, word) in ic.iter() {
                let splits = gt.splits(i);
                // Sound (checked via reconstruction) and complete (count).
                for &(l, r) in splits {
                    prop_assert_eq!(&ic.word(l as usize).concat(ic.word(r as usize)), word);
                }
                prop_assert_eq!(splits.len(), word.len() + 1);
            }
        }
    }
}
