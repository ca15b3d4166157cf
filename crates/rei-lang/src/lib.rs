//! Formal-language substrate for Paresy-rs.
//!
//! This crate implements the data structures of Sections 2 and 3 of the
//! paper that the synthesiser searches over:
//!
//! * [`Word`] — strings over an arbitrary `char` alphabet with the
//!   **shortlex** total order (Definition 2.5).
//! * [`Alphabet`] — a finite, ordered set of characters.
//! * [`Spec`] — a specification `(P, N)` of positive and negative examples
//!   (Definition 3.1).
//! * [`InfixClosure`] — the infix closure `ic(P ∪ N)` in shortlex order,
//!   which is the index set of every characteristic sequence
//!   (Definition 3.5).
//! * [`Cs`] — characteristic sequences: bitvectors of length
//!   `#ic(P ∪ N)`, padded to a power of two (the paper's second space-time
//!   trade-off), with the semiring operations of infix power series
//!   (union, concatenation, Kleene star, question mark).
//! * [`GuideTable`] — the staged pre-computation of all splits of every
//!   word in the infix closure, which turns concatenation into a gather
//!   over bit positions (the paper's *guide table*).
//! * [`GuideMasks`] — the transposed, block-mask form of the guide table:
//!   one row of `(right-mask, target-mask)` entries per *left* index,
//!   which turns concatenation into whole-`u64` mask-shift-or operations
//!   over only the set bits of the left operand (see [`csops::concat_into`]).
//! * [`SatisfyMasks`] — the pair of bit masks used to check `L ⊨ (P, N)`
//!   with two bitwise operations.
//!
//! # Example
//!
//! ```
//! use rei_lang::{InfixClosure, Spec};
//!
//! let spec = Spec::from_strs(["1", "011", "1011", "11011"], ["", "10", "101", "0011"]).unwrap();
//! let ic = InfixClosure::of_spec(&spec);
//! // Example 3.6 of the paper: the infix closure has 15 elements.
//! assert_eq!(ic.len(), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod cs;
pub mod csops;
mod error;
mod guide;
mod infix;
mod satisfy;
mod spec;
mod word;

pub use alphabet::Alphabet;
pub use cs::{Cs, CsWidth};
pub use error::SpecError;
pub use guide::{GuideMasks, GuideTable, MaskEntry};
pub use infix::InfixClosure;
pub use satisfy::{AdmissionPrefilter, SatisfyMasks};
pub use spec::{fnv1a, Spec};
pub use word::Word;
