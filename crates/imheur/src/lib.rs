//! Heuristic seed-selection baselines for influence maximization.
//!
//! Section 3.6 of the paper ("Heuristics for Quick Guesses") surveys a family
//! of cheap methods that skip the expensive sampling of Oneshot, Snapshot and
//! RIS at the price of estimation accuracy: degree-based rules, discounted
//! degree rules, and linear-system rankings. The paper does not benchmark them
//! — it notes that "such heuristics are faster than the three approaches, but
//! resulting seed sets have less influence" — but a library for the study is
//! incomplete without them: they are the baselines a practitioner reaches for
//! first, and the examples and the `heuristics` driver in this repository
//! use them to quantify exactly how much influence the shortcut costs.
//!
//! Every heuristic implements the common [`SeedSelector`] trait: given an
//! influence graph and a seed size `k` it returns a ranked seed set together
//! with the traversal cost it incurred, so the heuristics slot into the same
//! cost-accounting framework as the three sampling approaches.
//!
//! Provided selectors:
//!
//! * [`MaxDegree`] — top-`k` vertices by out-degree;
//! * [`WeightedDegree`] — top-`k` by expected out-weight `Σ p(v, ·)`;
//! * [`SingleDiscount`] / [`DegreeDiscount`] — the discount rules of Chen,
//!   Wang and Yang (KDD 2009);
//! * [`PageRankSelector`] — influence-weighted PageRank on the transposed
//!   graph;
//! * [`IrieSelector`] — the IRIE linear-system influence ranking of Jung, Heo
//!   and Chen (ICDM 2012), with the iterative update truncated at a fixed
//!   round count;
//! * [`RandomSelector`] — uniformly random seeds, the zero-information
//!   baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degree;
pub mod discount;
pub mod irie;
pub mod pagerank;
pub mod random;
mod selector;

pub use degree::{MaxDegree, WeightedDegree};
pub use discount::{DegreeDiscount, SingleDiscount};
pub use irie::IrieSelector;
pub use pagerank::PageRankSelector;
pub use random::RandomSelector;
pub use selector::{HeuristicResult, SeedSelector};
