//! # dprep-ml
//!
//! Classic-ML substrate used by the reimplemented baselines of the paper's
//! Table 1:
//!
//! * [`LogisticRegression`] — binary classifier trained with mini-batch
//!   gradient descent + L2, used by the Ditto- and Magellan-style entity
//!   matchers and the HoloDetect-style error detector,
//! * [`MultinomialNb`] — multinomial naive Bayes over sparse token counts,
//!   used by the IMP-style imputer.
//!
//! Everything is deterministic under caller-provided seeds.

pub mod logreg;
pub mod naive_bayes;

pub use logreg::LogisticRegression;
pub use naive_bayes::MultinomialNb;
