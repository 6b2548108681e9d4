//! # fx-lowerbounds
//!
//! The paper's lower bounds, executable: fooling sets (§3.2) with a
//! machine checker, the frontier-size construction (Thm 4.2/7.1), the
//! set-disjointness reduction (Thm 4.5/7.4), the document-depth
//! construction (Thm 4.6/7.14), and a state-complexity prober rendering
//! the reduction lemma (Lemma 3.7) as a measurement: it counts the
//! behaviorally distinguishable states any correct streaming filter is
//! forced into by these document families.
//!
//! ```
//! use fx_xpath::parse_query;
//! use fx_lowerbounds::{frontier_bound, probe_fooling_set};
//!
//! // Theorem 4.2: FS(Q) = 3 bits are necessary…
//! let q = parse_query("/a[c[.//e and f] and b > 5]").unwrap();
//! let bound = frontier_bound(&q, None).unwrap();
//! assert_eq!(bound.fooling.verify(&q).unwrap().bits, 3);
//! // …and the Section-8 filter is indeed forced into 8 distinct states.
//! let report = probe_fooling_set(
//!     || fx_core::StreamFilter::new(&q).unwrap(), &bound.fooling);
//! assert_eq!(report.classes, 8);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod depth;
pub mod disj;
pub mod fooling;
pub mod frontier;
pub mod prober;

pub use depth::{depth_bound, DepthBound, DepthError};
pub use disj::{disj_segments, sets_intersect, DisjError, DisjSegments};
pub use fooling::{FoolingError, FoolingReport, FoolingSet, FoolingSet3};
pub use frontier::{frontier_bound, FrontierBound};
pub use prober::{probe, probe_fooling_set, Probe, ProbeReport};
