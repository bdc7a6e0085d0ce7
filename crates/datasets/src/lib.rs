//! # ucpc-datasets — dataset substrate for the paper's evaluation
//!
//! Seeded generators replacing the data the paper used but which is not
//! available offline (UCI benchmark files, Broad Institute microarray data,
//! the PUMA probe-level-uncertainty pipeline), plus the full Section-5.1
//! uncertainty-generation protocol. Each substitution is recorded in the
//! README's "Substitutions" section:
//!
//! * [`benchmark`] — Table 1(a): labelled Gaussian-mixture datasets matching
//!   each benchmark's object/attribute/class counts, with
//!   all-classes-covered fractional subsets for the Figure-5 scalability
//!   protocol;
//! * [`microarray`] — Table 1(b): probe-level-uncertainty simulator emitting
//!   genes as uncertain objects with intensity-dependent Normal pdfs;
//! * [`uncertainty`] — Section 5.1: pdf assignment (`E[f_w] = w`), Case-1
//!   perturbed datasets `D'` (MC/MCMC) and Case-2 uncertain datasets `D''`
//!   (95%-coverage regions).

#![warn(missing_docs)]

pub mod benchmark;
pub mod io;
pub mod microarray;
pub mod uncertainty;

pub use benchmark::{
    accuracy_benchmarks, generate, generate_fraction, DatasetSpec, LabeledDataset,
};
pub use microarray::{MicroarrayDataset, MicroarraySimulator, MicroarraySpec};
pub use uncertainty::{NoiseKind, PdfAssignment, PerturbMethod, UncertaintyModel};
