//! Test support shared by the integration suites (`mod support;`).

// Each suite uses only part of the support code.
#![allow(dead_code)]

pub mod fold;
pub mod reference;
