//! Test support shared by the integration tests of this crate. Each test
//! crate uses only part of it.
#![allow(dead_code)]

pub mod model;
