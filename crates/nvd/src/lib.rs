//! An in-memory, NVD-like vulnerability database substrate.
//!
//! The DSN 2020 paper *"Scalable Approach to Enhancing ICS Resilience by
//! Network Diversity"* (Li, Feng, Hankin) estimates how likely a single
//! zero-day exploit is to compromise two different products by the **Jaccard
//! similarity of their vulnerability sets**, computed over CVE entries from
//! the National Vulnerability Database (NVD), with products identified by
//! Common Platform Enumeration (CPE) names.
//!
//! This crate reimplements that data pipeline without network access:
//!
//! * [`cpe`] — a CPE 2.2 URI parser/formatter (`cpe:/o:microsoft:windows_7`).
//! * [`cve`] — CVE identifiers and entries listing affected CPEs.
//! * [`database`] — an indexed store mapping products to vulnerability sets,
//!   supporting the prefix queries the paper uses to bucket versions.
//! * [`similarity`] — the Jaccard similarity metric (paper Definition 1) and
//!   dense symmetric [`similarity::SimilarityTable`]s.
//! * [`datasets`] — the similarity tables the paper **publishes** (Tables II
//!   and III) embedded as data, plus a synthetic database-server table with
//!   the same qualitative structure.
//! * [`feed`] — a seeded synthetic CVE feed generator used by tests and
//!   benchmarks to exercise the table-construction pipeline at scale.
//! * [`json`] — serde-based feed import/export (NVD feeds are JSON).
//!
//! # Quick start
//!
//! ```
//! use nvd::cpe::Cpe;
//! use nvd::cve::{CveEntry, CveId};
//! use nvd::database::VulnerabilityDatabase;
//!
//! # fn main() -> Result<(), nvd::Error> {
//! let mut db = VulnerabilityDatabase::new();
//! let win7: Cpe = "cpe:/o:microsoft:windows_7".parse()?;
//! let win81: Cpe = "cpe:/o:microsoft:windows_8.1".parse()?;
//! db.insert(CveEntry::new(CveId::new(2016, 7153)?, 2016, vec![win7.clone(), win81.clone()]));
//!
//! let sim = db.similarity(&win7, &win81);
//! assert_eq!(sim, 1.0); // the single CVE affects both products
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cpe;
pub mod cve;
pub mod database;
pub mod datasets;
pub mod feed;
pub mod json;
pub mod similarity;

mod error;

pub use error::Error;

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, Error>;
