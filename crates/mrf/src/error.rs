use std::fmt;

use crate::{EdgeId, PotentialId, VarId};

/// Errors produced while constructing or mutating MRF models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A referenced variable does not exist (out of range, or tombstoned by
    /// [`crate::model::MrfModel::remove_var`]).
    UnknownVariable(VarId),
    /// A referenced potential does not exist.
    UnknownPotential(PotentialId),
    /// A referenced edge does not exist (out of range, or tombstoned by
    /// [`crate::model::MrfModel::remove_pairwise`]).
    UnknownEdge(EdgeId),
    /// A unary cost vector has the wrong number of entries.
    UnaryArity {
        /// The variable.
        var: VarId,
        /// Number of labels the variable has.
        labels: usize,
        /// Number of costs supplied.
        got: usize,
    },
    /// A potential's dimensions do not match the edge's endpoint label counts.
    PotentialShape {
        /// First endpoint.
        a: VarId,
        /// Second endpoint.
        b: VarId,
        /// Expected (rows, cols).
        expected: (usize, usize),
        /// Supplied (rows, cols).
        got: (usize, usize),
    },
    /// A dense cost matrix has the wrong number of entries.
    CostLength {
        /// Expected `rows * cols`.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// An edge connects a variable to itself.
    SelfEdge(VarId),
    /// A variable was declared with zero labels.
    EmptyDomain(VarId),
    /// Exact elimination aborted: an intermediate table would be too large.
    TreewidthExceeded {
        /// Entries the offending table would need.
        entries: usize,
        /// The configured cap.
        limit: usize,
    },
    /// A solve was stopped by its deadline before the algorithm could
    /// produce a meaningful result (only raised by solvers without anytime
    /// semantics, i.e. exact elimination).
    Interrupted,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownVariable(v) => write!(f, "unknown variable {}", v.0),
            Error::UnknownPotential(p) => write!(f, "unknown potential {}", p.0),
            Error::UnknownEdge(e) => write!(f, "unknown or removed edge {}", e.0),
            Error::UnaryArity { var, labels, got } => write!(
                f,
                "variable {} has {labels} labels but {got} unary costs were supplied",
                var.0
            ),
            Error::PotentialShape {
                a,
                b,
                expected,
                got,
            } => write!(
                f,
                "edge ({}, {}) needs a {}x{} potential, got {}x{}",
                a.0, b.0, expected.0, expected.1, got.0, got.1
            ),
            Error::CostLength { expected, got } => {
                write!(f, "cost matrix needs {expected} entries, got {got}")
            }
            Error::SelfEdge(v) => write!(f, "edge connects variable {} to itself", v.0),
            Error::EmptyDomain(v) => write!(f, "variable {} has an empty label set", v.0),
            Error::TreewidthExceeded { entries, limit } => write!(
                f,
                "exact elimination needs a table of {entries} entries, above the {limit} cap"
            ),
            Error::Interrupted => {
                write!(f, "solve interrupted by its deadline before completion")
            }
        }
    }
}

impl std::error::Error for Error {}
