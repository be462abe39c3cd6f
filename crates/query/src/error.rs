//! Error type for parsing, binding, planning and execution.

use std::fmt;

use aplus_core::IndexError;
use aplus_graph::GraphError;

/// Errors raised by the query layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Lexical or syntactic error with position info.
    Syntax {
        /// Human-readable message.
        message: String,
        /// Byte offset in the input.
        offset: usize,
    },
    /// A query variable was used inconsistently or not declared.
    UnknownVariable(String),
    /// A variable was declared twice with conflicting roles.
    VariableRoleConflict(String),
    /// Query has more vertices than the optimizer supports.
    TooManyQueryVertices {
        /// Number in the query.
        got: usize,
        /// Supported maximum.
        max: usize,
    },
    /// Query has more query edges than the optimizer supports.
    TooManyQueryEdges {
        /// Number in the query.
        got: usize,
        /// Supported maximum.
        max: usize,
    },
    /// Query has more predicate conjuncts than the optimizer supports.
    TooManyPredicates {
        /// Number in the query.
        got: usize,
        /// Supported maximum.
        max: usize,
    },
    /// A single-hop query edge runs from the named query vertex to itself.
    /// No operator binds such an edge; a variable-length one
    /// (`a-[*1..2]->a`) is supported.
    SelfLoop(String),
    /// The pattern is disconnected; plans require a connected pattern.
    DisconnectedPattern,
    /// The graph's vertex population exceeds the executor's 32-bit
    /// vertex-ID domain: scans address vertices as `0..vertex_count` and
    /// bind each as a `u32`, so a larger graph cannot be executed without
    /// silently truncating IDs.
    VertexDomainExceeded {
        /// The offending vertex count.
        vertex_count: usize,
    },
    /// A variable-length pattern requests more hops than the configured
    /// hop cap allows.
    HopCapExceeded {
        /// The requested maximum hop count.
        requested: u32,
        /// The configured cap.
        cap: u32,
        /// Byte offset of the `*`/`+` spec in the input.
        offset: usize,
    },
    /// A predicate references a variable-length edge variable, which binds
    /// no single data edge.
    VarLengthPredicate(String),
    /// Catalog lookup failures and other graph errors.
    Graph(GraphError),
    /// Index DDL failures.
    Index(IndexError),
    /// The optimizer could not produce a plan (internal invariant breach).
    NoPlan(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Syntax { message, offset } => {
                write!(f, "syntax error at byte {offset}: {message}")
            }
            Self::UnknownVariable(name) => write!(f, "unknown variable: {name}"),
            Self::VariableRoleConflict(name) => {
                write!(f, "variable {name} used as both vertex and edge")
            }
            Self::TooManyQueryVertices { got, max } => {
                write!(f, "query has {got} vertices; at most {max} supported")
            }
            Self::TooManyQueryEdges { got, max } => {
                write!(f, "query has {got} edges; at most {max} supported")
            }
            Self::TooManyPredicates { got, max } => {
                write!(
                    f,
                    "query has {got} predicate conjuncts; at most {max} supported"
                )
            }
            Self::SelfLoop(v) => write!(
                f,
                "single-hop edge from {v} to itself is not supported \
                 (a variable-length one such as {v}-[*1..2]->{v} is)"
            ),
            Self::DisconnectedPattern => write!(f, "query pattern is disconnected"),
            Self::VertexDomainExceeded { vertex_count } => write!(
                f,
                "graph has {vertex_count} vertices, exceeding the executor's \
                 32-bit vertex-ID domain"
            ),
            Self::HopCapExceeded {
                requested,
                cap,
                offset,
            } => write!(
                f,
                "variable-length pattern at byte {offset} requests up to \
                 {requested} hops, exceeding the hop cap of {cap}"
            ),
            Self::VarLengthPredicate(name) => write!(
                f,
                "predicate references variable-length edge variable {name}, \
                 which binds no single edge"
            ),
            Self::Graph(e) => write!(f, "{e}"),
            Self::Index(e) => write!(f, "{e}"),
            Self::NoPlan(msg) => write!(f, "no plan: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<GraphError> for QueryError {
    fn from(e: GraphError) -> Self {
        Self::Graph(e)
    }
}

impl From<IndexError> for QueryError {
    fn from(e: IndexError) -> Self {
        Self::Index(e)
    }
}
