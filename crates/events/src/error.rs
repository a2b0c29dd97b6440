//! Error types for the event middleware.

/// Errors reported by the event middleware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventError {
    /// A topic or pattern string was malformed.
    InvalidTopic {
        /// The offending topic or pattern text.
        topic: String,
        /// Why it was rejected.
        reason: String,
    },

    /// A callback id did not name a live callback subscription.
    UnknownSubscription(u64),

    /// A retention ring was requested with capacity zero.
    InvalidCapacity,
}

impl std::fmt::Display for EventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidTopic { topic, reason } => write!(f, "invalid topic `{topic}`: {reason}"),
            Self::UnknownSubscription(x0) => write!(f, "unknown subscription {x0}"),
            Self::InvalidCapacity => write!(f, "retention capacity must be at least 1"),
        }
    }
}

impl std::error::Error for EventError {}
