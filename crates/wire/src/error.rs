//! Wire-layer errors.

/// Errors raised by the TCP transport.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(std::io::Error),

    /// A frame exceeded the protocol's size limit.
    FrameTooLarge {
        /// Declared frame size.
        got: usize,
        /// The protocol limit.
        limit: usize,
    },

    /// A frame's payload was not valid JSON for the expected type.
    Malformed(oasis_json::JsonError),

    /// The peer closed the connection mid-exchange.
    Closed,

    /// A connect, read, or write exceeded the connection's socket
    /// deadline ([`WireClient::connect_with`](crate::WireClient::connect_with)).
    /// Transient: the peer may be slow, partitioned, or restarting —
    /// retry with backoff.
    TimedOut {
        /// The operation that timed out (`"connect"`, `"read"`, `"write"`).
        op: &'static str,
    },

    /// The server shed the request before doing any work: its admission
    /// queue for the request's priority lane was full. Transient — the
    /// server is alive; retry after the hinted delay.
    Overloaded {
        /// Server-estimated queue-drain time in milliseconds.
        retry_after_ms: u64,
    },

    /// The request's propagated deadline (`deadline_ms` in the wire
    /// envelope) passed before the server started executing it; the
    /// server dropped it without doing work.
    DeadlineExceeded,

    /// The addressed node is a replica follower (or mid-election): the
    /// write must go to the leader. Transient — re-dial the hinted
    /// address when present, or retry candidates with backoff while the
    /// election settles (see [`FailoverClient`](crate::FailoverClient)).
    NotLeader {
        /// The current leader's client address, when the follower knows it.
        hint: Option<String>,
    },

    /// The server answered with an application error.
    Remote(String),

    /// The server answered with the wrong response variant.
    UnexpectedResponse(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o: {e}"),
            Self::FrameTooLarge { got, limit } => {
                write!(f, "frame of {got} bytes exceeds limit of {limit}")
            }
            Self::Malformed(e) => write!(f, "malformed frame: {e}"),
            Self::Closed => write!(f, "connection closed by peer"),
            Self::TimedOut { op } => write!(f, "{op} timed out"),
            Self::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded: retry after {retry_after_ms}ms")
            }
            Self::DeadlineExceeded => write!(f, "deadline exceeded before execution"),
            Self::NotLeader { hint } => match hint {
                Some(hint) => write!(f, "not the leader (leader at {hint})"),
                None => write!(f, "not the leader (no leader known)"),
            },
            Self::Remote(message) => write!(f, "remote error: {message}"),
            Self::UnexpectedResponse(got) => {
                write!(f, "protocol violation: unexpected response {got}")
            }
        }
    }
}

impl WireError {
    /// Whether this error is a deadline expiry (directly, or an I/O error
    /// of a timeout kind that was not yet normalised).
    pub fn is_timeout(&self) -> bool {
        match self {
            Self::TimedOut { .. } => true,
            Self::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }

    /// Normalises timeout-kind I/O errors into [`WireError::TimedOut`]
    /// for operation `op`; leaves every other error untouched. Blocking
    /// sockets report expired read/write deadlines as
    /// `WouldBlock`/`TimedOut` I/O errors depending on platform.
    pub(crate) fn normalise_timeout(self, op: &'static str) -> Self {
        if self.is_timeout() {
            Self::TimedOut { op }
        } else {
            self
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<oasis_json::JsonError> for WireError {
    fn from(e: oasis_json::JsonError) -> Self {
        Self::Malformed(e)
    }
}
