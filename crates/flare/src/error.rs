//! Error type for the federated runtime.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the `clinfl-flare` runtime.
#[derive(Debug)]
pub enum FlareError {
    /// A registration token did not match any provisioned site.
    InvalidToken {
        /// Site name the client claimed.
        site: String,
    },
    /// A site tried to register twice.
    DuplicateRegistration {
        /// Site name.
        site: String,
    },
    /// Malformed or truncated wire payload.
    Codec(String),
    /// Message authentication failed (tampered or mis-keyed frame).
    AuthFailure,
    /// Underlying transport failed (peer closed, I/O error).
    Transport(String),
    /// A receive deadline elapsed with no frame.
    Timeout,
    /// Fewer clients than `min_clients` were available for a round.
    NotEnoughClients {
        /// Clients that responded.
        got: usize,
        /// Required minimum.
        needed: usize,
    },
    /// An update was rejected by validation (shape mismatch, NaN, …).
    RejectedUpdate(String),
    /// A send/recv gave up after its bounded retry budget.
    RetriesExhausted {
        /// What was being attempted (e.g. `submit round 3`).
        op: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// Display form of the last underlying error.
        last: String,
    },
    /// A checkpoint file was unusable (CRC mismatch, unknown schema
    /// version, wrong run seed) — distinct from [`FlareError::Codec`] so
    /// recovery code can report *why* a resume was refused.
    Checkpoint(String),
    /// A job or run description was rejected (unknown key, bad value,
    /// or a combination the host cannot run).
    Config(String),
    /// I/O error (persistence, sockets).
    Io(std::io::Error),
    /// The run was aborted by an operator (admin API or abort flag) —
    /// an intentional stop, not a failure, so hosts report it as
    /// "aborted" rather than retrying.
    Aborted,
}

impl fmt::Display for FlareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlareError::InvalidToken { site } => {
                write!(f, "invalid registration token for site {site:?}")
            }
            FlareError::DuplicateRegistration { site } => {
                write!(f, "site {site:?} is already registered")
            }
            FlareError::Codec(msg) => write!(f, "malformed wire payload: {msg}"),
            FlareError::AuthFailure => write!(f, "message authentication failed"),
            FlareError::Transport(msg) => write!(f, "transport failure: {msg}"),
            FlareError::Timeout => write!(f, "receive timed out"),
            FlareError::NotEnoughClients { got, needed } => {
                write!(f, "round had {got} client updates, needed {needed}")
            }
            FlareError::RejectedUpdate(msg) => write!(f, "rejected model update: {msg}"),
            FlareError::RetriesExhausted { op, attempts, last } => {
                write!(f, "{op} gave up after {attempts} attempt(s): {last}")
            }
            FlareError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            FlareError::Config(msg) => write!(f, "invalid run spec: {msg}"),
            FlareError::Io(e) => write!(f, "i/o error: {e}"),
            FlareError::Aborted => write!(f, "run aborted by operator"),
        }
    }
}

impl Error for FlareError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlareError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FlareError {
    fn from(e: std::io::Error) -> Self {
        FlareError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = FlareError::InvalidToken {
            site: "site-1".into(),
        };
        assert!(e.to_string().contains("site-1"));
        let e = FlareError::NotEnoughClients { got: 3, needed: 8 };
        assert!(e.to_string().contains('3') && e.to_string().contains('8'));
    }

    #[test]
    fn retries_exhausted_display() {
        let e = FlareError::RetriesExhausted {
            op: "submit round 3".into(),
            attempts: 4,
            last: FlareError::Timeout.to_string(),
        };
        let msg = e.to_string();
        assert!(msg.contains("submit round 3") && msg.contains('4') && msg.contains("timed out"));
    }

    #[test]
    fn io_source_chains() {
        let e = FlareError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
