//! Per-request deadline budgets.
//!
//! Every request carries a [`Deadline`] from the moment its connection is
//! accepted: the server default ([`crate::server::ServerConfig::default_deadline`])
//! unless the client narrows it with an `X-Deadline-Ms` header. The budget
//! clock starts when the *bytes* started waiting, not when a worker got
//! around to them — for the first request on a connection that is the accept
//! instant (so time spent in the bounded queue counts), and for subsequent
//! keep-alive requests it is the instant the request head started arriving.
//!
//! A request whose budget is exhausted before dispatch is **shed**: a
//! deterministic `503` with `Retry-After`, counted under `srv.deadline.*`,
//! and the connection stays open (the worker already owns it; the client's
//! retry lands immediately). A request dispatched inside its budget runs to
//! completion: the engine call is short and uninterruptible, so the budget
//! is checked once, at dispatch, and never inside [`crate::App::handle`].
//!
//! [`Deadline`] is a plain `Copy` wrapper over `Option<Instant>`; `None`
//! (a budget past the end of the clock) never expires.

use std::time::{Duration, Instant};

/// Floor for a client-requested budget: anything below 1 ms is treated as
/// 1 ms rather than rejected, so `X-Deadline-Ms: 0` still gets a determinate
/// answer (usually an immediate shed) instead of a parse error.
pub const MIN_DEADLINE: Duration = Duration::from_millis(1);

/// An absolute point in time after which a request is not worth serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `budget` after `start`.
    pub fn after(start: Instant, budget: Duration) -> Deadline {
        Deadline { at: start.checked_add(budget) }
    }

    /// Whether the deadline has passed as of `now`.
    pub fn expired_at(self, now: Instant) -> bool {
        self.at.is_some_and(|at| now >= at)
    }

    /// Whether the deadline has passed.
    pub fn expired(self) -> bool {
        self.expired_at(Instant::now())
    }
}

/// Outcome of reading the optional `X-Deadline-Ms` request header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderBudget {
    /// Header absent; use the server default.
    Default,
    /// Header present and valid; the clamped budget.
    Requested(Duration),
    /// Header present but not a positive integer; answer `400`.
    Invalid,
}

/// Parses `X-Deadline-Ms`, clamping a valid value into
/// `[MIN_DEADLINE, max]`. Clamping (rather than rejecting) out-of-range
/// values keeps the header best-effort: a client asking for more budget than
/// the server allows gets the server's ceiling, not an error.
pub fn parse_header_budget(value: Option<&str>, max: Duration) -> HeaderBudget {
    let Some(raw) = value else {
        return HeaderBudget::Default;
    };
    match raw.trim().parse::<u64>() {
        Ok(ms) => {
            let budget = Duration::from_millis(ms).clamp(MIN_DEADLINE, max);
            HeaderBudget::Requested(budget)
        }
        Err(_) => HeaderBudget::Invalid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_expires_exactly_at_the_instant() {
        let start = Instant::now();
        let d = Deadline::after(start, Duration::from_millis(10));
        assert!(!d.expired_at(start));
        assert!(!d.expired_at(start + Duration::from_millis(9)));
        assert!(d.expired_at(start + Duration::from_millis(10)));
        assert!(d.expired_at(start + Duration::from_secs(1)));
    }

    #[test]
    fn budget_past_the_end_of_the_clock_never_expires() {
        let d = Deadline::after(Instant::now(), Duration::MAX);
        assert!(!d.expired());
    }

    #[test]
    fn header_budget_absent_is_default() {
        assert_eq!(parse_header_budget(None, Duration::from_secs(5)), HeaderBudget::Default);
    }

    #[test]
    fn header_budget_is_clamped_both_ways() {
        let max = Duration::from_secs(5);
        assert_eq!(
            parse_header_budget(Some("250"), max),
            HeaderBudget::Requested(Duration::from_millis(250))
        );
        assert_eq!(parse_header_budget(Some("0"), max), HeaderBudget::Requested(MIN_DEADLINE));
        assert_eq!(parse_header_budget(Some("999999999"), max), HeaderBudget::Requested(max));
        assert_eq!(parse_header_budget(Some("  40 "), max), HeaderBudget::Requested(Duration::from_millis(40)));
    }

    #[test]
    fn header_budget_garbage_is_invalid() {
        let max = Duration::from_secs(5);
        for bad in ["", "-5", "soon", "1.5", "10ms", "0x20"] {
            assert_eq!(parse_header_budget(Some(bad), max), HeaderBudget::Invalid, "{bad:?}");
        }
    }
}
