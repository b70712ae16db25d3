//! Client-side retry over the protocol's `retryable` error bit: capped
//! exponential backoff seeded by the server's own `retry_after_ms` hint.
//!
//! Every error response carries `retryable` (see `docs/PROTOCOL.md`):
//! `overloaded` and `shutdown` failures are transient — the same request
//! resent later (or to another worker in a fleet) can succeed — while
//! everything else would fail identically forever. This module is the
//! one shared honoring of that contract, used by
//! `examples/server_client.rs`, the tests, and the `llhd-router` fleet
//! tier's retry-on-next-candidate placement.

use crate::json::Json;
use crate::server::Client;
use std::io;
use std::time::Duration;

/// The ceiling on any single backoff sleep. The server's
/// `retry_after_ms` hint is itself clamped to one second; capping lower
/// here keeps interactive clients responsive under sustained overload.
pub const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// The first backoff sleep when the server sent no hint.
pub const BACKOFF_FLOOR: Duration = Duration::from_millis(10);

/// Whether a response is a failure the sender may retry (`error.retryable`
/// is `true`). Successes and non-retryable errors return `false`.
pub fn is_retryable(response: &Json) -> bool {
    response.get("error").and_then(|e| e.get("retryable")) == Some(&Json::Bool(true))
}

/// The server's `retry_after_ms` backoff hint, when the error carries one.
pub fn retry_after(response: &Json) -> Option<Duration> {
    response
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Json::as_int)
        .map(|ms| Duration::from_millis(ms.clamp(0, 60_000) as u64))
}

/// Capped exponential backoff: starts at [`BACKOFF_FLOOR`], doubles per
/// failure, never exceeds [`BACKOFF_CAP`]. A server hint overrides the
/// schedule for that one sleep (still capped) without resetting it.
#[derive(Clone, Debug)]
pub struct Backoff {
    next: Duration,
}

impl Backoff {
    /// A fresh schedule at the floor.
    pub fn new() -> Backoff {
        Backoff {
            next: BACKOFF_FLOOR,
        }
    }

    /// The sleep for the next retry: the server's hint when given,
    /// otherwise the schedule's current value; either way the schedule
    /// advances (doubles, capped).
    pub fn delay(&mut self, hint: Option<Duration>) -> Duration {
        let wait = hint.unwrap_or(self.next).min(BACKOFF_CAP);
        self.next = (self.next * 2).min(BACKOFF_CAP);
        wait
    }
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff::new()
    }
}

/// Send one request, retrying retryable failures up to `attempts` total
/// tries with [`Backoff`] sleeps between them. Successes, non-retryable
/// errors, and the final attempt's response return as-is — retrying a
/// `source` error would just fail identically forever.
///
/// # Errors
///
/// Propagates transport failures from [`Client::request`] immediately
/// (a broken connection is not cured by resending on it).
pub fn request_with_retry(client: &mut Client, request: &Json, attempts: u32) -> io::Result<Json> {
    let mut backoff = Backoff::new();
    let mut attempt = 1;
    loop {
        let response = client.request(request)?;
        if !is_retryable(&response) || attempt >= attempts {
            return Ok(response);
        }
        std::thread::sleep(backoff.delay(retry_after(&response)));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error_response(fields: &[(&str, Json)]) -> Json {
        let body: Vec<(String, Json)> = fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        Json::obj([("ok", Json::Bool(false)), ("error", Json::Obj(body))])
    }

    #[test]
    fn classifies_retryability() {
        assert!(is_retryable(&error_response(&[(
            "retryable",
            Json::Bool(true)
        )])));
        assert!(!is_retryable(&error_response(&[(
            "retryable",
            Json::Bool(false)
        )])));
        assert!(!is_retryable(&error_response(&[])));
        assert!(!is_retryable(&Json::obj([("ok", Json::Bool(true))])));
    }

    #[test]
    fn reads_the_server_hint() {
        let hinted = error_response(&[("retry_after_ms", Json::Int(120))]);
        assert_eq!(retry_after(&hinted), Some(Duration::from_millis(120)));
        assert_eq!(retry_after(&error_response(&[])), None);
        // A hostile hint cannot park the client for hours.
        let huge = error_response(&[("retry_after_ms", Json::Int(i128::MAX))]);
        assert_eq!(retry_after(&huge), Some(Duration::from_secs(60)));
    }

    #[test]
    fn backoff_doubles_to_the_cap_and_hints_override() {
        let mut backoff = Backoff::new();
        assert_eq!(backoff.delay(None), Duration::from_millis(10));
        assert_eq!(backoff.delay(None), Duration::from_millis(20));
        // A hint overrides this sleep but the schedule keeps advancing.
        assert_eq!(
            backoff.delay(Some(Duration::from_millis(5))),
            Duration::from_millis(5)
        );
        assert_eq!(backoff.delay(None), Duration::from_millis(80));
        for _ in 0..10 {
            assert!(backoff.delay(None) <= BACKOFF_CAP);
        }
        // An over-cap hint is capped too.
        let mut fresh = Backoff::new();
        assert_eq!(fresh.delay(Some(Duration::from_secs(30))), BACKOFF_CAP);
    }
}
