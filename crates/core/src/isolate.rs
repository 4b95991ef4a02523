//! Crash and hang isolation: the one shield suite cases, fault sites
//! and served jobs run behind.
//!
//! [`contain`] runs a closure behind `catch_unwind` on the calling
//! thread, turning a panic into its message; it is the whole shield when
//! there is no wall-clock budget, and nothing is spawned. [`isolate`]
//! adds the wall-clock watchdog: the closure runs on its own thread and
//! the caller stops *waiting* when the budget expires. A flow holds
//! `Rc`-based memory handles, so the thread cannot be stopped from
//! outside; a tripped watchdog abandons it detached (it still stops at
//! its tick budget) and its result is discarded.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How an [`isolate`]d closure ended.
#[derive(Debug)]
pub enum Isolated<T> {
    /// It returned a value.
    Done(T),
    /// It panicked; the payload rendered as text.
    Panicked(String),
    /// The wall-clock budget (milliseconds) expired first.
    TimedOut(u64),
    /// The watchdogged thread could not start, or vanished without
    /// reporting.
    Died(String),
}

/// Runs `f` on the calling thread behind `catch_unwind`.
///
/// # Errors
///
/// Returns the panic message when `f` panics.
pub fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(&*payload))
}

/// Runs `f` behind [`contain`] on its own thread, waiting at most
/// `wall_ms` milliseconds for it.
pub fn isolate<T, F>(wall_ms: u64, f: F) -> Isolated<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (sender, receiver) = mpsc::channel();
    let spawned = std::thread::Builder::new().spawn(move || {
        let _ = sender.send(contain(f));
    });
    if let Err(e) = spawned {
        return Isolated::Died(format!("cannot spawn a watchdogged thread: {e}"));
    }
    match receiver.recv_timeout(Duration::from_millis(wall_ms)) {
        Ok(Ok(value)) => Isolated::Done(value),
        Ok(Err(message)) => Isolated::Panicked(message),
        Err(RecvTimeoutError::Timeout) => Isolated::TimedOut(wall_ms),
        Err(RecvTimeoutError::Disconnected) => {
            Isolated::Died("watchdogged thread died without reporting".to_string())
        }
    }
}

/// Renders a panic payload as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contain_turns_a_panic_into_its_message() {
        assert_eq!(contain(|| 7), Ok(7));
        assert_eq!(
            contain(|| -> u8 { panic!("boom") }),
            Err("boom".to_string())
        );
    }

    #[test]
    fn isolate_reports_done_panicked_and_timed_out() {
        assert!(matches!(isolate(60_000, || 3), Isolated::Done(3)));
        let panicked = isolate(60_000, || -> u8 { panic!("bad {}", 1) });
        assert!(matches!(panicked, Isolated::Panicked(m) if m == "bad 1"));
        let parked = isolate(20, || loop {
            std::thread::park();
        });
        assert!(matches!(parked, Isolated::TimedOut(20)));
    }
}
