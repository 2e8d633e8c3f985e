//! Zero-dependency SIGTERM/SIGINT latching.
//!
//! The workspace bakes in no external crates, so signal handling is the
//! minimal async-signal-safe primitive done by hand: a process-wide
//! [`AtomicBool`] that the C handler stores into and cooperative loops
//! poll. `std` already links libc on the Unix targets this runs on, so
//! `signal(2)` is declared directly. On non-Unix targets the flag simply
//! never fires from a signal — the serve accept loop and the sweep
//! fabric still honour it when set programmatically.
//!
//! Both `wavesim serve` (graceful drain) and `wavesim sweep` (stop
//! dealing, keep resumable state) install the same latch: the first
//! SIGTERM or SIGINT requests a graceful stop; in-flight work finishes
//! and is flushed before the process exits.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

/// The handler body: a single atomic store, the only thing that is
/// async-signal-safe here.
extern "C" fn latch_term(_signum: i32) {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

/// Install the SIGTERM/SIGINT latch and return the flag cooperative
/// loops should poll. Idempotent; the flag is process-wide.
pub fn install_term_handler() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let handler = latch_term as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is the libc prototype; the handler does one
        // atomic store, which is async-signal-safe.
        unsafe {
            signal(15, handler); // SIGTERM
            signal(2, handler); // SIGINT
        }
    }
    &TERM_REQUESTED
}
