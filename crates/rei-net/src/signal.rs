//! A minimal shutdown-signal hook (SIGINT + SIGTERM) with no external
//! dependencies.
//!
//! The handler does the only async-signal-safe thing there is to do:
//! store into a static atomic. [`NetServer`](crate::NetServer)'s accept
//! loop polls [`shutdown_tripped`] once per tick and folds it into its
//! own stop flag, turning Ctrl-C — or a container orchestrator's
//! SIGTERM — into the same graceful drain (answer accepted jobs, fold
//! the persistent cache) the `shutdown` control verb triggers.

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIPPED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Only this: anything else (locks, allocation, IO) is not
        // async-signal-safe.
        TRIPPED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    #[cfg(test)]
    extern "C" {
        fn raise(signum: i32) -> i32;
    }

    pub fn install() {
        // SAFETY: `signal` with a handler that only stores an atomic is
        // the POSIX-sanctioned minimal use; the handler never unwinds.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn tripped() -> bool {
        TRIPPED.load(Ordering::SeqCst)
    }

    #[cfg(test)]
    pub fn self_raise(signum: i32) {
        // SAFETY: raising a handled signal at ourselves is the standard
        // way to test a handler.
        unsafe {
            raise(signum);
        }
    }

    #[cfg(test)]
    pub fn reset() {
        TRIPPED.store(false, Ordering::SeqCst);
    }

    #[cfg(test)]
    pub const TEST_SIGTERM: i32 = SIGTERM;
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}

    pub fn tripped() -> bool {
        false
    }
}

/// Installs the SIGINT and SIGTERM handlers (a no-op on non-unix
/// targets), so interactive Ctrl-C and orchestrator-driven termination
/// both take the graceful-drain path. Idempotent.
pub fn install_shutdown_signals() {
    imp::install();
}

/// Backwards-compatible alias of [`install_shutdown_signals`] (the hook
/// predates SIGTERM handling and was named for SIGINT alone).
pub fn install_sigint() {
    install_shutdown_signals();
}

/// Whether a shutdown signal (SIGINT or SIGTERM) has fired since
/// [`install_shutdown_signals`].
pub fn shutdown_tripped() -> bool {
    imp::tripped()
}

/// Backwards-compatible alias of [`shutdown_tripped`].
pub fn sigint_tripped() -> bool {
    shutdown_tripped()
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn sigterm_trips_the_shutdown_flag() {
        install_shutdown_signals();
        assert!(!shutdown_tripped(), "clean before any signal");
        imp::self_raise(imp::TEST_SIGTERM);
        assert!(shutdown_tripped(), "SIGTERM takes the graceful path");
        // The legacy name observes the same flag.
        assert!(sigint_tripped());
        // Every server the other tests of this binary run polls the same
        // process-wide flag, and a tripped flag drains them mid-test.
        imp::reset();
    }
}
