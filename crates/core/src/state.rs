//! Interior-mutable holder for the state protected by a construction, plus
//! the panic-safety guard the combining executors wrap around it.

use crate::sync::{AtomicBool, Ordering, UnsafeCell};

/// The state a construction protects, wrapped so that it can be shared
/// across threads while only ever being *accessed* by the thread currently
/// holding the (implicit) mutual exclusion.
///
/// Each executor in this crate establishes mutual exclusion by its own
/// protocol (a dedicated server thread, a unique combiner, a held lock); the
/// `unsafe` blocks touching this cell cite the relevant argument.
///
/// Access is closure-scoped (`with_mut`) rather than reference-returning so
/// that under `--cfg loom` the model checker sees the exact extent of every
/// critical section and reports any pair of overlapping accesses as a data
/// race — the executable form of each construction's mutual-exclusion proof.
///
/// Public so layers above can build *their own* mutual-exclusion protocols
/// over one state — the runtime's adaptive backend hands a single `CsState`
/// between a lock, a combiner, and a server thread across live switches.
pub struct CsState<S> {
    cell: UnsafeCell<S>,
}

// SAFETY: access to the cell is funnelled through the constructions'
// mutual-exclusion protocols; `S: Send` suffices because at most one thread
// holds a reference at any time and hand-offs are synchronized with
// release/acquire edges (message publication, `combining_done`, lock
// release).
unsafe impl<S: Send> Sync for CsState<S> {}

impl<S> CsState<S> {
    /// Wraps `state` for protocol-guarded shared access.
    pub fn new(state: S) -> Self {
        Self {
            cell: UnsafeCell::new(state),
        }
    }

    /// Runs `f` with a mutable reference to the protected state.
    ///
    /// # Safety
    ///
    /// The caller must be the unique servicing thread for the whole duration
    /// of `f`: a dedicated server, the active combiner, or a lock holder. No
    /// other reference (shared or exclusive) may exist concurrently.
    #[inline]
    pub unsafe fn with_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        // SAFETY: forwarded to the caller's contract above; the pointer is
        // valid and uniquely accessible while `f` runs.
        self.cell.with_mut(|p| f(unsafe { &mut *p }))
    }

    /// Consumes the holder, returning the state (used on shutdown once all
    /// servicing activity has quiesced).
    pub fn into_inner(self) -> S {
        self.cell.into_inner()
    }
}

/// Arms on creation; unless [`PoisonGuard::disarm`]ed before drop (i.e. the
/// servicing thread's dispatch region unwound), marks the construction
/// poisoned so spinning waiters panic instead of wedging forever on a
/// hand-off or response that will never come.
pub(crate) struct PoisonGuard<'a> {
    flag: &'a AtomicBool,
    armed: bool,
}

impl<'a> PoisonGuard<'a> {
    #[inline]
    pub(crate) fn new(flag: &'a AtomicBool) -> Self {
        Self { flag, armed: true }
    }

    #[inline]
    pub(crate) fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for PoisonGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            // Relaxed would suffice for the waiters (they only panic on
            // seeing it, no payload is read); Release costs nothing on the
            // unwind path and keeps the flag ordered after the partial
            // mutations for any post-mortem inspection.
            self.flag.store(true, Ordering::Release);
        }
    }
}
