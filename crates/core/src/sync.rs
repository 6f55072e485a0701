//! Atomic/cell facade: `std::sync` in production, `loom` under
//! `RUSTFLAGS="--cfg loom"` (see DESIGN.md §9).
//!
//! Only *protocol-bearing* shared state goes through this module — the
//! native machine's words (HYBCOMB's nodes and combiner-identity words,
//! CC-SYNCH's nodes, SHM-SERVER's channels) and poison flags, the lock
//! words, flat combining's publication records, the `CsState` cell they all
//! guard, and the server threads that run them. Pure statistics counters
//! (`rounds`, `combined`, `cas_attempts`, …) stay on `std::sync::atomic`
//! deliberately: they carry no synchronization and modelling them would
//! blow up loom's state space without checking anything.

#[cfg(loom)]
pub(crate) use loom::cell::UnsafeCell;
#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
#[cfg(not(loom))]
pub(crate) use std::thread::JoinHandle;

/// Spawns a construction's named server thread; under loom, a model
/// thread whose panic `join` reports as std's does (loom's own would abort
/// the execution).
#[cfg(not(loom))]
pub(crate) fn spawn<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    let builder = std::thread::Builder::new().name(name.into());
    builder.spawn(f).expect("failed to spawn a server thread")
}

#[cfg(loom)]
pub(crate) struct JoinHandle<T>(loom::thread::JoinHandle<std::thread::Result<T>>);

#[cfg(loom)]
impl<T> JoinHandle<T> {
    pub(crate) fn join(self) -> std::thread::Result<T> {
        self.0.join().and_then(|r| r)
    }
}

#[cfg(loom)]
pub(crate) fn spawn<T: Send + 'static>(
    _: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    let f = std::panic::AssertUnwindSafe(f);
    JoinHandle(loom::thread::spawn(move || std::panic::catch_unwind(f)))
}

/// Thin `std` stand-in for loom's closure-based `UnsafeCell` so production
/// code and model share one access idiom (`with` / `with_mut`).
#[cfg(not(loom))]
#[derive(Debug)]
pub(crate) struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

#[cfg(not(loom))]
impl<T> UnsafeCell<T> {
    pub(crate) const fn new(value: T) -> Self {
        Self(std::cell::UnsafeCell::new(value))
    }

    #[inline(always)]
    pub(crate) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }

    pub(crate) fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

/// One iteration of a bounded spin-wait: cheap PAUSE while young, OS yield
/// once the wait drags on. Under loom every iteration must instead be a
/// scheduling point (`loom::thread::yield_now`), or the model's preemption
/// bound can pin the spinner and livelock the exploration.
#[inline]
pub(crate) fn spin(spins: &mut u32) {
    #[cfg(loom)]
    {
        let _ = spins;
        loom::thread::yield_now();
    }
    #[cfg(not(loom))]
    {
        *spins = spins.saturating_add(1);
        if *spins < 128 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}
