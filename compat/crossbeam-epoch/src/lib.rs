//! Offline stand-in for the `crossbeam-epoch` crate, providing the subset
//! this workspace uses: `pin`/`unprotected` guards, `Atomic`/`Owned`/`Shared`
//! pointers, `compare_exchange`, and `Guard::defer_destroy`.
//!
//! Reclamation is implemented with a global sequence-number scheme rather
//! than upstream's per-thread epoch bags: every pin takes a monotonically
//! increasing sequence number and registers it; `defer_destroy` tags the
//! garbage with the current sequence; a retired object is freed only once no
//! live guard predates its retirement (i.e. the minimum active pin sequence
//! exceeds the retire sequence). This upholds the same safety contract —
//! an unlinked node stays allocated as long as any guard that could have
//! observed it is alive — with a Mutex-protected registry instead of
//! lock-free epochs. Throughput is far below upstream's, which is acceptable
//! for the test workloads in this repository; the algorithm under test
//! (LCRQ, its only user) still executes its own lock-free protocol
//! unchanged.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Mutex;

/// One piece of deferred garbage: the raw allocation plus its typed dropper.
struct Garbage {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

// SAFETY: garbage entries are only manipulated while holding the registry
// lock, and the deferred drop runs exactly once on whichever thread retires
// last. The data structures deferred here (queue rings, stack nodes) own
// plain sendable data.
unsafe impl Send for Garbage {}

#[derive(Default)]
struct Registry {
    /// Next pin/retire sequence number.
    next_seq: u64,
    /// Live guards: pin sequence → count (several guards can share a moment
    /// only through re-pinning, but a multiset keeps this robust).
    active: BTreeMap<u64, u32>,
    /// Retired allocations tagged with their retire sequence.
    garbage: Vec<(u64, Garbage)>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    next_seq: 0,
    active: BTreeMap::new(),
    garbage: Vec::new(),
});

/// Frees every garbage entry no live guard could still observe. Runs the
/// drops outside the lock.
fn collect(reg: &mut Registry) -> Vec<Garbage> {
    let min_active = reg.active.keys().next().copied();
    let mut freed = Vec::new();
    reg.garbage.retain_mut(|(retired, g)| {
        let freeable = match min_active {
            None => true,
            Some(min) => *retired < min,
        };
        if freeable {
            freed.push(Garbage {
                ptr: g.ptr,
                drop_fn: g.drop_fn,
            });
        }
        !freeable
    });
    freed
}

fn run_drops(freed: Vec<Garbage>) {
    for g in freed {
        // SAFETY: each entry was pushed exactly once by `defer_destroy` and
        // removed exactly once here; no guard that could observe the object
        // is live (checked under the registry lock).
        unsafe { (g.drop_fn)(g.ptr) };
    }
}

/// A guard that keeps deferred destructions at bay while it is alive.
pub struct Guard {
    /// `None` for the unprotected guard.
    seq: Option<u64>,
}

impl Guard {
    /// Defers destruction of the object `shared` points to until every guard
    /// pinned before this call has been dropped.
    ///
    /// # Safety
    ///
    /// The pointed-to object must be unreachable from the data structure (no
    /// thread pinning *after* this call can obtain the pointer), and must
    /// not be retired twice.
    pub unsafe fn defer_destroy<T>(&self, shared: Shared<'_, T>) {
        let ptr = shared.ptr;
        debug_assert!(!ptr.is_null(), "defer_destroy of null");
        unsafe fn drop_box<T>(p: *mut u8) {
            // SAFETY: `p` was produced by `Box::into_raw` for a `T`.
            drop(unsafe { Box::from_raw(p as *mut T) });
        }
        if self.seq.is_none() {
            // Unprotected guard: the caller asserts exclusive access, so the
            // object can be dropped immediately.
            // SAFETY: per this function's contract plus `unprotected`'s.
            unsafe { drop_box::<T>(ptr as *mut u8) };
            return;
        }
        let mut reg = REGISTRY.lock().unwrap();
        let seq = reg.next_seq;
        reg.next_seq += 1;
        reg.garbage.push((
            seq,
            Garbage {
                ptr: ptr as *mut u8,
                drop_fn: drop_box::<T>,
            },
        ));
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(seq) = self.seq else { return };
        let freed = {
            let mut reg = REGISTRY.lock().unwrap();
            match reg.active.get_mut(&seq) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    reg.active.remove(&seq);
                }
            }
            collect(&mut reg)
        };
        run_drops(freed);
    }
}

/// Pins the current thread, returning a guard under whose protection shared
/// pointers may be dereferenced.
pub fn pin() -> Guard {
    let mut reg = REGISTRY.lock().unwrap();
    let seq = reg.next_seq;
    reg.next_seq += 1;
    *reg.active.entry(seq).or_insert(0) += 1;
    Guard { seq: Some(seq) }
}

/// Returns a guard that performs no pinning.
///
/// # Safety
///
/// The caller must guarantee exclusive access to the data structure (no
/// concurrent readers or writers), as in `Drop` implementations.
pub unsafe fn unprotected() -> &'static Guard {
    static UNPROTECTED: Guard = Guard { seq: None };
    &UNPROTECTED
}

/// A heap-owned pointer, analogous to `Box<T>`, not yet shared.
pub struct Owned<T> {
    ptr: *mut T,
    _marker: PhantomData<T>,
}

impl<T> Owned<T> {
    /// Allocates `value` on the heap.
    pub fn new(value: T) -> Self {
        Self {
            ptr: Box::into_raw(Box::new(value)),
            _marker: PhantomData,
        }
    }

    /// Converts the owned pointer into a [`Shared`] tied to `guard`.
    #[allow(clippy::needless_lifetimes)]
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        let ptr = self.ptr;
        std::mem::forget(self);
        Shared {
            ptr,
            _marker: PhantomData,
        }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: an `Owned` uniquely owns its allocation.
        drop(unsafe { Box::from_raw(self.ptr) });
    }
}

impl<T> std::ops::Deref for Owned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: `Owned` uniquely owns a valid allocation.
        unsafe { &*self.ptr }
    }
}

impl<T> std::ops::DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, with unique ownership.
        unsafe { &mut *self.ptr }
    }
}

/// A pointer to a shared object, valid while its guard is alive.
pub struct Shared<'g, T> {
    ptr: *const T,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null shared pointer.
    pub fn null() -> Self {
        Self {
            ptr: ptr::null(),
            _marker: PhantomData,
        }
    }

    /// `true` if the pointer is null.
    pub fn is_null(&self) -> bool {
        self.ptr.is_null()
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and the object alive (protected by the
    /// guard this `Shared` was loaded under).
    pub unsafe fn deref(&self) -> &'g T {
        // SAFETY: per this function's contract.
        unsafe { &*self.ptr }
    }

    /// Converts to a reference, or `None` if null.
    ///
    /// # Safety
    ///
    /// If non-null, the object must be alive, as for [`Shared::deref`].
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        // SAFETY: per this function's contract.
        unsafe { self.ptr.as_ref() }
    }

    /// Takes back ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must have exclusive access: the pointer must no longer be
    /// reachable by any other thread, and must not have been retired.
    pub unsafe fn into_owned(self) -> Owned<T> {
        Owned {
            ptr: self.ptr as *mut T,
            _marker: PhantomData,
        }
    }
}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        ptr::eq(self.ptr, other.ptr)
    }
}

impl<T> Eq for Shared<'_, T> {}

/// Pointer types that can be installed into an [`Atomic`].
pub trait Pointer<T> {
    /// Extracts the raw pointer, transferring ownership to the caller.
    fn into_ptr(self) -> *mut T;

    /// Rebuilds the pointer type from a raw pointer.
    ///
    /// # Safety
    ///
    /// `raw` must have come from `into_ptr` of the same implementor, with
    /// ownership still unclaimed.
    unsafe fn from_ptr(raw: *mut T) -> Self;
}

impl<T> Pointer<T> for Owned<T> {
    fn into_ptr(self) -> *mut T {
        let p = self.ptr;
        std::mem::forget(self);
        p
    }

    unsafe fn from_ptr(raw: *mut T) -> Self {
        Owned {
            ptr: raw,
            _marker: PhantomData,
        }
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_ptr(self) -> *mut T {
        self.ptr as *mut T
    }

    unsafe fn from_ptr(raw: *mut T) -> Self {
        Shared {
            ptr: raw,
            _marker: PhantomData,
        }
    }
}

/// The error of a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value the atomic actually held.
    pub current: Shared<'g, T>,
    /// The value that failed to install, returned to the caller.
    pub new: P,
}

/// An atomic pointer into an epoch-protected structure.
pub struct Atomic<T> {
    inner: AtomicPtr<T>,
}

// SAFETY: `Atomic` is a shared pointer cell; the pointed-to data is only
// handed out under the crate's guard discipline. Mirrors upstream's impls.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A null atomic pointer.
    pub fn null() -> Self {
        Self {
            inner: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Loads the pointer under `guard`'s protection.
    #[allow(clippy::needless_lifetimes)]
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            ptr: self.inner.load(ord),
            _marker: PhantomData,
        }
    }

    /// Stores `new`, transferring its ownership into the structure.
    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.inner.store(new.into_ptr(), ord);
    }

    /// Compare-and-exchange: installs `new` if the current value is
    /// `current`; on failure returns the observed value and gives `new`
    /// back.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_ptr = new.into_ptr();
        match self
            .inner
            .compare_exchange(current.ptr as *mut T, new_ptr, success, failure)
        {
            Ok(_) => Ok(Shared {
                ptr: new_ptr,
                _marker: PhantomData,
            }),
            Err(observed) => Err(CompareExchangeError {
                current: Shared {
                    ptr: observed,
                    _marker: PhantomData,
                },
                // SAFETY: `new_ptr` came from `new.into_ptr()` above and was
                // not installed, so ownership returns to the caller.
                new: unsafe { P::from_ptr(new_ptr) },
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    /// The registry is process-global: a guard another test holds keeps
    /// `min_active` below a retirement, so no test here may pin while
    /// another runs. Each takes this first.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    struct Counted(#[allow(dead_code)] u64);

    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn defer_destroy_runs_after_guards_drop() {
        let _serial = serial();
        let a: Atomic<Counted> = Atomic::null();
        let g1 = pin();
        a.store(Owned::new(Counted(1)), Ordering::SeqCst);
        let before = DROPS.load(Ordering::SeqCst);
        let p = a.load(Ordering::SeqCst, &g1);
        // Unlink and retire while a second, earlier-style guard is live.
        let g2 = pin();
        a.store(Shared::null(), Ordering::SeqCst);
        unsafe { g2.defer_destroy(p) };
        assert_eq!(DROPS.load(Ordering::SeqCst), before, "freed too early");
        drop(g2);
        // g1 predates the retirement, so the node must still be alive.
        assert_eq!(DROPS.load(Ordering::SeqCst), before, "freed under g1");
        drop(g1);
        // A fresh pin/unpin cycle triggers collection.
        drop(pin());
        assert_eq!(DROPS.load(Ordering::SeqCst), before + 1);
    }

    #[test]
    fn compare_exchange_returns_new_on_failure() {
        let _serial = serial();
        let g = pin();
        let a: Atomic<u64> = Atomic::null();
        a.store(Owned::new(1), Ordering::SeqCst);
        let cur = a.load(Ordering::SeqCst, &g);
        let lost = a.compare_exchange(
            Shared::null(),
            Owned::new(2),
            Ordering::SeqCst,
            Ordering::SeqCst,
            &g,
        );
        let err = lost.err().expect("must fail");
        assert!(err.current == cur);
        drop(err.new); // returned allocation freed normally
                       // Clean up the stored node.
        let p = a.load(Ordering::SeqCst, &g);
        a.store(Shared::null(), Ordering::SeqCst);
        drop(unsafe { p.into_owned() });
    }

    #[test]
    fn concurrent_pin_defer_smoke() {
        let _serial = serial();
        let a = Arc::new(Atomic::<u64>::null());
        a.store(Owned::new(0), Ordering::SeqCst);
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let a = Arc::clone(&a);
            joins.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    let g = pin();
                    let cur = a.load(Ordering::SeqCst, &g);
                    let new = Owned::new(t * 1000 + i);
                    if let Ok(installed) =
                        a.compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst, &g)
                    {
                        let _ = installed;
                        if !cur.is_null() {
                            unsafe { g.defer_destroy(cur) };
                        }
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let g = pin();
        let last = a.load(Ordering::SeqCst, &g);
        a.store(Shared::null(), Ordering::SeqCst);
        if !last.is_null() {
            unsafe { g.defer_destroy(last) };
        }
    }
}
