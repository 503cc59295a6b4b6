//! Offline stand-in for the `parking_lot` crate (see `crates/shims/README.md`).
//!
//! Wraps `std::sync` primitives behind `parking_lot`'s panic-free API:
//! like the real crate, locks are not poisoned — a panic while holding a
//! guard leaves the data accessible, which the map-reduce engine relies on
//! when it isolates panicking task attempts with `catch_unwind`.

#![forbid(unsafe_code)]

use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual exclusion primitive (subset of `parking_lot::Mutex`).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the underlying data.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the mutex if that needs no waiting; `None` while another
    /// thread holds it.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the underlying data (no locking;
    /// exclusive access is guaranteed by `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

/// A reader-writer lock (subset of `parking_lot::RwLock`).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the underlying data.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> From<T> for RwLock<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn try_lock_fails_only_while_held() {
        let m = Mutex::new(1);
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        assert_eq!(m.try_lock().map(|g| *g), Some(1));
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn lock_survives_panicking_holder() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: no poisoning.
        assert_eq!(*m.lock(), 0);
    }
}
