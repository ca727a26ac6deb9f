//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to a crates.io registry, so the
//! workspace vendors the tiny slice of the `parking_lot` API it uses as a
//! wrapper over `std::sync`. Poisoning is collapsed into the inner value
//! (`parking_lot` locks do not poison): a panic while holding the lock
//! propagates the panic to the next acquirer.
#![deny(unsafe_code)]

use std::sync::{
    Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard, RwLockWriteGuard,
};

/// A reader-writer lock with the `parking_lot::RwLock` API.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(StdRwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        RwLock(StdRwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A mutual-exclusion lock with the `parking_lot::Mutex` API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex(StdMutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> StdMutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn mutex_lock() {
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }
}
