//! Offline stand-in for `rayon`.
//!
//! Implements the subset of the rayon API the workspace uses — `par_iter`
//! / `into_par_iter`, `map`, `for_each`, `collect` — on top of
//! `std::thread::scope`. Work distribution is dynamic (an atomic cursor
//! over the item list, so slow items do not stall a whole chunk) and
//! results are written back by item index, which makes every terminal
//! operation **order-preserving**: output `i` always corresponds to input
//! `i`, regardless of thread count or interleaving. Combined with
//! per-index seed derivation in the callers, this yields bit-identical
//! results at any pool size.
//!
//! The `map` adaptor is eager rather than lazy: each `map` call runs one
//! parallel pass. Chained adaptors therefore cost one pass each, which is
//! irrelevant for the coarse-grained work (simulations, tree fits) this
//! workspace parallelizes.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::cell::Cell;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Per-thread override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The default width, resolved once per process. `available_parallelism`
/// reads cgroup and affinity state on every call (tens of microseconds on
/// Linux), which would dominate a small batched scoring call; real rayon
/// likewise sizes its global pool once.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Number of worker threads parallel operations on this thread will use:
/// the [`ThreadPool::install`] override when one is in effect, otherwise
/// the machine's available parallelism as resolved on first use.
pub fn current_num_threads() -> usize {
    let override_n = POOL_THREADS.with(Cell::get);
    if override_n > 0 {
        return override_n;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build`] (the shim cannot fail).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with the default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads (0 = use the default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A handle configuring how many threads parallel operations use.
///
/// The shim spawns scoped threads per operation instead of keeping a
/// resident pool; `install` only scopes the configured thread count.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count in effect on the calling
    /// thread (parallel operations started inside `op` use it).
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let previous = POOL_THREADS.with(|c| c.replace(self.num_threads));
        let result = op();
        POOL_THREADS.with(|c| c.set(previous));
        result
    }
}

/// Dynamic, order-preserving parallel map over owned items.
fn par_map_vec<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    let workers = current_num_threads().min(len);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Nested parallel operations inside a worker run inline:
                // the outer fan-out already owns the machine's parallelism,
                // and P×P thread spawns would only oversubscribe (this is
                // the shim's analogue of rayon running nested jobs on the
                // same pool).
                POOL_THREADS.with(|c| c.set(1));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .take()
                        .expect("item taken twice");
                    let out = f(item);
                    *results[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .expect("missing parallel result")
        })
        .collect()
}

/// An in-flight parallel iterator holding its items by value.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every item in parallel, preserving order.
    pub fn map<U: Send, F: Fn(T) -> U + Sync>(self, f: F) -> ParIter<U> {
        ParIter {
            items: par_map_vec(self.items, f),
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_map_vec(self.items, f);
    }

    /// Collects the items into `C` (order-preserving).
    pub fn collect<C: FromParIter<T>>(self) -> C {
        C::from_par_iter(self.items)
    }
}

/// Collection types constructible from a parallel iterator.
pub trait FromParIter<T>: Sized {
    /// Builds the collection from the (already ordered) items.
    fn from_par_iter(items: Vec<T>) -> Self;
}

impl<T> FromParIter<T> for Vec<T> {
    fn from_par_iter(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParIter<Result<T, E>> for Result<Vec<T>, E> {
    fn from_par_iter(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Conversion into a by-value parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for ParIter<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

/// Conversion of `&collection` into a parallel iterator over references.
pub trait IntoParallelRefIterator<'a> {
    /// Reference item type.
    type Item: Send;

    /// Parallel iterator over `&self`'s elements.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// The rayon prelude: the traits needed for `par_iter()` etc.
pub mod prelude {
    pub use crate::{
        FromParIter, IntoParallelIterator, IntoParallelRefIterator, ParIter, ParallelIterator,
    };
}

/// Alias trait so `use rayon::prelude::*` exposes a `ParallelIterator`
/// name, as callers migrating from real rayon expect.
pub trait ParallelIterator {}

impl<T> ParallelIterator for ParIter<T> {}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, ThreadPoolBuilder};

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn results_collect_into_result() {
        let ok: Result<Vec<usize>, String> = (0..10usize)
            .into_par_iter()
            .map(Ok::<usize, String>)
            .collect();
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());
        let err: Result<Vec<usize>, String> = (0..10usize)
            .into_par_iter()
            .map(|x| {
                if x == 5 {
                    Err("boom".to_string())
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn pool_sizes_give_identical_output() {
        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let a: Vec<u64> = serial.install(|| {
            (0..500u64)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|x| x.wrapping_mul(x))
                .collect()
        });
        let b: Vec<u64> = wide.install(|| {
            (0..500u64)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|x| x.wrapping_mul(x))
                .collect()
        });
        assert_eq!(a, b);
    }

    #[test]
    fn nested_parallelism_runs_inline_and_stays_correct() {
        let out: Vec<Vec<usize>> = (0..8usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|i| {
                (0..5usize)
                    .into_par_iter()
                    .map(move |j| i * 10 + j)
                    .collect()
            })
            .collect();
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(inner, &(0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn default_width_is_stable_across_calls() {
        let first = current_num_threads();
        assert!(first >= 1);
        for _ in 0..100 {
            assert_eq!(current_num_threads(), first);
        }
    }

    #[test]
    fn install_overrides_the_cached_width_and_restores_it() {
        let default = current_num_threads();
        let pool = ThreadPoolBuilder::new()
            .num_threads(default + 3)
            .build()
            .unwrap();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, default + 3);
        assert_eq!(current_num_threads(), default);
        // Nested installs restore the enclosing override, not the default.
        let outer = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let (during, after_inner) = outer.install(|| {
            let during = inner.install(current_num_threads);
            (during, current_num_threads())
        });
        assert_eq!((during, after_inner), (5, 2));
        assert_eq!(current_num_threads(), default);
    }

    #[test]
    fn nested_operations_inside_a_worker_see_width_one() {
        let wide = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let widths: Vec<usize> = wide.install(|| {
            (0..16usize)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert_eq!(widths, vec![1; 16]);
        // ... so a nested operation runs on the worker's own thread.
        let all_inline: Vec<bool> = wide.install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|_| {
                    let worker = std::thread::current().id();
                    let inner: Vec<std::thread::ThreadId> = (0..8usize)
                        .into_par_iter()
                        .map(|_| std::thread::current().id())
                        .collect();
                    inner.iter().all(|&id| id == worker)
                })
                .collect()
        });
        assert!(all_inline.iter().all(|&inline| inline));
        // The worker-local width does not leak back to the caller.
        assert_eq!(wide.install(current_num_threads), 4);
    }

    #[test]
    fn par_iter_over_slice_refs() {
        let data = vec![1, 2, 3, 4];
        let sum: Vec<i32> = data.par_iter().map(|&x| x + 1).collect();
        assert_eq!(sum, vec![2, 3, 4, 5]);
    }
}
