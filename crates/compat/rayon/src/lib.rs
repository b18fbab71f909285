//! Offline stand-in for `rayon`.
//!
//! The workspace builds without network access, so the data-parallel
//! subset it uses — `into_par_iter().map().collect()`,
//! `par_iter().for_each()`, `par_chunks().fold().reduce()` and
//! `ThreadPoolBuilder::new().num_threads(n).build()?.install(..)` — is
//! reimplemented here on `std::thread::scope`. Semantics match rayon for
//! that subset: `map`/`collect` preserve input order, `fold` produces one
//! accumulator per worker, `reduce` combines them deterministically
//! (worker order), and panics propagate to the caller.
//!
//! Unlike rayon there is no resident pool: each combinator spawns scoped
//! threads for its own duration. `map` hands items out one at a time from
//! a shared queue (a slow item never strands the rest behind it); `fold`
//! splits its input into contiguous slabs, so its accumulators do not
//! depend on timing. Every spawned worker holds one **token**, and a
//! worker gives its token back as soon as the queue is empty, so nested
//! parallelism still running (the DP's fork–join over hierarchy siblings,
//! a model sink's flush inside an ingest task) can use it. Tokens come
//! from a global budget, or — inside [`ThreadPool::install`] — from that
//! pool's own budget, which caps the call at the pool's thread count.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Items of the canonical prelude, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelIterator, ParallelSlice,
    };
}

// ---------------------------------------------------------------------------
// Thread budget
// ---------------------------------------------------------------------------

static BUDGET: OnceLock<AtomicUsize> = OnceLock::new();
/// Explicit concurrency override (0 = unset): total threads, so the token
/// budget is `override − 1` (the caller's thread is always a worker).
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);
/// Capacity the live budget was initialized/adjusted to (worker tokens).
static CAPACITY: AtomicUsize = AtomicUsize::new(0);
/// Tokens still to be reclaimed after a capacity shrink that found them
/// checked out: released tokens pay this debt before refilling the pool,
/// so `budget + outstanding − debt == capacity` holds at all times.
static DEBT: AtomicUsize = AtomicUsize::new(0);

/// Reduce [`DEBT`] by up to `amount`; returns how much was actually paid.
fn pay_debt(amount: usize) -> usize {
    let mut paid = 0;
    let _ = DEBT.fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
        paid = d.min(amount);
        Some(d - paid)
    });
    paid
}

/// Worker-token budget for a configured thread count (pure; unit-tested).
/// `configured` is the total concurrency (`--threads N` / `OCELOTL_THREADS`),
/// so `N = 1` means fully sequential (zero extra workers); unset falls back
/// to two tokens per core (spares keep nested fork–join levels busy).
fn tokens_for(configured: Option<usize>, cores: usize) -> usize {
    match configured {
        Some(n) => n.max(1) - 1,
        None => 2 * cores,
    }
}

fn configured_threads() -> Option<usize> {
    let explicit = CONFIGURED.load(Ordering::Acquire);
    if explicit > 0 {
        return Some(explicit);
    }
    std::env::var("OCELOTL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

fn budget() -> &'static AtomicUsize {
    BUDGET.get_or_init(|| {
        let tokens = tokens_for(configured_threads(), cores());
        CAPACITY.store(tokens, Ordering::Release);
        AtomicUsize::new(tokens)
    })
}

/// Cap the executor at `n` total threads (`n = 1` disables parallelism).
/// The `OCELOTL_THREADS` environment variable has the same effect; this
/// function takes precedence. Call before issuing parallel work — an
/// adjustment while parallel operations are in flight takes effect as
/// their tokens are released.
pub fn set_max_threads(n: usize) {
    let n = n.max(1);
    CONFIGURED.store(n, Ordering::Release);
    if let Some(b) = BUDGET.get() {
        // Adjust the live pool by the capacity delta so tokens currently
        // checked out stay correctly accounted.
        let new_cap = n - 1;
        let old_cap = CAPACITY.swap(new_cap, Ordering::AcqRel);
        if new_cap >= old_cap {
            // Grow: cancel pending reclamation first, then top up the pool.
            let grow = new_cap - old_cap;
            let canceled = pay_debt(grow);
            b.fetch_add(grow - canceled, Ordering::AcqRel);
        } else {
            // Shrink: drain what the pool has; the remainder becomes debt
            // that released tokens pay off before refilling the pool.
            let mut unpaid = old_cap - new_cap;
            let _ = b.fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                let take = cur.min(old_cap - new_cap);
                unpaid = (old_cap - new_cap) - take;
                Some(cur - take)
            });
            if unpaid > 0 {
                DEBT.fetch_add(unpaid, Ordering::AcqRel);
            }
        }
    }
}

/// The configured total concurrency: the explicit/env override if any,
/// else the default sizing for this machine.
pub fn max_threads() -> usize {
    if BUDGET.get().is_some() {
        return CAPACITY.load(Ordering::Acquire) + 1;
    }
    tokens_for(configured_threads(), cores()) + 1
}

/// Take up to `want` tokens from `b`; returns how many were granted.
fn take(b: &AtomicUsize, want: usize) -> usize {
    let mut cur = b.load(Ordering::Relaxed);
    loop {
        let take = want.min(cur);
        if take == 0 {
            return 0;
        }
        match b.compare_exchange_weak(cur, cur - take, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return take,
            Err(now) => cur = now,
        }
    }
}

/// Try to take up to `want` global worker tokens.
fn acquire_workers(want: usize) -> usize {
    take(budget(), want)
}

fn release_workers(n: usize) {
    if n > 0 {
        // Pay down any capacity-shrink debt before refilling the pool.
        let paid = pay_debt(n);
        if n > paid {
            budget().fetch_add(n - paid, Ordering::AcqRel);
        }
    }
}

/// Token budget of one [`ThreadPool`]: `num_threads − 1` worker tokens.
type PoolTokens = Arc<AtomicUsize>;

thread_local! {
    /// The pool whose `install` this thread runs inside, if any.
    static POOL: RefCell<Option<PoolTokens>> = const { RefCell::new(None) };
}

fn current_pool() -> Option<PoolTokens> {
    POOL.with(|p| p.borrow().clone())
}

/// Run `op` with `pool` as this thread's token source, restoring the
/// previous source afterwards (also when `op` unwinds).
fn with_pool<R>(pool: Option<PoolTokens>, op: impl FnOnce() -> R) -> R {
    struct Restore(Option<PoolTokens>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            POOL.with(|p| *p.borrow_mut() = prev);
        }
    }
    let _restore = Restore(POOL.with(|p| p.replace(pool)));
    op()
}

/// One checked-out worker token. Returning it on `Drop` keeps the budget
/// intact even when a worker panic unwinds through the caller (e.g. under
/// `#[should_panic]` or `catch_unwind`), so later parallel work is not
/// silently degraded to sequential execution.
struct Token(Option<PoolTokens>);

impl Drop for Token {
    fn drop(&mut self) {
        match &self.0 {
            Some(pool) => {
                pool.fetch_add(1, Ordering::AcqRel);
            }
            None => release_workers(1),
        }
    }
}

/// Check out up to `want` tokens from this thread's pool, or from the
/// global budget outside any pool.
fn acquire(want: usize) -> Vec<Token> {
    let pool = current_pool();
    let got = match &pool {
        Some(p) => take(p, want),
        None => acquire_workers(want),
    };
    (0..got).map(|_| Token(pool.clone())).collect()
}

// ---------------------------------------------------------------------------
// Core executor
// ---------------------------------------------------------------------------

/// Split `items` into at most `parts` contiguous slabs (all non-empty).
fn slabs<T>(mut items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    // Drain from the back to avoid repeated shifts; reverse at the end.
    for k in 0..parts {
        let take = base + usize::from(k < extra);
        let at = items.len() - take;
        out.push(items.split_off(at));
    }
    out.reverse();
    out
}

/// Order-preserving parallel map over owned items. The caller's thread
/// and one worker per acquired token pull items from a shared queue; a
/// worker returns its token as soon as the queue is empty.
fn run_map<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let tokens = acquire(items.len().saturating_sub(1));
    if tokens.is_empty() {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let drain = |token: Option<Token>| {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else { break };
            done.push((i, f(item)));
        }
        drop(token);
        done
    };
    let drain = &drain;
    let pool = current_pool();
    let mut done = std::thread::scope(|s| {
        let handles: Vec<_> = tokens
            .into_iter()
            .map(|token| {
                let pool = pool.clone();
                s.spawn(move || with_pool(pool, || drain(Some(token))))
            })
            .collect();
        let mut done = drain(None);
        for h in handles {
            match h.join() {
                Ok(part) => done.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Parallel fold: one accumulator per slab, in slab order.
fn run_fold<T, Acc, Init, F>(items: Vec<T>, init: &Init, f: &F) -> Vec<Acc>
where
    T: Send,
    Acc: Send,
    Init: Fn() -> Acc + Sync,
    F: Fn(Acc, T) -> Acc + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let tokens = acquire(items.len() - 1);
    let mut parts = slabs(items, tokens.len() + 1);
    let own = parts.remove(0);
    let fold_slab = |slab: Vec<T>| slab.into_iter().fold(init(), f);
    let fold_slab = &fold_slab;
    let pool = current_pool();
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .zip(tokens)
            .map(|(slab, token)| {
                let pool = pool.clone();
                s.spawn(move || {
                    let acc = with_pool(pool, || fold_slab(slab));
                    drop(token);
                    acc
                })
            })
            .collect();
        let mut accs = vec![fold_slab(own)];
        for h in handles {
            match h.join() {
                Ok(acc) => accs.push(acc),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        accs
    })
}

// ---------------------------------------------------------------------------
// Thread pools
// ---------------------------------------------------------------------------

/// Configures a [`ThreadPool`] (`rayon::ThreadPoolBuilder`).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default size (one thread per available core).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total threads of the pool, the installing thread included; `0`
    /// means one per available core.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Create the pool. The stand-in spawns no resident threads, so this
    /// never fails.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads > 0 {
            self.num_threads
        } else {
            cores()
        };
        Ok(ThreadPool {
            tokens: Arc::new(AtomicUsize::new(threads - 1)),
        })
    }
}

/// Why [`ThreadPoolBuilder::build`] failed (`rayon::ThreadPoolBuildError`).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the thread pool could not be built")
    }
}

/// A bounded executor (`rayon::ThreadPool`): parallel work run inside
/// [`ThreadPool::install`], nested work included, uses at most
/// `num_threads` threads, drawn from the pool's own tokens instead of the
/// global budget.
#[derive(Debug)]
pub struct ThreadPool {
    tokens: PoolTokens,
}

impl ThreadPool {
    /// Run `op` inside the pool.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        with_pool(Some(Arc::clone(&self.tokens)), op)
    }
}

// ---------------------------------------------------------------------------
// Public iterator type
// ---------------------------------------------------------------------------

/// An eager "parallel iterator": the materialized items awaiting a
/// consuming combinator.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// Consuming combinators, mirroring the used subset of
/// `rayon::iter::ParallelIterator`.
pub trait ParallelIterator: Sized {
    /// Item type.
    type Item: Send;

    /// Into the backing items (implementation detail of the shim).
    fn into_items(self) -> Vec<Self::Item>;

    /// Parallel order-preserving map.
    fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        ParIter {
            items: run_map(self.into_items(), &f),
        }
    }

    /// Parallel side-effecting visit.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        run_map(self.into_items(), &|item| f(item));
    }

    /// Parallel fold into one accumulator per worker slab.
    fn fold<Acc, Init, F>(self, init: Init, f: F) -> ParIter<Acc>
    where
        Acc: Send,
        Init: Fn() -> Acc + Sync,
        F: Fn(Acc, Self::Item) -> Acc + Sync,
    {
        ParIter {
            items: run_fold(self.into_items(), &init, &f),
        }
    }

    /// Combine all items pairwise, starting from `init()` (sequential,
    /// deterministic slab order).
    fn reduce<Init, Op>(self, init: Init, op: Op) -> Self::Item
    where
        Init: Fn() -> Self::Item,
        Op: Fn(Self::Item, Self::Item) -> Self::Item,
    {
        self.into_items().into_iter().fold(init(), op)
    }

    /// Collect into any container buildable from a `Vec` (order preserved).
    fn collect<C: From<Vec<Self::Item>>>(self) -> C {
        C::from(self.into_items())
    }

    /// Sum of the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.into_items().into_iter().sum()
    }
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn into_items(self) -> Vec<T> {
        self.items
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// By-value conversion into a parallel iterator (`rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Start a parallel pipeline over the items.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for Range<u32> {
    type Item = u32;

    fn into_par_iter(self) -> ParIter<u32> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// By-reference conversion (`rayon::iter::IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: Send;
    /// Start a parallel pipeline over borrowed items.
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

/// Chunked slice access (`rayon::slice::ParallelSlice`).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over non-overlapping chunks of `chunk_size`.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::budget;
    use super::prelude::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0usize..10_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 2);
        }
    }

    #[test]
    fn for_each_visits_every_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let data: Vec<u32> = (0..1000).collect();
        data.par_iter().for_each(|&x| {
            count.fetch_add(x as usize, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 1000 * 999 / 2);
    }

    #[test]
    fn fold_reduce_matches_sequential() {
        let data: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        let total = data
            .par_chunks(128)
            .fold(|| 0.0f64, |acc, chunk| acc + chunk.iter().sum::<f64>())
            .reduce(|| 0.0, |a, b| a + b);
        assert_eq!(total, (0..4096).sum::<i64>() as f64);
    }

    #[test]
    fn nested_parallelism_terminates() {
        let out: Vec<Vec<usize>> = (0usize..64)
            .into_par_iter()
            .map(|i| {
                (0usize..64)
                    .into_par_iter()
                    .map(move |j| i * 64 + j)
                    .collect()
            })
            .collect();
        assert_eq!(out.len(), 64);
        assert_eq!(out[63][63], 64 * 64 - 1);
    }

    #[test]
    fn budget_survives_worker_panics() {
        // A panic in parallel code must not leak worker tokens: afterwards
        // parallel execution still engages (regression test for the drop
        // guard in run_map/run_fold).
        for _ in 0..8 {
            let caught = std::panic::catch_unwind(|| {
                (0usize..256).into_par_iter().for_each(|i| {
                    if i == 200 {
                        panic!("deliberate");
                    }
                });
            });
            assert!(caught.is_err());
        }
        // All tokens must be back in the pool once the panics unwound.
        // (Other tests run concurrently and borrow tokens transiently, so
        // poll briefly instead of reading one instant.)
        let _ = budget();
        let mut seen = 0;
        for _ in 0..200 {
            seen = budget().load(Ordering::Acquire);
            if seen == super::CAPACITY.load(Ordering::Acquire) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(
            seen,
            super::CAPACITY.load(Ordering::Acquire),
            "worker tokens leaked across panics"
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        (0usize..1000).into_par_iter().for_each(|i| {
            if i == 977 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn capacity_shrink_with_outstanding_tokens_never_leaks() {
        // Check out tokens, shrink below what remains, release, restore:
        // the pool must settle back to exactly the configured capacity
        // (the shrink deficit is carried as debt, not dropped).
        let _ = budget();
        let original = super::CAPACITY.load(Ordering::Acquire);
        let got = super::acquire_workers(2);
        super::set_max_threads(1); // capacity -> 0 worker tokens
        super::release_workers(got); // pays the debt first
        super::set_max_threads(original + 1); // restore
        let mut seen = 0;
        for _ in 0..200 {
            seen = budget().load(Ordering::Acquire);
            if seen == super::CAPACITY.load(Ordering::Acquire) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(
            seen,
            super::CAPACITY.load(Ordering::Acquire),
            "budget must settle to capacity after shrink/release/restore"
        );
    }

    #[test]
    fn token_sizing_is_pure_and_clamped() {
        // Explicit N caps at N − 1 worker tokens; N = 0/1 go sequential.
        assert_eq!(super::tokens_for(Some(1), 8), 0);
        assert_eq!(super::tokens_for(Some(0), 8), 0);
        assert_eq!(super::tokens_for(Some(4), 8), 3);
        // Unset: two tokens per core.
        assert_eq!(super::tokens_for(None, 8), 16);
    }

    #[test]
    fn install_caps_concurrency_at_the_pool_size() {
        use std::sync::atomic::AtomicUsize;
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let out: Vec<usize> = pool.install(|| {
            (0usize..16)
                .into_par_iter()
                .map(|i| {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    // Nested work inside the pool draws on the same tokens.
                    let inner: usize = (0usize..4).into_par_iter().map(|j| j + i).sum();
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    active.fetch_sub(1, Ordering::SeqCst);
                    inner
                })
                .collect()
        });
        assert_eq!(out, (0..16).map(|i| 4 * i + 6).collect::<Vec<_>>());
        assert!(peak.load(Ordering::SeqCst) <= 2, "pool of 2 ran wider");
        assert_eq!(
            pool.tokens.load(Ordering::SeqCst),
            1,
            "every token returned"
        );
    }

    #[test]
    fn a_one_thread_pool_runs_on_the_caller() {
        let me = std::thread::current().id();
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let ids: Vec<_> = pool.install(|| {
            (0usize..8)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert!(ids.iter().all(|&id| id == me));
        assert!(
            super::current_pool().is_none(),
            "install restores the context"
        );
    }

    #[test]
    fn empty_inputs_are_fine() {
        let v: Vec<usize> = (0usize..0).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
        let total: f64 = Vec::<f64>::new()
            .par_iter()
            .fold(|| 0.0, |a, &b| a + b)
            .reduce(|| 0.0, |a, b| a + b);
        assert_eq!(total, 0.0);
    }
}
