//! Scoped-thread parallel map for independent work items.
//!
//! The offline workspace has no `rayon`, so the figure, table and arena
//! sweeps use plain `std::thread::scope` workers pulling indices off a
//! shared atomic counter. Results come back in input order, so a
//! parallelized caller observes exactly the output the serial version
//! produced.
//!
//! Determinism note: every work item must be self-contained (scenario runs
//! own their `Simulation` and RNG), so worker threads change wall-clock
//! time only — never the numbers. `FG_BENCH_THREADS` pins the worker count
//! for reproducibility checks; it is read once, at the first
//! [`thread_count`] of the process.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker count: `FG_BENCH_THREADS` if set (and > 0), else the machine's
/// available parallelism, capped at the number of items.
///
/// Variable and machine are asked once per process: the probe opens the
/// affinity mask and the cgroup files.
pub fn thread_count(items: usize) -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    (*CONFIGURED.get_or_init(configured)).min(items.max(1))
}

/// The one place the worker count comes from the environment.
#[allow(clippy::disallowed_methods)] // resolved once per process, by `thread_count`
fn configured() -> usize {
    std::env::var("FG_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Maps `f` over `items` on scoped worker threads, preserving input order
/// in the returned vector.
///
/// Work is claimed dynamically (one shared counter), so a slow item — say
/// the 500 PPS flood in a rate sweep — doesn't leave the other workers
/// idle behind a static partition.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(thread_count(items.len()), items, f)
}

/// [`par_map`] with an explicit worker count (testable without env vars).
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut own = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(idx) else { break };
                        own.push((idx, f(item)));
                    }
                    own
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("par worker panicked"))
            .collect()
    });
    tagged.sort_by_key(|&(idx, _)| idx);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_and_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 4, 16] {
            let parallel = par_map_with(threads, &items, |&x| x * x + 1);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(8, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn none_or_one_item_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let on_caller = |_: &u32| assert_eq!(std::thread::current().id(), caller);
        par_map_with(8, &[], on_caller);
        par_map_with(8, &[7], on_caller);
    }

    #[test]
    fn worker_count_is_resolved_once() {
        let before = thread_count(usize::MAX);
        // Whatever the variable said when it was read, this is not it.
        std::env::set_var("FG_BENCH_THREADS", (before + 1).to_string());
        assert_eq!(thread_count(usize::MAX), before);
        assert_eq!(thread_count(1), 1);
        assert_eq!(thread_count(0), 1);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map_with(64, &items, |&x| x * 10), vec![10, 20, 30]);
    }
}
