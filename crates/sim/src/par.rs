//! Independent worlds in parallel. One world cannot be split across
//! threads (DESIGN.md §13), but a sweep is a list of worlds that share
//! nothing: each point builds its `Rc`-based world inside the worker
//! that runs it, drops it there, and hands back plain results.

use std::thread;

/// `items.iter().map(f).collect()` over `available_parallelism`
/// workers, worker `w` taking items `w`, `w + workers`, … (sweeps list
/// their points light to heavy, so striding shares the heavy end out).
/// Results come back in item order, so the output — and any artifact
/// rendered from it — does not depend on how many workers ran. A panic
/// in `f` resumes on the caller.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = thread::available_parallelism().map_or(1, |n| n.get()).min(items.len()).max(1);
    let f = &f;
    let mut strides: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || items.iter().skip(w).step_by(workers).map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)).into_iter())
            .collect()
    });
    (0..items.len()).map(|i| strides[i % workers].next().expect("one result per item")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_placed_by_item_index() {
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(par_map(&items, |&n| n * n), items.iter().map(|&n| n * n).collect::<Vec<_>>());
        assert_eq!(par_map(&[] as &[u64], |&n| n), Vec::<u64>::new());
    }

    #[test]
    #[should_panic(expected = "point 3 broke")]
    fn a_panicking_item_panics_the_caller() {
        par_map(&[1u64, 2, 3, 4], |&n| assert!(n != 3, "point {n} broke"));
    }
}
