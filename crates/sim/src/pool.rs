//! The one scoped worker pool of the workspace: the generator's search
//! shards, the sharded verify phase and the batch service layer all fan
//! indexed jobs out through [`run_indexed`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..jobs)` across up to `workers` scoped threads pulling from
/// a shared queue, collecting results **by index** — so the output is
/// identical to the inline `workers <= 1` path regardless of
/// scheduling. With one worker or at most one job, everything runs on
/// the calling thread and no thread is spawned. A panicking job
/// propagates to the caller once the scope joins.
pub fn run_indexed<T: Send>(jobs: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(jobs, || None);
    let slots = Mutex::new(slots);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= jobs {
                    break;
                }
                let out = f(k);
                slots.lock().expect("job slots lock")[k] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("job slots lock")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_worker_count() {
        for workers in [0usize, 1, 2, 8] {
            for jobs in [0usize, 1, 5, 33] {
                let out = run_indexed(jobs, workers, |k| k * k);
                assert_eq!(out, (0..jobs).map(|k| k * k).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        let _ = run_indexed(runs.len(), 4, |k| runs[k].fetch_add(1, Ordering::Relaxed));
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }
}
