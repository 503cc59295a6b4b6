//! The serving tier's one fixed set of worker threads.
//!
//! [`Pool::start`] is the only place the server creates a thread. The pool
//! belongs to the loop thread, which alone submits jobs and alone hears of
//! their results, so who is idle and what is queued are plain fields: no
//! lock, nothing parked. The bounded queue is the admission queue: a job
//! offered when every worker is busy and the queue is full comes straight
//! back. Idle workers are handed work most-recently-idle first: a trickle
//! of misses keeps one worker — one stack, one malloc arena — warm, where
//! a shared FIFO receiver walks every worker through every arena.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Sender};
use std::thread::{self, JoinHandle};

/// A unit of work producing a `T` for the pool's `deliver` callback.
pub(crate) type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// `workers` threads with at most `max_queue` jobs waiting behind them.
/// Dropping the pool drops what is still queued and joins the threads.
pub(crate) struct Pool<T> {
    /// Each worker's handoff channel.
    handoff: Vec<Sender<Job<T>>>,
    threads: Vec<JoinHandle<()>>,
    /// Idle workers, most recently idle last.
    idle: Vec<usize>,
    /// Jobs waiting for a worker, oldest first.
    queue: VecDeque<Job<T>>,
    max_queue: usize,
}

impl<T: Send + 'static> Pool<T> {
    /// Spawns the workers, all idle. Each runs the jobs it is handed and
    /// passes `deliver` its own index with every result.
    pub fn start(
        workers: usize,
        max_queue: usize,
        deliver: impl Fn(usize, T) + Send + Clone + 'static,
    ) -> Self {
        let spawn = |me| {
            let (handoff, jobs) = channel::<Job<T>>();
            let deliver = deliver.clone();
            let run = move || jobs.iter().for_each(|job| deliver(me, job()));
            (handoff, thread::spawn(run))
        };
        let (handoff, threads): (Vec<_>, Vec<_>) = (0..workers).map(spawn).unzip();
        Self {
            idle: (0..threads.len()).collect(),
            queue: VecDeque::new(),
            handoff,
            threads,
            max_queue,
        }
    }

    /// Hands `job` to the most recently idle worker, or queues it behind
    /// the busy ones; a full queue returns it.
    pub fn submit(&mut self, job: Job<T>) -> Result<(), Job<T>> {
        match self.idle.pop() {
            Some(worker) => self.hand(worker, job),
            None if self.queue.len() >= self.max_queue => return Err(job),
            None => self.queue.push_back(job),
        }
        Ok(())
    }

    /// `worker`'s result has arrived: it takes the oldest queued job, or
    /// is idle again.
    pub fn finished(&mut self, worker: usize) {
        match self.queue.pop_front() {
            Some(job) => self.hand(worker, job),
            None => self.idle.push(worker),
        }
    }

    /// `(busy workers, queued jobs)` right now.
    pub fn load(&self) -> (usize, usize) {
        (self.threads.len() - self.idle.len(), self.queue.len())
    }

    fn hand(&self, worker: usize, job: Job<T>) {
        // A worker hangs up only by dying, and jobs catch their panics.
        self.handoff[worker].send(job).expect("worker is alive");
    }
}

impl<T> Drop for Pool<T> {
    fn drop(&mut self) {
        self.handoff.clear();
        for thread in self.threads.drain(..) {
            // Nobody is left to hear of a worker that died.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    fn whoami() -> Job<ThreadId> {
        Box::new(|| thread::current().id())
    }

    #[test]
    fn sequential_jobs_reuse_one_worker_and_overlapping_jobs_take_two() {
        let (tx, rx) = mpsc::channel();
        let mut pool = Pool::start(3, 0, move |worker, id| {
            tx.send((worker, id)).expect("test is listening");
        });

        // The worker whose result just arrived is the most recently idle,
        // so it is the next one handed work.
        assert!(pool.submit(whoami()).is_ok());
        let (worker, first) = rx.recv().unwrap();
        pool.finished(worker);
        for _ in 0..2 {
            assert!(pool.submit(whoami()).is_ok());
            assert_eq!(rx.recv().unwrap(), (worker, first));
            pool.finished(worker);
        }

        // A job held open on that worker sends the next one elsewhere.
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let held: Job<ThreadId> = Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            thread::current().id()
        });
        assert!(pool.submit(held).is_ok());
        started_rx.recv().unwrap();
        assert_eq!(pool.load(), (1, 0));
        assert!(pool.submit(whoami()).is_ok());
        let (other_worker, other) = rx.recv().unwrap();
        assert!(other_worker != worker && other != first);
        release_tx.send(()).unwrap();
        assert_eq!(rx.recv().unwrap(), (worker, first));
    }

    #[test]
    fn a_full_queue_returns_the_job_and_queued_jobs_run_in_order() {
        let (tx, rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let mut pool = Pool::start(1, 2, move |_, n| tx.send(n).expect("test is listening"));
        // Whether or not its thread has booted yet: handed off, not queued.
        let held: Job<u32> = Box::new(move || {
            release_rx.recv().unwrap();
            0
        });
        assert!(pool.submit(held).is_ok());
        for n in 1..=2 {
            assert!(pool.submit(Box::new(move || n)).is_ok());
        }
        assert_eq!(pool.load(), (1, 2));
        assert!(pool.submit(Box::new(|| 3)).is_err(), "the queue holds two");
        release_tx.send(()).unwrap();
        for n in 0..3 {
            assert_eq!(rx.recv(), Ok(n));
            pool.finished(0);
        }
        assert_eq!(pool.load(), (0, 0));
    }
}
