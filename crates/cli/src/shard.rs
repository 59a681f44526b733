//! Worker-shard partitioning with work-stealing for `bosim serve`.
//!
//! The pending job list is dealt round-robin across `shards` deques
//! ([`ShardQueues::partition`]), so every shard starts with an even
//! slice of the (benchmark × arm) grid. Each shard pops its own deque
//! from the front; when it runs dry it steals from the *back* of the
//! first non-empty victim in a deterministic scan order
//! ([`ShardQueues::next`]). Stealing from the back keeps a straggler
//! shard working the front of its own queue while idle shards drain its
//! tail — an mcf-like benchmark that runs far longer than its
//! neighbours no longer serializes the sweep's tail behind one worker.
//!
//! Which shard runs which job is *scheduling*, not *semantics*: every
//! completed job becomes the same journal row wherever it ran, and the
//! report is assembled from rows by job index, so work stealing cannot
//! perturb the final report bytes.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One pending job handed to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardJob {
    /// Job index into the plan's job list.
    pub job: usize,
    /// True when the job came from another shard's deque.
    pub stolen: bool,
}

/// Per-shard pending-job deques with work-stealing. See the [module
/// docs](self).
pub struct ShardQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl ShardQueues {
    /// Deals `pending` round-robin across `shards` deques (at least
    /// one), preserving plan order within each shard.
    pub fn partition(pending: &[usize], shards: usize) -> ShardQueues {
        let shards = shards.max(1);
        let mut queues: Vec<VecDeque<usize>> = (0..shards).map(|_| VecDeque::new()).collect();
        for (i, &job) in pending.iter().enumerate() {
            queues[i % shards].push_back(job);
        }
        ShardQueues {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The next job for `shard`: its own front, else the back of the
    /// first non-empty victim scanning `shard+1, shard+2, ...`
    /// round-robin. `None` means every deque is empty and the shard can
    /// retire.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn next(&self, shard: usize) -> Option<ShardJob> {
        assert!(shard < self.queues.len(), "shard {shard} out of range");
        let own = {
            // bosim-lint: allow(P002, deque mutexes guard plain pop operations that cannot panic)
            let mut q = self.queues[shard].lock().expect("shard deque poisoned");
            q.pop_front()
        };
        if let Some(job) = own {
            return Some(ShardJob { job, stolen: false });
        }
        for step in 1..self.queues.len() {
            let victim = (shard + step) % self.queues.len();
            // bosim-lint: allow(P002, deque mutexes guard plain pop operations that cannot panic)
            let mut q = self.queues[victim].lock().expect("shard deque poisoned");
            if let Some(job) = q.pop_back() {
                return Some(ShardJob { job, stolen: true });
            }
        }
        None
    }

    /// Jobs still queued across all shards (racy under concurrency;
    /// exact once workers stop).
    pub fn remaining(&self) -> usize {
        self.queues
            .iter()
            // bosim-lint: allow(P002, deque mutexes guard plain len reads that cannot panic)
            .map(|q| q.lock().expect("shard deque poisoned").len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_types::SplitMix64;
    use std::collections::BTreeSet;

    #[test]
    fn partition_deals_round_robin() {
        let q = ShardQueues::partition(&[0, 1, 2, 3, 4], 2);
        assert_eq!(q.shards(), 2);
        assert_eq!(q.remaining(), 5);
        // Shard 0 gets 0,2,4 in order; shard 1 gets 1,3.
        let mut own0 = Vec::new();
        for _ in 0..3 {
            let j = q.next(0).unwrap();
            assert!(!j.stolen);
            own0.push(j.job);
        }
        assert_eq!(own0, [0, 2, 4]);
        // Shard 0 now steals from shard 1's back.
        let s = q.next(0).unwrap();
        assert!(s.stolen);
        assert_eq!(s.job, 3);
        assert_eq!(
            q.next(1).unwrap(),
            ShardJob {
                job: 1,
                stolen: false
            }
        );
        assert_eq!(q.next(0), None);
        assert_eq!(q.next(1), None);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let q = ShardQueues::partition(&[7, 8], 0);
        assert_eq!(q.shards(), 1);
        assert_eq!(
            q.next(0),
            Some(ShardJob {
                job: 7,
                stolen: false
            })
        );
    }

    #[test]
    fn every_job_runs_exactly_once_under_any_interleaving() {
        // Property: random interleavings of shard pops — the model of
        // arbitrary host scheduling, including heavy stealing — always
        // dispense each job exactly once, for any shard count.
        let jobs: Vec<usize> = (0..23).collect();
        let mut rng = SplitMix64::new(0xdada);
        for shards in [1, 2, 3, 5, 8] {
            for trial in 0..20 {
                let q = ShardQueues::partition(&jobs, shards);
                let mut seen = BTreeSet::new();
                let mut live: Vec<usize> = (0..shards).collect();
                while !live.is_empty() {
                    let pick = (rng.next_u64() % live.len() as u64) as usize;
                    let shard = live[pick];
                    match q.next(shard) {
                        Some(j) => {
                            assert!(
                                seen.insert(j.job),
                                "shards {shards} trial {trial}: job {} dispensed twice",
                                j.job
                            );
                        }
                        None => {
                            live.remove(pick);
                        }
                    }
                }
                assert_eq!(seen.len(), jobs.len(), "shards {shards} trial {trial}");
                assert_eq!(q.remaining(), 0);
            }
        }
    }

    #[test]
    fn concurrent_shards_dispense_disjoint_jobs() {
        let jobs: Vec<usize> = (0..200).collect();
        let q = ShardQueues::partition(&jobs, 4);
        let taken: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|me| {
                    let q = &q;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(j) = q.next(me) {
                            mine.push(j.job);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = taken.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, jobs, "each job exactly once across all shards");
    }
}
