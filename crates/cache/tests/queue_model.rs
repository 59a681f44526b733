//! Model-based tests of the two CAM-searched queues.
//!
//! `FillQueue` and `PrefetchQueue` keep a `LineIndex` beside their FIFO
//! order so associative searches are O(1). These tests drive each queue
//! with seeded random op sequences and mirror every op in a plain
//! `Vec`/`VecDeque` model whose searches are linear scans — the
//! obviously-correct reading of §5.4. After every op the queue's whole
//! observable state must match the model. Lines are drawn from a range of
//! about twice the capacity, so the index sees collisions, re-insertions
//! and backward-shift deletes on nearly every step.

use bosim_cache::{FillEntry, FillQueue, PrefetchQueue};
use bosim_types::{LineAddr, ReqClass, SplitMix64};
use std::collections::VecDeque;

/// Capacities under test: every small size, plus the paper's L2 (16)
/// and L3 (32) fill queues.
const CAPACITIES: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 16, 32];

/// Random ops per capacity.
const OPS: usize = 3_000;

/// One model fill-queue entry: (line, ready, class, payload).
type ModelEntry = (u64, bool, ReqClass, u32);

fn view(e: &FillEntry<u32>) -> ModelEntry {
    (e.line.0, e.is_ready(), e.class, e.payload)
}

/// The fill queue's reference model: entries in allocation order.
struct FillModel {
    cap: usize,
    entries: Vec<ModelEntry>,
}

impl FillModel {
    fn pos(&self, line: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == line)
    }
}

/// Compares every observable of `q` against the model.
fn check_fill(q: &FillQueue<u32>, m: &FillModel, lines: u64, ctx: &str) {
    assert_eq!(q.len(), m.entries.len(), "{ctx}: len");
    assert_eq!(q.is_empty(), m.entries.is_empty(), "{ctx}: is_empty");
    assert_eq!(q.is_full(), m.entries.len() >= m.cap, "{ctx}: is_full");
    assert_eq!(
        q.has_ready(),
        m.entries.iter().any(|e| e.1),
        "{ctx}: has_ready"
    );
    let order: Vec<ModelEntry> = q.iter().map(view).collect();
    assert_eq!(order, m.entries, "{ctx}: iter order");
    assert_eq!(
        q.peek_ready().map(view),
        m.entries.iter().find(|e| e.1).copied(),
        "{ctx}: peek_ready"
    );
    for line in 0..lines {
        assert_eq!(
            q.find(LineAddr(line)).map(view),
            m.pos(line).map(|p| m.entries[p]),
            "{ctx}: find({line})"
        );
    }
}

#[test]
fn fill_queue_matches_a_linear_model() {
    for cap in CAPACITIES {
        let mut rng = SplitMix64::new(0xF111 ^ cap as u64);
        let lines = 2 * cap as u64 + 1;
        let mut q: FillQueue<u32> = FillQueue::new(cap);
        let mut m = FillModel {
            cap,
            entries: Vec::new(),
        };
        for step in 0..OPS {
            let line = rng.next_u64() % lines;
            let op = rng.next_u64() % 5;
            let ctx = format!("cap {cap} step {step} op {op} line {line}");
            match op {
                0 => {
                    let class = if rng.next_u64().is_multiple_of(2) {
                        ReqClass::Demand
                    } else {
                        ReqClass::L2Prefetch
                    };
                    let payload = step as u32;
                    if m.entries.len() >= cap {
                        assert!(!q.try_reserve(LineAddr(line), class, payload), "{ctx}");
                    } else if m.pos(line).is_none() {
                        // Callers merge before reserving, so a pending
                        // line is never reserved twice.
                        assert!(q.try_reserve(LineAddr(line), class, payload), "{ctx}");
                        m.entries.push((line, false, class, payload));
                    }
                }
                1 => {
                    let pos = m.pos(line);
                    if let Some(p) = pos {
                        m.entries[p].1 = true;
                    }
                    assert_eq!(q.set_ready(LineAddr(line)), pos.is_some(), "{ctx}");
                }
                2 => {
                    let pos = m.pos(line);
                    if let Some(p) = pos {
                        m.entries[p].2 = ReqClass::Demand;
                    }
                    assert_eq!(q.promote(LineAddr(line)), pos.is_some(), "{ctx}");
                }
                3 => {
                    let expect = match m.pos(line) {
                        Some(p) if !m.entries[p].1 => Some(m.entries.remove(p)),
                        _ => None,
                    };
                    assert_eq!(
                        q.release(LineAddr(line)).as_ref().map(view),
                        expect,
                        "{ctx}"
                    );
                }
                _ => {
                    let expect = m
                        .entries
                        .iter()
                        .position(|e| e.1)
                        .map(|p| m.entries.remove(p));
                    assert_eq!(q.pop_ready().as_ref().map(view), expect, "{ctx}");
                }
            }
            check_fill(&q, &m, lines, &ctx);
        }
    }
}

/// The prefetch queue's reference model.
struct PrefetchModel {
    cap: usize,
    entries: VecDeque<u64>,
    cancelled: u64,
}

impl PrefetchModel {
    fn push(&mut self, line: u64) {
        if self.entries.contains(&line) {
            return;
        }
        if self.entries.len() >= self.cap {
            self.entries.pop_front();
            self.cancelled += 1;
        }
        self.entries.push_back(line);
    }
}

#[test]
fn prefetch_queue_matches_a_linear_model() {
    for cap in CAPACITIES {
        let mut rng = SplitMix64::new(0x9F0E ^ cap as u64);
        let lines = 2 * cap as u64 + 1;
        let mut q = PrefetchQueue::new(cap);
        let mut m = PrefetchModel {
            cap,
            entries: VecDeque::new(),
            cancelled: 0,
        };
        for step in 0..OPS {
            let line = rng.next_u64() % lines;
            let op = rng.next_u64() % 4;
            let ctx = format!("cap {cap} step {step} op {op} line {line}");
            match op {
                // Pushes are weighted double so the queue spends most of
                // its time full and overflow-cancelling.
                0 | 1 => {
                    q.push(LineAddr(line));
                    m.push(line);
                }
                2 => {
                    let expect = m.entries.pop_front().map(LineAddr);
                    assert_eq!(q.pop(), expect, "{ctx}");
                }
                _ => {
                    let expect = match m.entries.iter().position(|&l| l == line) {
                        Some(p) => m.entries.remove(p).is_some(),
                        None => false,
                    };
                    assert_eq!(q.remove(LineAddr(line)), expect, "{ctx}");
                }
            }
            assert_eq!(q.len(), m.entries.len(), "{ctx}: len");
            assert_eq!(q.is_empty(), m.entries.is_empty(), "{ctx}: is_empty");
            assert_eq!(q.cancelled, m.cancelled, "{ctx}: cancelled");
            for l in 0..lines {
                assert_eq!(
                    q.contains(LineAddr(l)),
                    m.entries.contains(&l),
                    "{ctx}: contains({l})"
                );
            }
        }
        // The queue exposes its FIFO order only through `pop`: drain it.
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop().map(|l| l.0)).collect();
        assert_eq!(drained, Vec::from(m.entries), "cap {cap}: final FIFO order");
    }
}
