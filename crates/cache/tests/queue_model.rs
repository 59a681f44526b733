//! Model-based tests of the CAM-searched queues and the MSHR file.
//!
//! `FillQueue` keeps its entries in allocation order with a ready
//! counter beside them, `PrefetchQueue` is a bounded FIFO with
//! oldest-drop and dedup, and `MshrFile` keys its entries by a packed
//! line array. These tests drive each structure with seeded random op
//! sequences and mirror every op in a plain `Vec`/`VecDeque` model — the
//! obviously-correct reading of §5.4. After every op the structure's
//! whole observable state must match the model. Lines are drawn from a
//! range of about twice the capacity, so merges, re-insertions and
//! removals from the middle happen on nearly every step.

use bosim_cache::{FillEntry, FillQueue, MshrEntry, MshrFile, PrefetchQueue};
use bosim_types::{CoreId, LineAddr, ReqClass, SplitMix64};
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
                    // Late-prefetch promotion, the way the uncore does it.
                    let pos = m.pos(line);
                    if let Some(p) = pos {
                        m.entries[p].2 = ReqClass::Demand;
                    }
                    let entry = q.find_mut(LineAddr(line));
                    assert_eq!(entry.is_some(), pos.is_some(), "{ctx}");
                    if let Some(e) = entry {
                        e.class = ReqClass::Demand;
                    }
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

/// The prefetch queue's reference model: (line, core) in FIFO order.
struct PrefetchModel {
    cap: usize,
    entries: VecDeque<(u64, u8)>,
    cancelled: u64,
}

impl PrefetchModel {
    fn pos(&self, line: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == line)
    }

    fn push(&mut self, line: u64, core: u8) {
        if self.pos(line).is_some() {
            return;
        }
        if self.entries.len() >= self.cap {
            self.entries.pop_front();
            self.cancelled += 1;
        }
        self.entries.push_back((line, core));
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
            let core = (rng.next_u64() % 4) as u8;
            let op = rng.next_u64() % 4;
            let ctx = format!("cap {cap} step {step} op {op} line {line} core {core}");
            match op {
                // Pushes are weighted double so the queue spends most of
                // its time full and overflow-cancelling.
                0 | 1 => {
                    q.push(LineAddr(line), CoreId(core));
                    m.push(line, core);
                }
                2 => {
                    let expect = m.entries.pop_front().map(|(l, c)| (LineAddr(l), CoreId(c)));
                    assert_eq!(q.pop(), expect, "{ctx}");
                }
                _ => {
                    let expect = match m.pos(line) {
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
                    m.pos(l).is_some(),
                    "{ctx}: contains({l})"
                );
            }
        }
        // The queue exposes its FIFO order only through `pop`: drain it.
        let drained: Vec<(u64, u8)> =
            std::iter::from_fn(|| q.pop().map(|(l, c)| (l.0, c.0))).collect();
        assert_eq!(
            drained,
            Vec::from(m.entries),
            "cap {cap}: final FIFO order and cores"
        );
    }
}

/// The MSHR file's reference model: (line, entry) in allocation order.
struct MshrModel {
    cap: usize,
    entries: Vec<(u64, MshrEntry)>,
}

impl MshrModel {
    fn pos(&self, line: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == line)
    }
}

#[test]
fn mshr_file_matches_a_linear_model() {
    for cap in CAPACITIES {
        let mut rng = SplitMix64::new(0x3511 ^ cap as u64);
        let lines = 2 * cap as u64 + 1;
        let mut q = MshrFile::new(cap);
        let mut m = MshrModel {
            cap,
            entries: Vec::new(),
        };
        for step in 0..OPS {
            let line = rng.next_u64() % lines;
            let op = rng.next_u64() % 4;
            let ctx = format!("cap {cap} step {step} op {op} line {line}");
            match op {
                // A miss: merge into the pending entry (a load waits on
                // it, or a store marks it), else allocate one.
                0 | 1 => {
                    let load = rng.next_u64().is_multiple_of(2);
                    let pos = m.pos(line);
                    match (q.find_mut(LineAddr(line)), pos) {
                        (Some(e), Some(p)) => {
                            let me = &mut m.entries[p].1;
                            if load {
                                e.waiters.push(step as u64);
                                me.waiters.push(step as u64);
                            } else {
                                e.store = true;
                                me.store = true;
                            }
                        }
                        (None, None) => {
                            let fresh = MshrEntry {
                                prefetch: op == 1,
                                ..MshrEntry::default()
                            };
                            match q.alloc(LineAddr(line), fresh.prefetch) {
                                Some(e) => {
                                    assert!(m.entries.len() < cap, "{ctx}: alloc past capacity");
                                    assert_eq!(*e, fresh, "{ctx}: fresh entry");
                                    m.entries.push((line, fresh));
                                }
                                None => assert_eq!(m.entries.len(), cap, "{ctx}: refused alloc"),
                            }
                        }
                        (found, _) => panic!("{ctx}: find_mut {found:?}, model position {pos:?}"),
                    }
                }
                2 => {
                    let expect = m.pos(line).map(|p| m.entries.remove(p).1);
                    assert_eq!(q.complete(LineAddr(line)), expect, "{ctx}");
                }
                _ => {
                    // Fill the file to capacity: alloc must refuse past it.
                    for l in 0..lines {
                        if m.pos(l).is_none() && m.entries.len() < m.cap {
                            assert!(q.alloc(LineAddr(l), false).is_some(), "{ctx}: alloc {l}");
                            m.entries.push((l, MshrEntry::default()));
                        }
                    }
                    let free = (0..lines).find(|&l| m.pos(l).is_none());
                    if let Some(l) = free {
                        assert!(
                            q.alloc(LineAddr(l), false).is_none(),
                            "{ctx}: alloc when full"
                        );
                    }
                }
            }
            assert_eq!(q.len(), m.entries.len(), "{ctx}: len");
            assert_eq!(q.is_empty(), m.entries.is_empty(), "{ctx}: is_empty");
            assert_eq!(q.is_full(), m.entries.len() >= m.cap, "{ctx}: is_full");
            for l in 0..lines {
                assert_eq!(
                    q.find(LineAddr(l)),
                    m.pos(l).map(|p| &m.entries[p].1),
                    "{ctx}: find({l})"
                );
            }
        }
    }
}
