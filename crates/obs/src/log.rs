//! The bounded event log.

use crate::event::Event;

/// A bounded, keep-first event log.
///
/// Recording is append-only up to the capacity; once full, further
/// events are counted (`dropped`) but not stored. Keep-first is the
/// right truncation policy for a simulator: the interesting transients
/// (warm-up, the first learning phases, the first epochs of an
/// adaptive run) happen early, and a stable prefix keeps two runs'
/// traces byte-comparable even when both overflow.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    events: Vec<Event>,
    cap: usize,
    dropped: u64,
}

impl Recorder {
    /// Creates a log that keeps the first `cap` events (`cap` is
    /// clamped to at least 1). Storage grows on demand — an oversized
    /// capacity costs nothing until events actually arrive.
    pub fn new(cap: usize) -> Self {
        Recorder {
            events: Vec::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Appends an event, or counts it as dropped when full.
    #[inline]
    pub fn record(&mut self, event: Event) {
        if self.events.len() < self.cap {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events that arrived after the log filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ObsSite};

    fn ev(cycle: u64) -> Event {
        Event {
            cycle,
            core: 0,
            site: ObsSite::L2,
            kind: EventKind::PrefetchIssued { line: cycle },
        }
    }

    #[test]
    fn keeps_first_and_counts_overflow() {
        let mut r = Recorder::new(2);
        for c in 0..5 {
            r.record(ev(c));
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events()[0].cycle, 0);
        assert_eq!(r.events()[1].cycle, 1);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = Recorder::new(0);
        r.record(ev(1));
        assert_eq!(r.events().len(), 1);
    }
}
