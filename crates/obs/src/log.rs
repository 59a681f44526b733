//! The bounded event log.

use crate::event::Event;

/// Events a [`Recorder`] keeps; later ones are only counted. 65,536
/// events hold the warm-up and first learning phases of a typical
/// instrumented run (a three-site stack on a streaming benchmark
/// records about 0.15 events per instruction).
pub const MAX_EVENTS: usize = 65_536;

/// A bounded, keep-first event log.
///
/// Recording is append-only up to [`MAX_EVENTS`]; once full, further
/// events are counted (`dropped`) but not stored. Keep-first is the
/// right truncation policy for a simulator: the interesting transients
/// (warm-up, the first learning phases, the first epochs of an
/// adaptive run) happen early, and a stable prefix keeps two runs'
/// traces byte-comparable even when both overflow. Storage grows on
/// demand, so the bound costs nothing until events arrive.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recorder {
    events: Vec<Event>,
    dropped: u64,
}

impl Recorder {
    /// Appends an event, or counts it as dropped when full.
    #[inline]
    pub fn record(&mut self, event: Event) {
        if self.events.len() < MAX_EVENTS {
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
        let mut r = Recorder::default();
        for c in 0..MAX_EVENTS as u64 + 3 {
            r.record(ev(c));
        }
        assert_eq!(r.events().len(), MAX_EVENTS);
        assert_eq!(r.events()[0].cycle, 0);
        assert_eq!(r.events()[MAX_EVENTS - 1].cycle, MAX_EVENTS as u64 - 1);
        assert_eq!(r.dropped(), 3);
    }
}
