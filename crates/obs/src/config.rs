//! Observability switches carried on the simulator configuration.

use std::path::PathBuf;

/// Observability configuration, carried by `SimConfig`.
///
/// Everything defaults to *off*, and the simulator's hot paths check a
/// single pre-resolved flag (or an `Option` discriminant) per feature,
/// so a default `ObsConfig` costs nothing: no allocation, no event
/// construction, no wall-clock reads. The golden-stats invariant holds
/// with observability on or off — events and epoch records are pure
/// functions of simulated state.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Record cycle-domain [`crate::Event`]s into the run's
    /// [`crate::Recorder`].
    pub events: bool,
    /// Event-log capacity: recording keeps the first `max_events`
    /// events and counts the rest as dropped (keep-first beats a ring
    /// here — the interesting transients are at warm-up and the first
    /// learning phases, and a stable prefix keeps traces comparable).
    pub max_events: usize,
    /// Collect core 0's [`crate::EpochFeedback`] record at every
    /// boundary of the simulator's epoch clock (`SimConfig::epoch_cycles`,
    /// shared with adaptive control) into [`crate::ObsReport::epochs`].
    pub epochs: bool,
    /// Stream each epoch record as a JSON line to this file while the run
    /// is in flight (requires [`epochs`](Self::epochs); I/O errors are
    /// swallowed — streaming is best-effort and never fails a run).
    pub epoch_stream: Option<PathBuf>,
    /// Attribute host wall-clock time to simulator phases with the
    /// [`crate::HostProfiler`], sampled at
    /// [`PROFILE_SAMPLE_SHIFT`](crate::PROFILE_SAMPLE_SHIFT).
    pub profile: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            events: false,
            max_events: 65_536,
            epochs: false,
            epoch_stream: None,
            profile: false,
        }
    }
}

impl ObsConfig {
    /// Everything on, at the default capacity — what `bosim trace`
    /// uses.
    pub fn all() -> Self {
        ObsConfig {
            events: true,
            epochs: true,
            profile: true,
            ..Default::default()
        }
    }

    /// Whether any observability feature is enabled.
    pub fn enabled(&self) -> bool {
        self.events || self.epochs || self.profile
    }

    /// Checks internal consistency. Returns a human-readable reason on
    /// the first violated constraint; the simulator's `SimConfig`
    /// validation surfaces it as a typed error.
    ///
    /// # Errors
    ///
    /// Fails when event recording is enabled with a zero capacity, or
    /// when a stream path is set without epoch collection.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.events && self.max_events == 0 {
            return Err("event tracing enabled with max_events = 0");
        }
        if self.epoch_stream.is_some() && !self.epochs {
            return Err("epoch_stream set but epoch snapshots are disabled");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_disabled_and_valid() {
        let c = ObsConfig::default();
        assert!(!c.enabled());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn all_enables_every_feature() {
        let c = ObsConfig::all();
        assert!(c.events && c.epochs && c.profile);
        assert!(c.enabled());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_inconsistent_switches() {
        let c = ObsConfig {
            events: true,
            max_events: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ObsConfig {
            epoch_stream: Some("x.jsonl".into()),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
