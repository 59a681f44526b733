//! Observability switches carried on the simulator configuration.

/// Observability configuration, carried by `SimConfig`.
///
/// Everything defaults to *off*, and the simulator's hot paths check a
/// single pre-resolved flag (or an `Option` discriminant) per feature,
/// so a default `ObsConfig` costs nothing: no allocation, no event
/// construction, no wall-clock reads. The golden-stats invariant holds
/// with observability on or off — events and epoch records are pure
/// functions of simulated state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsConfig {
    /// Record cycle-domain [`crate::Event`]s into the run's
    /// [`crate::Recorder`] (the first [`crate::MAX_EVENTS`] of them),
    /// and collect core 0's [`crate::EpochFeedback`] record at every
    /// boundary of the simulator's epoch clock (`SimConfig::epoch_cycles`,
    /// shared with adaptive control) into [`crate::ObsReport::epochs`].
    pub events: bool,
    /// Attribute host wall-clock time to simulator phases with the
    /// [`crate::HostProfiler`], sampled at
    /// [`PROFILE_SAMPLE_SHIFT`](crate::PROFILE_SAMPLE_SHIFT).
    pub profile: bool,
}

impl ObsConfig {
    /// Everything on — what `bosim run --events --profile` asks for.
    pub fn all() -> Self {
        ObsConfig {
            events: true,
            profile: true,
        }
    }

    /// Whether any observability feature is enabled.
    pub fn enabled(&self) -> bool {
        self.events || self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_disabled_and_valid() {
        assert!(!ObsConfig::default().enabled());
    }

    #[test]
    fn all_enables_every_feature() {
        let c = ObsConfig::all();
        assert!(c.events && c.profile);
        assert!(c.enabled());
    }
}
