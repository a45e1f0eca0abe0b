//! The observability clock facade — the only place the serving stack
//! reads wall time for measurement.
//!
//! Scoring/merge modules (see `teda-lint`'s `wallclock_in_scoring`) may
//! not name `Instant`/`SystemTime`; they time stages through these
//! guard types instead, which keeps every clock token inside
//! `crates/obs`. The lint exemption for this crate carries the proof:
//! durations measured here are recorded into histograms and trace
//! spans *after* a result is computed and never flow back into a
//! score, rank, or merge decision — `exp_obs` asserts bit-identical
//! annotations with telemetry on and off.

use std::time::Instant;

use crate::hist::Histogram;

/// A started stopwatch. `started_if(false)` skips the clock read
/// entirely — the disabled path costs one branch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    t0: Option<Instant>,
}

impl Stopwatch {
    /// Reads the clock now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            t0: Some(Instant::now()),
        }
    }

    /// Reads the clock only when `on`; otherwise every later
    /// [`elapsed_us`](Self::elapsed_us) is `0`.
    pub fn started_if(on: bool) -> Stopwatch {
        Stopwatch {
            t0: on.then(Instant::now),
        }
    }

    /// Whether this stopwatch actually read the clock.
    pub fn is_running(&self) -> bool {
        self.t0.is_some()
    }

    /// Microseconds since [`start`](Self::start), saturating.
    pub fn elapsed_us(&self) -> u64 {
        self.t0
            .map(|t0| u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }
}

/// Times one pipeline stage into a histogram: started against a
/// borrowed histogram (no reference-count traffic on the request path),
/// records the elapsed microseconds on drop. Against a disabled
/// histogram neither the clock read nor the record happens.
#[derive(Debug)]
pub struct StageTimer<'a> {
    hist: &'a Histogram,
    t0: Option<Instant>,
}

impl<'a> StageTimer<'a> {
    /// Starts timing into `hist` (no-op when `hist` is disabled).
    pub fn start(hist: &'a Histogram) -> StageTimer<'a> {
        let t0 = hist.is_enabled().then(Instant::now);
        StageTimer { hist, t0 }
    }

    /// Stops and records now instead of at end of scope.
    pub fn finish(self) {}
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.t0 {
            self.hist
                .record(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_off_reads_no_clock() {
        let sw = Stopwatch::started_if(false);
        assert!(!sw.is_running());
        assert_eq!(sw.elapsed_us(), 0);
        assert!(Stopwatch::started_if(true).is_running());
    }

    #[test]
    fn stage_timer_records_once_on_drop() {
        let hist = Histogram::new();
        StageTimer::start(&hist).finish();
        drop(StageTimer::start(&hist));
        assert_eq!(hist.snapshot().count(), 2);
    }

    #[test]
    fn stage_timer_against_disabled_histogram_is_inert() {
        let hist = Histogram::disabled();
        let t = StageTimer::start(&hist);
        assert!(t.t0.is_none(), "disabled histogram must skip the clock");
        drop(t);
        assert!(hist.snapshot().is_empty());
    }
}
