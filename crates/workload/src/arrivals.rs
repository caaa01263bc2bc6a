//! Arrival processes of the open queuing model.

use serde::{Deserialize, Serialize};
use simkit::{SimDur, SimRng, SimTime};

/// How instances of a class enter the system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// Open Poisson arrivals with `rate` per second *per PE* (the paper
    /// scales arrival rates with the system size: "we increase the query
    /// arrival rate proportionally with the number of PE").
    PoissonPerPe { rate: f64 },
    /// Open Poisson arrivals with an absolute system-wide rate per second.
    PoissonTotal { rate: f64 },
    /// Deterministic arrivals with fixed inter-arrival time (variance-free
    /// sensitivity experiments).
    FixedInterval { interval: SimDur },
    /// Closed single-user mode: exactly one instance in the system; the
    /// next one starts when the previous completes.
    SingleUser,
}

impl ArrivalSpec {
    /// Absolute rate per second for `n` PEs (0 for single-user).
    pub fn total_rate(&self, n: u32) -> f64 {
        match self {
            ArrivalSpec::PoissonPerPe { rate } => rate * n as f64,
            ArrivalSpec::PoissonTotal { rate } => *rate,
            ArrivalSpec::FixedInterval { interval } => {
                if interval.as_nanos() == 0 {
                    0.0
                } else {
                    1e9 / interval.as_nanos() as f64
                }
            }
            ArrivalSpec::SingleUser => 0.0,
        }
    }

    pub fn is_single_user(&self) -> bool {
        matches!(self, ArrivalSpec::SingleUser)
    }
}

/// Deterministic time-variation of an arrival rate (scenario-lab
/// extension): the nominal rate is multiplied by a factor that depends on
/// the current simulated time. This turns the stationary Poisson streams
/// of §4 into piecewise-stationary ones — bursty OLTP traffic, or a
/// one-time workload phase shift for adaptive-vs-static experiments.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Modulation {
    /// Stationary: the nominal rate at all times (the paper's setting).
    #[default]
    None,
    /// Periodic bursts: rate × `factor` during the first `duty` fraction
    /// of every `period_secs` window, nominal rate otherwise.
    Burst {
        /// Rate multiplier inside the burst window (> 1 for bursts).
        factor: f64,
        /// Length of one on/off cycle in simulated seconds.
        period_secs: f64,
        /// Fraction of the cycle spent bursting, in `(0, 1)`.
        duty: f64,
    },
    /// One-time phase shift: rate × `factor` from `at_secs` onward.
    Shift {
        /// Rate multiplier after the shift.
        factor: f64,
        /// Simulated time of the shift, in seconds.
        at_secs: f64,
    },
}

impl Modulation {
    /// Rate multiplier in force at `now`.
    pub fn factor_at(&self, now: SimTime) -> f64 {
        match *self {
            Modulation::None => 1.0,
            Modulation::Burst {
                factor,
                period_secs,
                duty,
            } => {
                if period_secs <= 0.0 {
                    return 1.0;
                }
                let phase = now.as_secs_f64() % period_secs;
                if phase < duty * period_secs {
                    factor
                } else {
                    1.0
                }
            }
            Modulation::Shift { factor, at_secs } => {
                if now.as_secs_f64() >= at_secs {
                    factor
                } else {
                    1.0
                }
            }
        }
    }

    /// Is this the stationary (identity) modulation?
    pub fn is_none(&self) -> bool {
        matches!(self, Modulation::None)
    }
}

/// Stateful arrival sampler for one class.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    spec: ArrivalSpec,
    n: u32,
    modulation: Modulation,
}

impl ArrivalProcess {
    pub fn new(spec: ArrivalSpec, n: u32) -> Self {
        ArrivalProcess {
            spec,
            n,
            modulation: Modulation::None,
        }
    }

    /// Attach a time-varying rate modulation.
    pub fn with_modulation(mut self, modulation: Modulation) -> Self {
        self.modulation = modulation;
        self
    }

    pub fn spec(&self) -> ArrivalSpec {
        self.spec
    }

    /// Remaining pause when arrivals are switched off at `now` but will
    /// come back: a `Burst` with `factor <= 0` pauses the class for the
    /// rest of its burst window. Everything else that zeroes the rate
    /// (a `Shift` to 0, a zero nominal rate) is permanent.
    fn pause_remaining(&self, now: SimTime) -> Option<f64> {
        match self.modulation {
            Modulation::Burst {
                factor,
                period_secs,
                duty,
            } if factor <= 0.0 && period_secs > 0.0 && duty < 1.0 => {
                let phase = now.as_secs_f64() % period_secs;
                Some((duty * period_secs - phase).max(0.0))
            }
            _ => None,
        }
    }

    /// Time until the next arrival given the current simulated time
    /// (which selects the modulated rate in force). A temporarily paused
    /// class (`Burst` with `factor: 0`) resumes at its nominal rate once
    /// the burst window ends; `None` means the class never arrives again.
    pub fn next_interarrival_at(&self, now: SimTime, rng: &mut SimRng) -> Option<SimDur> {
        let factor = self.modulation.factor_at(now);
        if factor <= 0.0 {
            // Wait out a temporary pause, then sample at the nominal rate.
            let wait = self.pause_remaining(now)?;
            return match self.spec {
                ArrivalSpec::SingleUser => None,
                ArrivalSpec::FixedInterval { interval } => {
                    Some(SimDur::from_secs_f64(wait + interval.as_secs_f64()))
                }
                _ => {
                    let rate = self.spec.total_rate(self.n);
                    if rate <= 0.0 {
                        return None;
                    }
                    Some(SimDur::from_secs_f64(wait + rng.exp(1.0 / rate)))
                }
            };
        }
        match self.spec {
            ArrivalSpec::SingleUser => None,
            ArrivalSpec::FixedInterval { interval } => {
                Some(SimDur::from_secs_f64(interval.as_secs_f64() / factor))
            }
            _ => {
                let rate = self.spec.total_rate(self.n) * factor;
                if rate <= 0.0 {
                    return None;
                }
                Some(SimDur::from_secs_f64(rng.exp(1.0 / rate)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_pe_rate_scales() {
        let s = ArrivalSpec::PoissonPerPe { rate: 0.25 };
        assert_eq!(s.total_rate(80), 20.0);
        assert_eq!(s.total_rate(10), 2.5);
    }

    #[test]
    fn poisson_mean_interarrival() {
        let p = ArrivalProcess::new(ArrivalSpec::PoissonTotal { rate: 50.0 }, 1);
        let mut rng = SimRng::new(5);
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| {
                p.next_interarrival_at(SimTime::ZERO, &mut rng)
                    .unwrap()
                    .as_secs_f64()
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.02).abs() < 0.001, "mean {mean}");
    }

    #[test]
    fn fixed_interval_is_deterministic() {
        let p = ArrivalProcess::new(
            ArrivalSpec::FixedInterval {
                interval: SimDur::from_millis(100),
            },
            4,
        );
        let mut rng = SimRng::new(5);
        assert_eq!(
            p.next_interarrival_at(SimTime::ZERO, &mut rng),
            Some(SimDur::from_millis(100))
        );
        assert_eq!(
            p.next_interarrival_at(SimTime::ZERO, &mut rng),
            Some(SimDur::from_millis(100))
        );
    }

    #[test]
    fn single_user_has_no_arrivals() {
        let p = ArrivalProcess::new(ArrivalSpec::SingleUser, 4);
        let mut rng = SimRng::new(5);
        assert_eq!(p.next_interarrival_at(SimTime::ZERO, &mut rng), None);
        assert!(ArrivalSpec::SingleUser.is_single_user());
    }

    #[test]
    fn zero_rate_yields_none() {
        let p = ArrivalProcess::new(ArrivalSpec::PoissonTotal { rate: 0.0 }, 4);
        let mut rng = SimRng::new(5);
        assert_eq!(p.next_interarrival_at(SimTime::ZERO, &mut rng), None);
    }

    #[test]
    fn burst_modulation_windows() {
        let m = Modulation::Burst {
            factor: 4.0,
            period_secs: 10.0,
            duty: 0.3,
        };
        assert_eq!(m.factor_at(SimTime::ZERO), 4.0);
        assert_eq!(m.factor_at(SimTime(2_900_000_000)), 4.0); // 2.9 s: in burst
        assert_eq!(m.factor_at(SimTime(5_000_000_000)), 1.0); // 5 s: off
        assert_eq!(m.factor_at(SimTime(12_000_000_000)), 4.0); // next cycle
        assert!(Modulation::None.is_none() && !m.is_none());
    }

    #[test]
    fn shift_modulation_switches_once() {
        let m = Modulation::Shift {
            factor: 3.0,
            at_secs: 20.0,
        };
        assert_eq!(m.factor_at(SimTime(19_999_999_999)), 1.0);
        assert_eq!(m.factor_at(SimTime(20_000_000_000)), 3.0);
        assert_eq!(m.factor_at(SimTime(500_000_000_000)), 3.0);
    }

    #[test]
    fn modulated_fixed_interval_shrinks_in_burst() {
        let p = ArrivalProcess::new(
            ArrivalSpec::FixedInterval {
                interval: SimDur::from_millis(100),
            },
            4,
        )
        .with_modulation(Modulation::Burst {
            factor: 2.0,
            period_secs: 10.0,
            duty: 0.5,
        });
        let mut rng = SimRng::new(5);
        assert_eq!(
            p.next_interarrival_at(SimTime::ZERO, &mut rng),
            Some(SimDur::from_millis(50)),
            "doubled rate halves the interval"
        );
        assert_eq!(
            p.next_interarrival_at(SimTime(7_000_000_000), &mut rng),
            Some(SimDur::from_millis(100)),
            "off-window keeps the nominal interval"
        );
    }

    #[test]
    fn burst_pause_resumes_after_window() {
        // factor 0 inside the burst window = pause, not permanent stop.
        let p = ArrivalProcess::new(ArrivalSpec::PoissonTotal { rate: 10.0 }, 1).with_modulation(
            Modulation::Burst {
                factor: 0.0,
                period_secs: 10.0,
                duty: 0.3,
            },
        );
        let mut rng = SimRng::new(3);
        // At t = 1 s (inside the 3 s pause window): next arrival lands at
        // least 2 s out, after the window ends.
        let gap = p
            .next_interarrival_at(SimTime(1_000_000_000), &mut rng)
            .expect("class resumes");
        assert!(gap >= SimDur::from_secs(2), "waits out the pause: {gap:?}");
        // Outside the window the nominal rate applies.
        assert!(p
            .next_interarrival_at(SimTime(5_000_000_000), &mut rng)
            .is_some());
        // A Shift to zero is a permanent stop.
        let stopped = ArrivalProcess::new(ArrivalSpec::PoissonTotal { rate: 10.0 }, 1)
            .with_modulation(Modulation::Shift {
                factor: 0.0,
                at_secs: 2.0,
            });
        assert!(stopped
            .next_interarrival_at(SimTime(3_000_000_000), &mut rng)
            .is_none());
    }

    #[test]
    fn modulated_poisson_mean_tracks_factor() {
        let p = ArrivalProcess::new(ArrivalSpec::PoissonTotal { rate: 50.0 }, 1).with_modulation(
            Modulation::Shift {
                factor: 2.0,
                at_secs: 10.0,
            },
        );
        let mut rng = SimRng::new(9);
        let n = 50_000;
        let before: f64 = (0..n)
            .map(|_| {
                p.next_interarrival_at(SimTime::ZERO, &mut rng)
                    .unwrap()
                    .as_secs_f64()
            })
            .sum::<f64>()
            / n as f64;
        let after: f64 = (0..n)
            .map(|_| {
                p.next_interarrival_at(SimTime(20_000_000_000), &mut rng)
                    .unwrap()
                    .as_secs_f64()
            })
            .sum::<f64>()
            / n as f64;
        assert!((before - 0.02).abs() < 0.001, "before {before}");
        assert!((after - 0.01).abs() < 0.001, "after {after}");
    }
}
