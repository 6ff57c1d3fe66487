//! Per-resource access statistics, kept by the term policy that reads
//! them ([`AdaptiveTerm`](crate::policy::AdaptiveTerm)), not by the server.

use lease_clock::{Dur, Time};

/// Exponentially weighted running estimates of a resource's access
/// characteristics, the inputs the paper's analytic model needs when the
/// server "dynamically pick\[s\] lease terms on a per file and per client
/// cache basis" (§4).
///
/// Rates use an exponential moving average over event inter-arrival times
/// with time constant `tau`: on each event, the instantaneous rate `1/gap`
/// is blended in with weight `1 - exp(-gap/tau)`.
#[derive(Debug, Clone)]
pub struct ResourceStats {
    /// Smoothed read rate, events per second.
    read_rate: f64,
    /// Smoothed write rate, events per second.
    write_rate: f64,
    /// Smoothed number of caches holding the resource at write time.
    sharers: f64,
    last_read: Option<Time>,
    last_write: Option<Time>,
    /// Raw counters.
    pub reads: u64,
    /// Raw write counter.
    pub writes: u64,
    tau_secs: f64,
}

impl ResourceStats {
    /// Creates empty statistics with a smoothing time constant.
    pub fn new(tau: Dur) -> ResourceStats {
        ResourceStats {
            read_rate: 0.0,
            write_rate: 0.0,
            sharers: 1.0,
            last_read: None,
            last_write: None,
            reads: 0,
            writes: 0,
            tau_secs: tau.as_secs_f64().max(1e-9),
        }
    }

    /// Records a read (or lease extension driven by a read) at `now`.
    pub fn on_read(&mut self, now: Time) {
        self.reads += 1;
        self.read_rate = blend(
            self.read_rate,
            self.last_read.replace(now),
            now,
            self.tau_secs,
        );
    }

    /// Records a write at `now`, observed while `holders` caches held
    /// leases on the resource.
    pub fn on_write(&mut self, now: Time, holders: usize) {
        self.writes += 1;
        self.write_rate = blend(
            self.write_rate,
            self.last_write.replace(now),
            now,
            self.tau_secs,
        );
        let s = (holders.max(1)) as f64;
        self.sharers += 0.25 * (s - self.sharers);
    }

    /// Smoothed read rate (events/second).
    pub fn read_rate(&self) -> f64 {
        self.read_rate
    }

    /// Smoothed write rate (events/second).
    pub fn write_rate(&self) -> f64 {
        self.write_rate
    }

    /// Smoothed sharing degree `S` (≥ 1).
    pub fn sharing(&self) -> f64 {
        self.sharers.max(1.0)
    }

    /// The paper's lease benefit factor `α = 2R / (S·W)` (§3.1), or
    /// `f64::INFINITY` when no writes have been observed.
    pub fn alpha(&self) -> f64 {
        if self.write_rate <= 0.0 {
            f64::INFINITY
        } else {
            2.0 * self.read_rate / (self.sharing() * self.write_rate)
        }
    }
}

fn blend(rate: f64, last: Option<Time>, now: Time, tau: f64) -> f64 {
    let Some(last) = last else {
        return rate;
    };
    let gap = now.saturating_since(last).as_secs_f64().max(1e-9);
    let w = 1.0 - (-gap / tau).exp();
    rate + w * (1.0 / gap - rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_converge_to_steady_arrivals() {
        let mut s = ResourceStats::new(Dur::from_secs(10));
        // One read per second for 200 seconds.
        for i in 1..=200u64 {
            s.on_read(Time::from_secs(i));
        }
        assert!((s.read_rate() - 1.0).abs() < 0.05, "rate {}", s.read_rate());
        assert_eq!(s.reads, 200);
    }

    #[test]
    fn sharing_tracks_holder_counts() {
        let mut s = ResourceStats::new(Dur::from_secs(10));
        for i in 1..=50u64 {
            s.on_write(Time::from_secs(i), 4);
        }
        assert!((s.sharing() - 4.0).abs() < 0.1);
    }

    #[test]
    fn alpha_infinite_without_writes() {
        let mut s = ResourceStats::new(Dur::from_secs(10));
        s.on_read(Time::from_secs(1));
        s.on_read(Time::from_secs(2));
        assert!(s.alpha().is_infinite());
    }

    #[test]
    fn alpha_matches_definition() {
        let mut s = ResourceStats::new(Dur::from_secs(5));
        // Reads at 2/s, writes at 0.5/s, S -> 2.
        for i in 1..=400u64 {
            s.on_read(Time::from_millis(i * 500));
        }
        for i in 1..=100u64 {
            s.on_write(Time::from_secs(i * 2), 2);
        }
        let alpha = s.alpha();
        let expected = 2.0 * s.read_rate() / (s.sharing() * s.write_rate());
        assert!((alpha - expected).abs() < 1e-9);
        assert!(
            alpha > 1.0,
            "read-mostly resource should benefit, alpha = {alpha}"
        );
    }

    #[test]
    fn first_event_sets_no_rate() {
        let mut s = ResourceStats::new(Dur::from_secs(10));
        s.on_read(Time::from_secs(1));
        assert_eq!(s.read_rate(), 0.0);
    }
}
