//! Lease-term policies: how the server picks `t_s`.
//!
//! Section 4 of the paper: "the server can set the lease term based on the
//! file access characteristics for the requested file as well as the
//! propagation delay to the client. In particular, a heavily write-shared
//! file might be given a lease term of zero. [...] In general, a server can
//! dynamically pick lease terms on a per file and per client cache basis
//! using the analytic model."
//!
//! The server keeps no access statistics: it reports what it sees to the
//! policy, and a policy that reads statistics ([`AdaptiveTerm`]) keeps them.

use std::collections::HashMap;

use lease_clock::{Dur, Time};

use crate::stats::ResourceStats;
use crate::types::{ClientId, Resource};

/// What the server reports to its [`TermPolicy`], where it happens.
#[derive(Debug, Clone, Copy)]
pub enum Observation<R> {
    /// A grant or extension of the resource at this instant, before its term.
    Read(R, Time),
    /// A write of the resource arriving while this many caches hold leases.
    Write(R, Time, usize),
    /// The server crashed: what it observed was volatile, like its table.
    Crash,
}

/// Picks the term for a lease the server is about to grant.
pub trait TermPolicy<R: Resource>: Send {
    /// The term for a grant of `resource` to `client`. Returning
    /// [`Dur::ZERO`] serves the data without caching rights; [`Dur::MAX`]
    /// is an infinite lease (the revised-Andrew configuration, useful as a
    /// baseline).
    fn term(&mut self, resource: &R, client: ClientId) -> Dur;

    /// One of the server's observations; the default ignores it.
    fn observe(&mut self, _what: Observation<R>) {}
}

/// The same term for every grant — the configuration the paper's model
/// sweeps over.
#[derive(Debug, Clone, Copy)]
pub struct FixedTerm(pub Dur);

impl<R: Resource> TermPolicy<R> for FixedTerm {
    fn term(&mut self, _resource: &R, _client: ClientId) -> Dur {
        self.0
    }
}

/// Smoothing time constant of [`AdaptiveTerm`]'s per-resource statistics.
const STATS_TAU: Dur = Dur::from_secs(30);

/// The knee rule derived from the paper's model: the shortest term that
/// already captures a `1 - theta` fraction of the extension-traffic
/// savings.
///
/// From formula (1), the extension message rate relative to a zero term is
/// `1 / (1 + R·t_c)`; driving it to `theta` needs `t = (1/theta - 1) / R`.
/// With the paper's `R = 0.864/s` and `theta = 0.1`, this yields ≈ 10.4 s —
/// the "term of (say) 10 seconds" the paper recommends. When the benefit
/// factor `α ≤ 1` (heavy write sharing), a non-zero term only adds load, so
/// the rule returns zero (§3.1). The rates come from one [`ResourceStats`]
/// per resource observed, forgotten when the server crashes.
#[derive(Debug, Clone)]
pub struct AdaptiveTerm<R> {
    /// Target residual fraction of extension traffic (e.g. 0.1).
    pub theta: f64,
    /// Lower clamp for non-zero terms.
    pub min: Dur,
    /// Upper clamp.
    pub max: Dur,
    stats: HashMap<R, ResourceStats>,
}

impl<R: Resource> AdaptiveTerm<R> {
    /// The knee rule for `theta`, terms clamped to `min..=max`.
    pub fn new(theta: f64, min: Dur, max: Dur) -> AdaptiveTerm<R> {
        AdaptiveTerm {
            theta,
            min,
            max,
            stats: HashMap::new(),
        }
    }

    /// The knee term for an observed read rate, before clamping.
    pub fn knee(theta: f64, read_rate: f64) -> Dur {
        if read_rate <= 0.0 {
            Dur::MAX
        } else {
            Dur::from_secs_f64((1.0 / theta - 1.0) / read_rate)
        }
    }

    fn stats(&mut self, resource: R) -> &mut ResourceStats {
        self.stats
            .entry(resource)
            .or_insert_with(|| ResourceStats::new(STATS_TAU))
    }
}

impl<R: Resource> Default for AdaptiveTerm<R> {
    /// 10% residual traffic, terms clamped to 1–60 s.
    fn default() -> AdaptiveTerm<R> {
        AdaptiveTerm::new(0.1, Dur::from_secs(1), Dur::from_secs(60))
    }
}

impl<R: Resource> TermPolicy<R> for AdaptiveTerm<R> {
    fn observe(&mut self, what: Observation<R>) {
        match what {
            Observation::Read(r, now) => self.stats(r).on_read(now),
            Observation::Write(r, now, holders) => self.stats(r).on_write(now, holders),
            Observation::Crash => self.stats.clear(),
        }
    }

    fn term(&mut self, resource: &R, _client: ClientId) -> Dur {
        let stats = self.stats(*resource);
        if stats.alpha() <= 1.0 {
            return Dur::ZERO;
        }
        // The per-cache read rate is what amortizes extensions; the stats
        // track the aggregate rate, so divide by the sharing degree.
        let per_cache_rate = stats.read_rate() / stats.sharing();
        Ord::clamp(Self::knee(self.theta, per_cache_rate), self.min, self.max)
    }
}

/// Wraps a policy with per-client term compensation for distant clients.
///
/// §4: "A lease given to a distant client could be increased to compensate
/// for the amount the lease term is reduced by the propagation delay and
/// for the extra delay incurred by the client to extend the lease." The
/// effective client-side term is `t_s − (m_prop + 2·m_proc) − ε`; adding
/// the client's round-trip overhead back restores its effective term to
/// what near clients enjoy.
pub struct CompensatedTerm<R> {
    /// The base policy.
    pub inner: Box<dyn TermPolicy<R>>,
    /// Extra term per client (its measured request overhead).
    pub extra: std::collections::HashMap<ClientId, Dur>,
}

impl<R: Resource> CompensatedTerm<R> {
    /// Wraps `inner` with an empty compensation table.
    pub fn new(inner: Box<dyn TermPolicy<R>>) -> CompensatedTerm<R> {
        CompensatedTerm {
            inner,
            extra: std::collections::HashMap::new(),
        }
    }

    /// Registers `extra` term for a distant client.
    pub fn compensate(mut self, client: ClientId, extra: Dur) -> CompensatedTerm<R> {
        self.extra.insert(client, extra);
        self
    }
}

impl<R: Resource> TermPolicy<R> for CompensatedTerm<R> {
    fn observe(&mut self, what: Observation<R>) {
        self.inner.observe(what);
    }

    fn term(&mut self, resource: &R, client: ClientId) -> Dur {
        let base = self.inner.term(resource, client);
        if base.is_zero() || base.is_infinite() {
            return base; // Zero stays zero; infinite needs no help.
        }
        base.saturating_add(self.extra.get(&client).copied().unwrap_or(Dur::ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reports 300 reads, then 300 writes seen with `sharers` holders, of
    /// resource 1 at the given rates.
    fn observe(
        p: &mut dyn TermPolicy<u64>,
        reads_per_sec: f64,
        writes_per_sec: f64,
        sharers: usize,
    ) {
        if reads_per_sec > 0.0 {
            let gap_ms = (1000.0 / reads_per_sec) as u64;
            for i in 1..=300u64 {
                p.observe(Observation::Read(1, Time::from_millis(i * gap_ms)));
            }
        }
        if writes_per_sec > 0.0 {
            let gap_ms = (1000.0 / writes_per_sec) as u64;
            for i in 1..=300u64 {
                p.observe(Observation::Write(
                    1,
                    Time::from_millis(i * gap_ms),
                    sharers,
                ));
            }
        }
    }

    #[test]
    fn fixed_term_is_constant() {
        let mut p = FixedTerm(Dur::from_secs(10));
        observe(&mut p, 1.0, 2.0, 8);
        let t = TermPolicy::<u64>::term(&mut p, &1, ClientId(0));
        assert_eq!(t, Dur::from_secs(10));
    }

    #[test]
    fn knee_matches_paper_example() {
        // R = 0.864/s, theta = 0.1 -> about 10.4 s.
        let t = AdaptiveTerm::<u64>::knee(0.1, 0.864);
        assert!((t.as_secs_f64() - 10.42).abs() < 0.05, "{t}");
    }

    #[test]
    fn adaptive_zeroes_write_shared_resources() {
        // Heavy write sharing: alpha = 2R/(SW) = 2*1/(8*2) < 1.
        let mut p = AdaptiveTerm::default();
        observe(&mut p, 1.0, 2.0, 8);
        assert!(p.stats(1).alpha() < 1.0, "alpha = {}", p.stats(1).alpha());
        assert_eq!(p.term(&1, ClientId(0)), Dur::ZERO);
    }

    #[test]
    fn adaptive_grants_long_terms_to_read_mostly() {
        let mut p = AdaptiveTerm::default();
        observe(&mut p, 2.0, 0.01, 1);
        let t = p.term(&1, ClientId(0));
        assert!(t >= Dur::from_secs(1) && t <= Dur::from_secs(60));
        assert!(t.as_secs_f64() > 3.0, "expected multi-second term, got {t}");
    }

    /// The rule as the server applied it when it kept the statistics and
    /// handed them to the policy: the reference for the parity test.
    fn term_from(p: &AdaptiveTerm<u64>, stats: &ResourceStats) -> Dur {
        if stats.alpha() <= 1.0 {
            return Dur::ZERO;
        }
        let rate = stats.read_rate() / stats.sharing();
        Ord::clamp(AdaptiveTerm::<u64>::knee(p.theta, rate), p.min, p.max)
    }

    #[test]
    fn adaptive_terms_match_statistics_kept_beside_the_policy() {
        let mut p = AdaptiveTerm::default();
        let mut by_hand: HashMap<u64, ResourceStats> = HashMap::new();
        let mut got = Vec::new();
        let mut want = Vec::new();
        let mut step = |p: &mut AdaptiveTerm<u64>,
                        by_hand: &mut HashMap<u64, ResourceStats>,
                        ms: u64,
                        r: u64,
                        write: Option<usize>| {
            let now = Time::from_millis(ms);
            let s = by_hand
                .entry(r)
                .or_insert_with(|| ResourceStats::new(STATS_TAU));
            match write {
                None => {
                    p.observe(Observation::Read(r, now));
                    s.on_read(now);
                }
                Some(holders) => {
                    p.observe(Observation::Write(r, now, holders));
                    s.on_write(now, holders);
                }
            }
            got.push(p.term(&r, ClientId(0)));
            want.push(term_from(p, s));
        };
        // Read-mostly, then heavily write-shared (alpha <= 1: zero terms),
        // then read-mostly again; two resources interleaved, a crash in
        // the middle of the second phase.
        for i in 0..400u64 {
            step(&mut p, &mut by_hand, i * 500, i % 2, None);
            if i % 50 == 0 {
                step(&mut p, &mut by_hand, i * 500 + 1, i % 2, Some(1));
            }
        }
        for i in 400..800u64 {
            step(&mut p, &mut by_hand, i * 500, 0, None);
            for w in 0..4 {
                step(&mut p, &mut by_hand, i * 500 + 100 * w, 0, Some(8));
            }
            if i == 600 {
                p.observe(Observation::Crash);
                by_hand.clear();
            }
        }
        for i in 800..1200u64 {
            step(&mut p, &mut by_hand, i * 500, 0, None);
            if i % 20 == 0 {
                step(&mut p, &mut by_hand, i * 500 + 1, 0, Some(1));
            }
        }
        assert_eq!(got, want);
        assert!(got.contains(&Dur::ZERO), "no zero-term phase: {got:?}");
        assert!(got.iter().any(|t| !t.is_zero()));
    }

    #[test]
    fn compensation_forwards_observations_to_the_inner_policy() {
        let mut p: CompensatedTerm<u64> = CompensatedTerm::new(Box::new(AdaptiveTerm::default()))
            .compensate(ClientId(7), Dur::from_millis(200));
        observe(&mut p, 1.0, 2.0, 8);
        assert_eq!(p.term(&1, ClientId(7)), Dur::ZERO);
        p.observe(Observation::Crash);
        assert_eq!(
            p.term(&1, ClientId(7)),
            Dur::from_secs(60) + Dur::from_millis(200)
        );
    }

    #[test]
    fn compensation_extends_distant_clients_only() {
        let mut p: CompensatedTerm<u64> =
            CompensatedTerm::new(Box::new(FixedTerm(Dur::from_secs(10))))
                .compensate(ClientId(7), Dur::from_millis(200));
        assert_eq!(p.term(&1, ClientId(0)), Dur::from_secs(10));
        assert_eq!(
            p.term(&1, ClientId(7)),
            Dur::from_secs(10) + Dur::from_millis(200)
        );
    }

    #[test]
    fn compensation_preserves_zero_and_infinite() {
        let mut zero: CompensatedTerm<u64> = CompensatedTerm::new(Box::new(FixedTerm(Dur::ZERO)))
            .compensate(ClientId(7), Dur::from_secs(1));
        assert_eq!(zero.term(&1, ClientId(7)), Dur::ZERO);
        let mut inf: CompensatedTerm<u64> = CompensatedTerm::new(Box::new(FixedTerm(Dur::MAX)))
            .compensate(ClientId(7), Dur::from_secs(1));
        assert_eq!(inf.term(&1, ClientId(7)), Dur::MAX);
    }
}
