//! Deterministic fault injection for the cluster tier.
//!
//! The chaos suite needs to break the router's view of its backends at
//! precise moments — a connection that dies mid-exchange, a response that
//! arrives corrupted, a health ping that stalls — and needs the breakage
//! to be *reproducible* so a failing run can be replayed from its seed.
//!
//! A [`FaultPlan`] is a list of [`FaultRule`]s, each naming an injection
//! point ([`FaultPoint`]), an optional backend filter, a firing pattern
//! ([`Firing`]) over that point's per-rule hit counter, and the
//! [`FaultAction`] to take when it fires.  The router consults the plan at
//! every named point; a plan built by [`FaultPlan::none`] never fires and
//! costs one relaxed load per check, so production paths carry the hooks
//! unconditionally.
//!
//! Determinism: rules fire as a pure function of (rule, hit number).  Hit
//! numbers are assigned in the order the router reaches the point, so a
//! single-connection, serial workload replays exactly; under concurrency
//! the *set* of decisions for a given interleaving is still seed-stable,
//! which is what the chaos suite's invariants (no lost accepted request,
//! bit-identical results) are written against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crosslight_neural::fingerprint::fingerprint;

/// A named point in the router where a fault may be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Once per request a backend link writes, before it is staged.
    BackendSend,
    /// Once per answer line a backend link reads, pongs included.
    BackendRecv,
    /// Once per ping a backend link sends, before it dials (when it has
    /// no socket) and writes the ping; `backend.send` never sees a ping.
    /// `Kill` fails the ping, `Stall` sleeps and then fails it, `Slow`
    /// sleeps and `Garble` corrupts the ping line.  A failed ping is a
    /// link death like any other.
    HealthProbe,
}

impl FaultPoint {
    /// All injection points, for exhaustive tests and catalogs.
    pub const ALL: [Self; 3] = [Self::BackendSend, Self::BackendRecv, Self::HealthProbe];

    /// The catalog name of this point (`backend.send`, `backend.recv`,
    /// `health.probe`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::BackendSend => "backend.send",
            Self::BackendRecv => "backend.recv",
            Self::HealthProbe => "health.probe",
        }
    }
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill the backend link, as if the peer died mid-burst.  At
    /// `health.probe` the ping fails outright, which kills the link too.
    Kill,
    /// Sleep this many milliseconds *and then fail* the operation — a peer
    /// that hangs past its deadline.  The router's per-hop timeouts bound
    /// the stall; callers should keep it below the request deadline or the
    /// request is (correctly) shed.
    Stall(u64),
    /// Sleep this many milliseconds and then proceed normally — a slow but
    /// healthy peer.  Adds latency without an error.
    Slow(u64),
    /// Corrupt the line crossing the boundary (bytes are flipped into an
    /// undecodable frame), as if the stream desynchronized.
    Garble,
}

/// When a rule fires, as a function of the rule's own hit counter
/// (0-based: the first matching hit is hit 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Firing {
    /// Fire on hits `after .. after + times`.
    Window {
        /// Matching hits to skip before firing.
        after: u64,
        /// Consecutive hits to fire on once reached (`u64::MAX` = forever).
        times: u64,
    },
    /// Fire on every hit where `(hit + phase) % period == 0` — a seeded
    /// sprinkle; build one with [`FaultRule::periodic_seeded`].
    Periodic {
        /// Distance between firing hits (clamped to at least 1).
        period: u64,
        /// Offset of the first firing hit within the period.
        phase: u64,
    },
}

impl Firing {
    fn fires_on(self, hit: u64) -> bool {
        match self {
            Self::Window { after, times } => hit >= after && hit.saturating_sub(after) < times,
            Self::Periodic { period, phase } => {
                let period = period.max(1);
                (hit.wrapping_add(phase)) % period == 0
            }
        }
    }
}

/// One injection rule: where, which backend, when, and what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// The injection point this rule watches.
    pub point: FaultPoint,
    /// Restrict to one backend index, or `None` for any backend.
    pub backend: Option<usize>,
    /// The firing pattern over this rule's hit counter.
    pub firing: Firing,
    /// The action taken when the rule fires.
    pub action: FaultAction,
}

impl FaultRule {
    /// A rule that fires exactly once, on the `nth` (0-based) matching hit.
    #[must_use]
    pub fn once(point: FaultPoint, backend: Option<usize>, nth: u64, action: FaultAction) -> Self {
        Self {
            point,
            backend,
            firing: Firing::Window {
                after: nth,
                times: 1,
            },
            action,
        }
    }

    /// A rule that fires on every matching hit.
    #[must_use]
    pub fn always(point: FaultPoint, backend: Option<usize>, action: FaultAction) -> Self {
        Self {
            point,
            backend,
            firing: Firing::Window {
                after: 0,
                times: u64::MAX,
            },
            action,
        }
    }

    /// A rule that fires once every `period` matching hits, at a phase
    /// offset derived deterministically from `seed` — the building block
    /// of seeded chaos sweeps: the same seed always garbles the same hits.
    #[must_use]
    pub fn periodic_seeded(
        point: FaultPoint,
        backend: Option<usize>,
        period: u64,
        seed: u64,
        action: FaultAction,
    ) -> Self {
        let period = period.max(1);
        let phase = fingerprint(&(seed, point.as_str(), backend)) % period;
        Self {
            point,
            backend,
            firing: Firing::Periodic { period, phase },
            action,
        }
    }
}

/// A shared, concurrency-safe set of fault rules with per-rule hit
/// counters and an injected-faults counter.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<(FaultRule, AtomicU64)>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// The empty plan: every [`check`](Self::check) returns `None`.
    #[must_use]
    pub fn none() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A plan executing the given rules.  Rules are checked in order and
    /// the *first* firing rule wins, so put specific rules before broad
    /// ones.
    #[must_use]
    pub fn new(rules: Vec<FaultRule>) -> Arc<Self> {
        Arc::new(Self {
            rules: rules
                .into_iter()
                .map(|rule| (rule, AtomicU64::new(0)))
                .collect(),
            injected: AtomicU64::new(0),
        })
    }

    /// Consults the plan at `point` for `backend`.  Every matching rule's
    /// hit counter advances (so rule windows are independent of each
    /// other); the first rule that fires decides the action.
    pub fn check(&self, point: FaultPoint, backend: usize) -> Option<FaultAction> {
        if self.rules.is_empty() {
            return None;
        }
        let mut fired: Option<FaultAction> = None;
        for (rule, hits) in &self.rules {
            if rule.point != point || rule.backend.is_some_and(|b| b != backend) {
                continue;
            }
            let hit = hits.fetch_add(1, Ordering::SeqCst);
            if fired.is_none() && rule.firing.fires_on(hit) {
                fired = Some(rule.action);
            }
        }
        if fired.is_some() {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        fired
    }

    /// Total faults injected so far — the chaos suite asserts this is
    /// nonzero to prove the plan actually exercised the failure paths.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Flips `line` into a string that can never decode as a protocol
    /// frame, deterministically from its content — the `Garble` payload.
    #[must_use]
    pub fn garble_line(line: &str) -> String {
        format!("\u{7f}garbled:{:016x}\u{7f}", fingerprint(&line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rules_fire_on_exactly_their_hits() {
        let plan = FaultPlan::new(vec![FaultRule::once(
            FaultPoint::BackendSend,
            Some(1),
            2,
            FaultAction::Kill,
        )]);
        // Wrong backend never advances the matching counter.
        assert_eq!(plan.check(FaultPoint::BackendSend, 0), None);
        // Hits 0 and 1 pass, hit 2 fires, hit 3 passes again.
        assert_eq!(plan.check(FaultPoint::BackendSend, 1), None);
        assert_eq!(plan.check(FaultPoint::BackendSend, 1), None);
        assert_eq!(
            plan.check(FaultPoint::BackendSend, 1),
            Some(FaultAction::Kill)
        );
        assert_eq!(plan.check(FaultPoint::BackendSend, 1), None);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn always_rules_fire_on_every_matching_hit_and_points_are_disjoint() {
        let plan = FaultPlan::new(vec![FaultRule::always(
            FaultPoint::HealthProbe,
            None,
            FaultAction::Garble,
        )]);
        for backend in 0..4 {
            assert_eq!(
                plan.check(FaultPoint::HealthProbe, backend),
                Some(FaultAction::Garble)
            );
        }
        assert_eq!(plan.check(FaultPoint::BackendRecv, 0), None);
        assert_eq!(plan.injected(), 4);
    }

    #[test]
    fn periodic_seeded_rules_are_deterministic_per_seed() {
        let fire_pattern = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(vec![FaultRule::periodic_seeded(
                FaultPoint::BackendRecv,
                None,
                5,
                seed,
                FaultAction::Slow(1),
            )]);
            (0..20)
                .map(|_| plan.check(FaultPoint::BackendRecv, 0).is_some())
                .collect()
        };
        let a = fire_pattern(7);
        assert_eq!(a, fire_pattern(7), "same seed must replay identically");
        assert_eq!(
            a.iter().filter(|&&fired| fired).count(),
            4,
            "period 5 over 20 hits"
        );
        // Some seed shifts the phase; find one rather than hard-coding.
        assert!(
            (0..64).any(|seed| fire_pattern(seed) != a),
            "phase must depend on the seed"
        );
    }

    #[test]
    fn garbled_lines_never_decode() {
        let garbled = FaultPlan::garble_line("{\"v\":1,\"id\":3,\"op\":\"ping\"}");
        assert!(crosslight_server::wire::decode_response(&garbled).is_err());
        assert!(crosslight_server::wire::decode_request(&garbled).is_err());
        // Nor does a backend link's peek take it for an answer.
        assert_eq!(crosslight_server::wire::peek_answer(&garbled), None);
    }

    #[test]
    fn empty_plan_is_free_of_fire() {
        let plan = FaultPlan::none();
        for point in FaultPoint::ALL {
            assert_eq!(plan.check(point, 0), None);
        }
        assert_eq!(plan.injected(), 0);
    }
}
