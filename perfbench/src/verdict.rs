//! Which verdict each prover must get, so every audit the benchmark
//! runs is also a correctness check.

use geoproof::core::auditor::{AuditReport, Violation};
use geoproof::crypto::chacha::ChaChaRng;

/// How a benchmark prover behaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProverClass {
    /// Serves its own file at loopback speed.
    Honest,
    /// Serves a file whose every tag is broken.
    Corrupt,
    /// Serves intact segments from behind a service delay longer than
    /// the whole Δt_max budget, as a relay to a remote site would.
    Relay,
}

/// True when `report` is exactly the verdict the auditor owes a
/// `class` prover whose rounds took `rtts_ns`, under a per-round budget
/// of `budget_ns`:
///
/// - every round over the budget carries a `TooSlow` violation, and no
///   other round does. Loopback rounds are far inside the budget, but
///   a host stall longer than Δt_max inside a round makes REJECT the
///   right verdict even for an honest prover;
/// - every round of a corrupt prover carries a `BadSegment` violation,
///   and no round of any other prover does;
/// - every round of a relay prover is over the budget;
/// - nothing else is violated, and the MAC-verified count matches.
pub fn matches(class: ProverClass, report: &AuditReport, rtts_ns: &[u64], budget_ns: u64) -> bool {
    let k = rtts_ns.len();
    let slow: Vec<usize> = (0..k).filter(|&i| rtts_ns[i] > budget_ns).collect();
    if class == ProverClass::Relay && slow.len() != k {
        return false;
    }
    let corrupt = class == ProverClass::Corrupt;
    let mut too_slow = Vec::new();
    let mut bad_segment = 0;
    for v in &report.violations {
        match v {
            Violation::TooSlow { round, .. } => too_slow.push(*round),
            Violation::BadSegment { .. } if corrupt => bad_segment += 1,
            _ => return false,
        }
    }
    too_slow.sort_unstable();
    let verified = if corrupt { 0 } else { k };
    too_slow == slow && bad_segment == k - verified && report.segments_ok == verified
}

/// Assigns `corrupt` and `relay` of `n` provers their class at
/// positions drawn from `seed`; the rest are honest.
pub fn fleet_classes(n: usize, corrupt: usize, relay: usize, seed: u64) -> Vec<ProverClass> {
    assert!(
        corrupt + relay <= n,
        "more misbehaving provers than provers"
    );
    let mut classes = vec![ProverClass::Honest; n];
    let mut rng = ChaChaRng::from_u64_seed(seed);
    let picks = rng.sample_distinct(n as u64, corrupt + relay);
    for (i, &p) in picks.iter().enumerate() {
        classes[p as usize] = if i < corrupt {
            ProverClass::Corrupt
        } else {
            ProverClass::Relay
        };
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoproof::sim::time::SimDuration;

    const BUDGET: u64 = 16_000_000;
    const FAST: u64 = 40_000;
    const SLOW: u64 = 17_000_000;

    fn report(violations: Vec<Violation>, segments_ok: usize) -> AuditReport {
        AuditReport {
            violations,
            max_rtt: SimDuration::from_nanos(1),
            segments_ok,
        }
    }

    fn too_slow(round: usize) -> Violation {
        Violation::TooSlow {
            round,
            rtt: SimDuration::from_nanos(SLOW),
        }
    }

    fn bad_segment(round: usize) -> Violation {
        Violation::BadSegment {
            round,
            segment: round as u64,
        }
    }

    #[test]
    fn honest_provers_must_be_accepted() {
        let h = ProverClass::Honest;
        let fast = [FAST, FAST];
        assert!(matches(h, &report(vec![], 2), &fast, BUDGET));
        assert!(
            !matches(h, &report(vec![], 1), &fast, BUDGET),
            "a segment went unverified"
        );
        assert!(!matches(h, &report(vec![too_slow(0)], 2), &fast, BUDGET));
        assert!(!matches(h, &report(vec![bad_segment(1)], 1), &fast, BUDGET));
    }

    #[test]
    fn a_stalled_round_must_be_rejected_for_any_class() {
        let stalled = [FAST, SLOW];
        let h = ProverClass::Honest;
        assert!(matches(h, &report(vec![too_slow(1)], 2), &stalled, BUDGET));
        assert!(
            !matches(h, &report(vec![], 2), &stalled, BUDGET),
            "a stall was accepted"
        );
        assert!(
            !matches(h, &report(vec![too_slow(0)], 2), &stalled, BUDGET),
            "wrong round"
        );
        let both = vec![bad_segment(0), bad_segment(1), too_slow(1)];
        assert!(matches(
            ProverClass::Corrupt,
            &report(both, 0),
            &stalled,
            BUDGET
        ));
        // Exactly the budget is still in time.
        assert!(matches(h, &report(vec![], 1), &[BUDGET], BUDGET));
    }

    #[test]
    fn corrupt_provers_fail_every_mac() {
        let c = ProverClass::Corrupt;
        let fast = [FAST, FAST];
        assert!(matches(
            c,
            &report(vec![bad_segment(0), bad_segment(1)], 0),
            &fast,
            BUDGET
        ));
        assert!(
            !matches(c, &report(vec![bad_segment(0)], 1), &fast, BUDGET),
            "one MAC passed"
        );
        assert!(
            !matches(c, &report(vec![], 2), &fast, BUDGET),
            "a corrupt file was accepted"
        );
    }

    #[test]
    fn relay_provers_are_too_slow_in_every_round() {
        let r = ProverClass::Relay;
        let all = vec![too_slow(0), too_slow(1)];
        assert!(matches(r, &report(all, 2), &[SLOW, SLOW], BUDGET));
        assert!(
            !matches(r, &report(vec![too_slow(0)], 2), &[SLOW, FAST], BUDGET),
            "a fast round"
        );
        assert!(
            !matches(r, &report(vec![], 2), &[SLOW, SLOW], BUDGET),
            "a relay was accepted"
        );
    }

    #[test]
    fn fleet_classes_are_seeded_and_counted() {
        let a = fleet_classes(200, 4, 2, 7);
        assert_eq!(a, fleet_classes(200, 4, 2, 7));
        assert_ne!(a, fleet_classes(200, 4, 2, 8));
        let count = |c| a.iter().filter(|&&x| x == c).count();
        assert_eq!(count(ProverClass::Corrupt), 4);
        assert_eq!(count(ProverClass::Relay), 2);
        assert_eq!(count(ProverClass::Honest), 194);
    }
}
