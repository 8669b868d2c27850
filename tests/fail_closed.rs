//! Fail-closed edge coverage across the stack (ISSUE PR 6, satellite 3):
//! corrupted-sensor values at the gate and monitor, an empty attack set,
//! and an already-expired deadline at service admission. Every case must
//! produce a typed "no" — never a panic, never a silently-wrong number.

use ed_core::attack::{optimal_attack, AttackConfig};
use ed_core::dispatch::{DcOpf, SafetyGate, SafetyViolation};
use ed_core::mitigation::{DlrFlag, DlrMonitor};
use ed_core::CoreError;

// --- SafetyGate on corrupted ratings ---------------------------------

fn gate_check_with_rating(bad: f64) -> ed_core::dispatch::SafetyReport {
    let net = ed_cases::three_bus();
    let demand = net.demand_vector_mw();
    let mut ratings = net.static_ratings_mva();
    ratings[0] = bad;
    let dispatch = DcOpf::new(&net).solve().expect("clean case solves");
    let gate = SafetyGate::new(&net).expect("three-bus factors");
    gate.check(&demand, &ratings, &dispatch)
}

#[test]
fn safety_gate_rejects_nan_rating() {
    let report = gate_check_with_rating(f64::NAN);
    assert!(!report.passed());
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, SafetyViolation::NonFinite { what } if what.contains("rating"))),
        "{report:?}"
    );
}

#[test]
fn safety_gate_rejects_infinite_rating() {
    // +inf would make any flow "within rating" in a naive comparison —
    // the gate must treat an uncheckable line as a violation instead.
    let report = gate_check_with_rating(f64::INFINITY);
    assert!(!report.passed(), "{report:?}");
}

#[test]
fn safety_gate_rejects_negative_rating() {
    let report = gate_check_with_rating(-160.0);
    assert!(!report.passed(), "{report:?}");
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, SafetyViolation::NonFinite { what } if what.contains("rating"))),
        "{report:?}"
    );
}

// --- DlrMonitor on corrupted readings --------------------------------

#[test]
fn dlr_monitor_flags_nan_and_infinite_readings() {
    let mut m = DlrMonitor::default();
    m.prime(&[160.0, 160.0]);
    let flags = m.observe(&[f64::NAN, f64::INFINITY]);
    assert_eq!(
        flags.iter().filter(|f| matches!(f, DlrFlag::NonFinite { .. })).count(),
        2,
        "{flags:?}"
    );
    // The poisoned reading must not wedge the monitor: a following clean
    // reading is judged normally (no stale-NaN rate-of-change noise).
    let flags = m.observe(&[160.0, 160.0]);
    assert!(flags.is_empty(), "{flags:?}");
}

#[test]
fn dlr_monitor_flags_negative_reading_below_envelope() {
    let mut m = DlrMonitor::default();
    m.prime(&[160.0]);
    let flags = m.observe(&[-50.0]);
    assert!(
        flags.iter().any(|f| matches!(f, DlrFlag::BelowEnvelope { .. })),
        "a negative rating is physically impossible and must be flagged: {flags:?}"
    );
}

// --- Empty attack set -------------------------------------------------

#[test]
fn empty_dlr_set_is_typed_invalid_input() {
    let net = ed_cases::three_bus();
    let config = AttackConfig::new(Vec::new());
    match optimal_attack(&net, &config) {
        Err(CoreError::InvalidInput { what }) => {
            assert!(what.contains("no DLR lines"), "{what}")
        }
        other => panic!("empty E_D must be a typed refusal, got {other:?}"),
    }
}

// --- Expired deadline at service admission ---------------------------

#[test]
fn expired_deadline_is_refused_at_admission_not_solved() {
    let server = ed_serve::Server::start(ed_serve::handlers::ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 2,
        default_deadline_ms: 2_000,
        allow_chaos: false,
        atlas_journal: None,
    })
    .expect("test server");
    let hdr = [("x-deadline-ms", "0".to_string())];
    let (status, body) = ed_serve::chaos::exchange(
        server.addr(),
        "POST",
        "/dispatch",
        &hdr,
        "{\"case\":\"three_bus\"}",
    )
    .expect("transport");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("deadline_expired_at_admission"), "{body}");
    // Chaos hooks must be dead on a production-configured server.
    let (status, body) = ed_serve::chaos::exchange(
        server.addr(),
        "POST",
        "/dispatch",
        &[],
        "{\"case\":\"three_bus\",\"chaos\":\"panic\"}",
    )
    .expect("transport");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("chaos_disabled"), "{body}");
    server.shutdown();
}

// --- Active-set perturbation retry on DLR-perturbed 118-bus dispatch ---

/// Two DLR-perturbed 118-bus dispatches on which the plain active-set pass
/// stalls at its iteration limit. The perturbed retry used to loosen the
/// constraints and return an answer up to ~0.017 MW outside generator
/// limits, which the gate refused; a retry may now only answer inside the
/// original constraints, otherwise the ladder moves to the next rung.
/// Scenarios are drawn as a dispatch service load mix draws them: seed 2,
/// per scenario a load level in `[0.97, 1.03)`, then one rating factor in
/// `[1, 1.15)` per line in line order; #30 and #175 are the two that
/// stalled.
#[test]
fn dlr_perturbed_118_dispatch_retry_passes_the_safety_gate() {
    use ed_core::dispatch::{DispatchRung, ResilientDispatcher};
    use ed_optim::budget::SolveBudget;
    use ed_rng::{Rng, SeedableRng, StdRng};

    let net = ed_cases::ieee118_like();
    let factors = ed_powerflow::FactorCache::shared(&net).expect("118-bus factors");
    let mut rng = StdRng::seed_from_u64(2);
    for scenario in 0..=175 {
        let level: f64 = rng.gen_range(0.97..1.03);
        let ratings: Vec<f64> =
            net.lines().iter().map(|l| l.rating_mva * rng.gen_range(1.0..1.15)).collect();
        if scenario != 30 && scenario != 175 {
            continue;
        }
        let demand: Vec<f64> = net.buses().iter().map(|b| b.demand_mw * level).collect();
        let rd = ResilientDispatcher::new()
            .dispatch_with_factors(
                &net,
                &demand,
                &ratings,
                &SolveBudget::unlimited(),
                Some(factors.clone()),
            )
            .expect("a feasible interval dispatches");
        let safety = rd.safety.as_ref().expect("every dispatch is audited");
        assert!(safety.passed(), "scenario #{scenario} (level {level}): {safety:?}");
        // Both scenarios stall the active set and are answered one rung
        // down, by the interior point: the escalation order is pinned.
        assert_eq!(rd.rung, DispatchRung::InteriorPoint, "scenario #{scenario}");
        assert_eq!(rd.degradations[0].rung, DispatchRung::ActiveSetQp, "scenario #{scenario}");
    }
}
