//! Bit-identity pins for the dispatch layer.
//!
//! The dispatch models are assembled by one builder per formulation and
//! solved through one rung table; any change to variable or row order, a
//! coefficient, the objective, or which solver answers shows up here as a
//! changed fingerprint. Each fingerprint is FNV-1a over the `f64::to_bits`
//! bytes of the pinned vectors, so the pins hold only for bit-identical
//! answers — a tolerance would hide exactly the drift these tests exist to
//! catch.
//!
//! `ED_PRESOLVE=1` routes every simplex solve (including the active-set
//! phase 1) through presolve/postsolve: deterministic and equal to solver
//! tolerance, but not bit-identical to the direct path. Each pin therefore
//! carries one fingerprint per presolve setting.

use ed_security::cases;
use ed_security::core::dispatch::{DcOpf, DispatchRung, Formulation, ResilientDispatcher};
use ed_security::optim::budget::SolveBudget;
use ed_security::optim::model::presolve;
use ed_security::optim::Trust;
use ed_security::powerflow::{fnv1a, Network};

/// FNV-1a over the little-endian bit patterns of every value, in order.
fn bits<'a>(vectors: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    fnv1a(vectors.into_iter().flat_map(|v| v.iter().flat_map(|x| x.to_bits().to_le_bytes())))
}

fn quadratic_three_bus() -> Network {
    cases::three_bus_with(&cases::ThreeBusConfig { quadratic: true, ..Default::default() })
}

/// The pinned networks, by name.
fn cases() -> Vec<(&'static str, Network)> {
    vec![
        ("three_bus", cases::three_bus()),
        ("three_bus_quadratic", quadratic_three_bus()),
        ("six_bus", cases::six_bus()),
        ("ieee118_like", cases::ieee118_like()),
    ]
}

/// Compares computed fingerprints against their pins — `(name, presolve
/// off, presolve on)` — reporting every mismatch at once, with the
/// computed value ready to paste.
fn check(what: &str, got: &[(String, u64)], pins: &[(&str, u64, u64)]) {
    let on = presolve::env_enabled();
    let got_names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let pin_names: Vec<&str> = pins.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(got_names, pin_names, "{what}: pinned case list changed");
    let diffs: Vec<String> = got
        .iter()
        .zip(pins)
        .map(|((n, g), &(_, off_pin, on_pin))| (n, *g, if on { on_pin } else { off_pin }))
        .filter(|(_, g, p)| g != p)
        .map(|(n, g, p)| format!("  {n}: {g:#018x} (pinned {p:#018x})"))
        .collect();
    let mode = if on { "on" } else { "off" };
    assert!(diffs.is_empty(), "{what} (presolve {mode}): moved:\n{}", diffs.join("\n"));
}

#[test]
fn dcopf_solve_is_bit_identical() {
    const PINS: &[(&str, u64, u64)] = &[
        ("three_bus/angle", 0x9b1d_2c6c_41f2_faa3, 0xac39_9cb6_0775_0ddb),
        ("three_bus/ptdf", 0xac39_9cb6_0775_0ddb, 0xac39_9cb6_0775_0ddb),
        ("three_bus_quadratic/angle", 0xcc86_34ae_ab6b_19e3, 0x270a_20fa_0ab0_8fc4),
        ("three_bus_quadratic/ptdf", 0xdff5_f4a0_138a_9941, 0xdff5_f4a0_138a_9941),
        ("six_bus/angle", 0x083f_6b71_aeb1_418e, 0x8aca_9815_70e1_e076),
        ("six_bus/ptdf", 0xb44d_f0ba_ccc9_c6b1, 0xb44d_f0ba_ccc9_c6b1),
        ("ieee118_like/angle", 0x6985_9619_a2c9_5fc2, 0x9937_c84c_bd0b_21f6),
        ("ieee118_like/ptdf", 0x160f_185c_7943_8726, 0x160f_185c_7943_8726),
    ];
    let mut got = Vec::new();
    for (name, net) in cases() {
        for (form, f) in [("angle", Formulation::Angle), ("ptdf", Formulation::Ptdf)] {
            let d = DcOpf::new(&net).formulation(f).solve().expect("nominal case dispatches");
            let cost = [d.cost];
            let h = bits([&d.p_mw[..], &d.lmp[..], &d.flows_mw[..], &cost[..]]);
            got.push((format!("{name}/{form}"), h));
        }
    }
    check("DcOpf::solve", &got, PINS);
}

#[test]
fn resilient_dispatch_rung_and_generation_are_bit_identical() {
    use DispatchRung::{ActiveSetQp, LpApprox};
    const PINS: &[(&str, DispatchRung, u64, u64)] = &[
        ("three_bus", LpApprox, 0x332f_1f45_0ba7_3357, 0xb7c8_29a1_92be_0ced),
        ("three_bus_quadratic", ActiveSetQp, 0x332f_1f45_0ba7_3357, 0xb7c8_29a1_92be_0ced),
        ("six_bus", ActiveSetQp, 0xb8c5_d389_eb52_1662, 0x0dff_e30b_1ea8_fb44),
        ("ieee118_like", ActiveSetQp, 0x4c0c_60fd_9fc4_9e30, 0x4c0c_60fd_9fc4_9e30),
    ];
    let mut got = Vec::new();
    for ((name, net), (_, rung, _, _)) in cases().into_iter().zip(PINS) {
        let rd = ResilientDispatcher::new()
            .dispatch(
                &net,
                &net.demand_vector_mw(),
                &net.static_ratings_mva(),
                &SolveBudget::unlimited(),
            )
            .expect("nominal case dispatches");
        assert_eq!(rd.rung, *rung, "{name}: {:?}", rd.degradations);
        assert!(rd.is_clean(), "{name}: {:?}", rd.degradations);
        got.push((name.to_string(), bits([&rd.dispatch.p_mw[..]])));
    }
    let pins: Vec<(&str, u64, u64)> = PINS.iter().map(|&(n, _, off, on)| (n, off, on)).collect();
    check("ResilientDispatcher::dispatch", &got, &pins);
}

#[test]
fn certified_dispatch_trust_and_generation_are_bit_identical() {
    const PINS: &[(&str, u64, u64)] = &[
        ("three_bus", 0x332f_1f45_0ba7_3357, 0xb7c8_29a1_92be_0ced),
        ("six_bus", 0xc5db_4a07_8a92_e66d, 0x94a4_409c_3444_d99e),
    ];
    let mut got = Vec::new();
    for (name, net) in [("three_bus", cases::three_bus()), ("six_bus", cases::six_bus())] {
        let out = DcOpf::new(&net)
            .solve_certified(&SolveBudget::unlimited())
            .expect("nominal case dispatches");
        assert_eq!(out.trust, Trust::Certified, "{name}: {:?}", out.repairs);
        let d = out.dispatch.expect("a certified answer carries a dispatch");
        got.push((name.to_string(), bits([&d.p_mw[..]])));
    }
    check("DcOpf::solve_certified", &got, PINS);
}
