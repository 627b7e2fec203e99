"""Acceptance gate: one test per headline requirement of the simulator.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and asserts the same condition, so the suite
doubles as a human-readable checklist:

 1. derived formulation/geometry numbers hit their targets within 1 %
 2. saturation-pressure correlations anchor at the triple and boiling points
 3. transport magnitudes: Biot numbers, diffusion and desorption times
 4. lumped-capacitance limit of the cylinder conduction series
 5. mass and energy bookkeeping of the simulated stages
 6. stiff integrator accuracy, grid convergence, event localization
 7. stochastic nucleation statistics and seeded reproducibility
 8. condenser-failure coupling: saturated plateau, slower and hotter run
 9. full-cycle runtime budget
10. optional comparison against externally supplied measurements; set
    LYOSIM_VALIDATION_DATA to a directory holding ``validation.json``
    (keys ``temperature_csv``, ``primary_duration_s``, ``moisture_csv``)
    to enable it, otherwise it is skipped.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from lyosim.analysis import (biot_number, cylinder_transient_theta,
                             effective_diffusivity, lumped_theta, time_scales,
                             PorousMedium)
from lyosim.compare import ReferenceSeries, compare_with_reference
from lyosim.drying_primary import run_primary, sublimation_flux
from lyosim.drying_secondary import run_secondary
from lyosim.freezing import (STAGE_FINAL_COOLING, STAGE_SOLIDIFICATION,
                             first_nucleation_time, nucleation_hazard,
                             run_freezing)
from lyosim.pipeline import run_full_cycle
from lyosim.scenario import load_scenario
from lyosim.solver import IntegratorConfig, integrate_adaptive
from lyosim.thermo import (STEFAN_BOLTZMANN, freezing_point, linearized_radiation_htc,
                           mixture_properties, overall_htc_cylinder,
                           overall_htc_slab, psat_evaporation,
                           psat_sublimation, Formulation)

P_TRIPLE = 611.657          # Pa
P_ATM = 101325.0            # Pa


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _node_weights(n: int) -> np.ndarray:
    w = np.full(n, 1.0 / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@pytest.fixture(scope="module")
def defaults():
    return load_scenario("defaults").parameters()


@pytest.fixture(scope="module")
def cycle_default(defaults):
    return run_full_cycle(defaults)


@pytest.fixture(scope="module")
def primary_base(defaults, stage_settings):
    return run_primary(defaults.primary_initial_T, defaults.primary,
                       defaults.radiation, defaults.geometry,
                       config=defaults.integrator, **stage_settings("primary"))


# --------------------------------------------------------------------------
# 1. derived formulation and fill-geometry numbers


def test_criterion_1_formulation_targets():
    mx = mixture_properties(Formulation())
    targets = {"m_s": (mx.m_s, 1.53e-4), "m_w0": (mx.m_w0, 2.9e-3),
               "rho_f": (mx.rho_f, 937.0), "H": (mx.H, 7.2e-3)}
    errs = {k: abs(v / ref - 1.0) for k, (v, ref) in targets.items()}
    ok = all(e < 0.01 for e in errs.values())
    detail = ", ".join(f"{k} off by {100 * e:.3f}%" for k, e in errs.items())
    _report(1, ok, detail)


# --------------------------------------------------------------------------
# 2. saturation-pressure anchors


def test_criterion_2_saturation_anchors():
    e_sub = abs(psat_sublimation(273.15) / P_TRIPLE - 1.0)
    e_evap_tp = abs(psat_evaporation(273.15) / P_TRIPLE - 1.0)
    e_boil = abs(psat_evaporation(373.15) / P_ATM - 1.0)
    ok = e_sub < 0.01 and e_evap_tp < 0.01 and e_boil < 0.005
    _report(2, ok, f"triple point: sublimation {100 * e_sub:.3f}%, evaporation "
                   f"{100 * e_evap_tp:.3f}%; boiling point {100 * e_boil:.4f}%")


# --------------------------------------------------------------------------
# 3. transport magnitudes


def _transport_block():
    return load_scenario("defaults").transport()


def test_criterion_3_transport_magnitudes():
    block = _transport_block()
    bi = {e["label"]: biot_number(e["htc_W_per_m2K"], e["length_m"],
                                  e["conductivity_W_per_mK"])
          for e in block["biot"]}
    medium = PorousMedium(porosity=block["porosity"],
                          tortuosity=block["tortuosity"],
                          pore_radius=block["pore_radius_m"],
                          D_gas=block["gas_diffusivity_m2_per_s"])
    diff = effective_diffusivity(medium, block["temperature_K"],
                                 block["molar_mass_g_per_mol"])
    scales = time_scales(block["length_scale_m"], diff.D_e,
                         block["desorption_rate_per_s"])
    e_diff = abs(scales.diffusion_s / 7.5 - 1.0)
    e_des = abs(scales.desorption_s / (3.6 * 3600.0) - 1.0)
    ok = (round(bi["gas_film"], 3) == 0.043
          and round(bi["shelf_contact"], 2) == 0.35
          and e_diff < 0.05 and e_des < 0.02)
    _report(3, ok, f"Bi = {bi['gas_film']:.4f} / {bi['shelf_contact']:.4f}, "
                   f"t_diff off 7.5 s by {100 * e_diff:.2f}%, "
                   f"t_des off 3.6 h by {100 * e_des:.2f}%")


# --------------------------------------------------------------------------
# 4. lumped-capacitance limit of the conduction series


def _crossing_time(Fo: np.ndarray, theta: np.ndarray, level: float) -> float:
    below = np.nonzero(theta < level)[0]
    i = below[0]
    t0, t1 = Fo[i - 1], Fo[i]
    y0, y1 = theta[i - 1], theta[i]
    return t0 + (level - y0) * (t1 - t0) / (y1 - y0)


def test_criterion_4_lumped_vs_series():
    Fo = np.linspace(0.0, 10.0, 401)
    diff_small = np.max(np.abs(cylinder_transient_theta(0.043, Fo, n_terms=60)
                               - lumped_theta(0.043, Fo)))
    Fo_wide = np.linspace(0.0, 20.0, 2001)
    t_series = _crossing_time(Fo_wide,
                              cylinder_transient_theta(0.35, Fo_wide, n_terms=60),
                              0.01)
    t_lumped = _crossing_time(Fo_wide, lumped_theta(0.35, Fo_wide), 0.01)
    spread = abs(t_series - t_lumped) / t_lumped
    ok = diff_small < 0.02 and spread < 0.25
    _report(4, ok, f"Bi=0.043 max deviation {diff_small:.4f}; Bi=0.35 "
                   f"cooldown times differ by {100 * spread:.1f}%")


# --------------------------------------------------------------------------
# 5. mass and energy bookkeeping


def _solidification_energy_residual(freeze, params) -> float:
    """Relative energy closure of the solidification stage, by trapezoidal
    quadrature of the reconstructed heat flows against the sampled states."""
    sysm = params.freezing_system()
    p, mx, rad = sysm.protocol, sysm.mixture, sysm.radiation
    f = mx.formulation
    idx = [i for i, s in enumerate(freeze.stage) if s == STAGE_SOLIDIFICATION]
    t = freeze.t[idx]
    T = freeze.series["temperature_avg_K"][idx]
    m_w = freeze.series["water_mass_kg"][idx]
    m_i = freeze.series["ice_mass_kg"][idx]

    nuc = freeze.meta["nucleation"]
    t_nuc = freeze.events["nucleation_s"]
    h_rad = linearized_radiation_htc(
        rad.F_side, 0.5 * (nuc["post_temperature_K"] + p.wall_temperature(t_nuc)))
    h_fill = f.V_l / mx.A_z
    r_o = mx.d / 2.0
    Q = np.empty_like(t)
    for k in range(t.shape[0]):
        V_liq = mx.m_s / f.rho_s + m_w[k] / f.rho_w
        V_tot = V_liq + m_i[k] / f.rho_i
        scale = (V_liq / f.V_l) ** (1.0 / 3.0)
        ell = max(V_tot / mx.A_z - h_fill * scale, 0.0)
        r_core = r_o * scale
        A_r = 4.0 * V_tot / mx.d
        T_g = p.gas_temperature(t[k])
        q = p.h_top * mx.A_z * (p.upper_temperature(t[k]) - T[k])
        q += overall_htc_slab(p.h_bottom, ell, f.k_i) * mx.A_z * (T_g - T[k])
        q += overall_htc_cylinder(p.h_side, r_o, r_core, f.k_i) * A_r * (T_g - T[k])
        q += (overall_htc_cylinder(h_rad, r_o, r_core, f.k_i) * A_r
              * (p.wall_temperature(t[k]) - T[k]))
        Q[k] = q
    C = mx.m_s * f.Cp_s + m_w * f.Cp_w
    E_sens = float(np.sum(0.5 * (C[1:] + C[:-1]) * np.diff(T)))
    E_latent = p.dH_fus * float(m_i[-1] - m_i[0])
    E_in = float(np.trapezoid(Q, t))
    scale = max(abs(E_sens), abs(E_latent), abs(E_in))
    return abs(E_sens - E_latent - E_in) / scale


def _primary_energy_residual(primary, params) -> float:
    """Relative energy closure of primary drying over the resolved window
    (the final extrapolated sliver-removal row is excluded)."""
    dp, rad, geom = params.primary, params.radiation, params.geometry
    T = primary.fields["temperature_K"][:-1]
    S = primary.series["front_position_m"][:-1]
    N = primary.series["sublimation_flux_kg_per_m2s"][:-1]
    t = primary.t[:-1]
    w = _node_weights(T.shape[1])
    A_z, H = geom.A_z, geom.H
    rho_cp = dp.rho_f * dp.Cp_f

    U = rho_cp * A_z * (H - S) * (T @ w)
    T_b = np.array([dp.shelf_temperature(tk) for tk in t])
    T_u = np.array([dp.upper_temperature(tk) for tk in t])
    T_c = np.array([dp.wall_temperature(tk) for tk in t])
    Q = A_z * (dp.h_b * (T_b - T[:, -1])
               + STEFAN_BOLTZMANN * rad.F_top * (T_u**4 - T[:, 0]**4)
               + STEFAN_BOLTZMANN * rad.F_side * (4.0 * H / geom.d)
               * ((T_c[:, None]**4 - T**4) @ w)
               - N * dp.dH_sub)
    # enthalpy advected out with the receding front
    Q -= rho_cp * A_z * (N / (dp.rho_f - dp.rho_e)) * T[:, 0]
    resid = (U[-1] - U[0]) - float(np.trapezoid(Q, t))
    scale = float(np.trapezoid(A_z * N * dp.dH_sub, t))
    return abs(resid) / scale


def _secondary_energy_residual(secondary, params) -> float:
    """Relative energy closure of secondary drying: stored heat against
    boundary flows and the desorption sink."""
    kin, rad = params.secondary, params.radiation
    cond, geom = params.secondary_conditions, params.geometry
    T = secondary.fields["temperature_K"]
    c = secondary.fields["bound_water_kg_per_kg"]
    t = secondary.t
    w = _node_weights(T.shape[1])
    A_z, H = geom.A_z, geom.H

    dU = kin.rho_e * kin.Cp_e * A_z * H * float((T[-1] - T[0]) @ w)
    T_b = np.array([cond.shelf_temperature(tk) for tk in t])
    T_u = np.array([cond.upper_temperature(tk) for tk in t])
    T_c = np.array([cond.wall_temperature(tk) for tk in t])
    Q = A_z * (cond.h_b * (T_b - T[:, -1])
               + STEFAN_BOLTZMANN * rad.F_top * (T_u**4 - T[:, 0]**4)
               + STEFAN_BOLTZMANN * rad.F_side * (4.0 * H / geom.d)
               * ((T_c[:, None]**4 - T**4) @ w))
    E_in = float(np.trapezoid(Q, t))
    E_des = kin.rho_d * kin.dH_des * A_z * H * float((c[-1] - c[0]) @ w)
    scale = max(abs(dU), abs(E_in), abs(E_des))
    return abs(dU - E_in - E_des) / scale


def test_criterion_5_mass_and_energy_closure(cycle_default, defaults, stage_settings):
    freeze = cycle_default.freezing
    # (a) solidification water inventory, sample by sample
    sel = [i for i, s in enumerate(freeze.stage)
           if s in (STAGE_SOLIDIFICATION, STAGE_FINAL_COOLING)]
    total = (freeze.series["water_mass_kg"][sel]
             + freeze.series["ice_mass_kg"][sel])
    nuc = freeze.meta["nucleation"]
    expected = nuc["water_mass_kg"] + nuc["ice_mass_kg"]
    mass_err = float(np.max(np.abs(total - expected)))
    mass_ok = mass_err <= 4.0 * np.spacing(expected)

    # (b) per-stage energy closures by post-hoc quadrature; the drying
    # stages are resampled finely so the trapezoid rule resolves their
    # initial boundary-layer transients (tau ~ 1 min against 6 h stages)
    d = defaults
    primary_fine = run_primary(d.primary_initial_T, d.primary, d.radiation,
                               d.geometry, config=d.integrator,
                               **stage_settings("primary", samples=3000))
    secondary_fine = run_secondary(d.secondary_initial_T,
                                   d.bound_water_profile(), d.secondary,
                                   d.radiation, d.secondary_conditions,
                                   d.geometry, config=d.integrator,
                                   **stage_settings("secondary", samples=3000))
    e_sol = _solidification_energy_residual(freeze, defaults)
    e_pri = _primary_energy_residual(primary_fine, defaults)
    e_sec = _secondary_energy_residual(secondary_fine, defaults)
    energy_ok = max(e_sol, e_pri, e_sec) < 0.005

    # (c) full-cycle water closure with a self-consistent inventory
    scn = load_scenario("defaults")
    scn.data["pipeline"]["consistent_water"] = True
    closure = run_full_cycle(scn.parameters()).water_balance["closure_relative"]
    water_ok = abs(closure) < 0.01

    ok = mass_ok and energy_ok and water_ok
    _report(5, ok, f"solidification mass residual {mass_err:.2e} kg; energy "
                   f"closures {100 * e_sol:.3f}% / {100 * e_pri:.3f}% / "
                   f"{100 * e_sec:.3f}% (solidification/primary/secondary); "
                   f"cycle water closure {100 * abs(closure):.3f}%")


# --------------------------------------------------------------------------
# 6. integrator accuracy, grid convergence, event localization


def test_criterion_6_solver_accuracy(defaults, primary_base, stage_settings):
    rtol = 1.0e-6
    config = IntegratorConfig(rtol=rtol, atol=1.0e-12)

    # stiff linear pair: track the slow component past the initial layer
    A = np.array([[-1000.0, 0.0], [1.0, -1.0]])
    res = integrate_adaptive(lambda t, y: A @ y, (0.0, 5.0), [1.0, 0.0], config)
    ts = np.linspace(0.5, 5.0, 200)
    exact = (np.exp(-ts) - np.exp(-1000.0 * ts)) / 999.0
    e_pair = float(np.max(np.abs(res.sol(ts)[1] - exact) / exact))

    # stiff scalar problem relaxing onto a slow attractor
    lam = -1000.0
    res = integrate_adaptive(
        lambda t, y: np.array([lam * (y[0] - math.cos(t)) - math.sin(t)]),
        (0.0, 10.0), [1.0], config)
    ts = np.linspace(0.1, 10.0, 300)
    e_attr = float(np.max(np.abs(res.sol(ts)[0] - np.cos(ts))))
    stiff_ok = e_pair < 10.0 * rtol and e_attr < 10.0 * rtol

    # grid doubling moves the drying endpoints by less than 1 %
    d = defaults
    t_d1 = primary_base.meta["duration_s"]
    t_d1_coarse = run_primary(d.primary_initial_T, d.primary, d.radiation,
                              d.geometry, config=d.integrator,
                              **stage_settings("primary", n_z=26)).meta["duration_s"]
    t_d2 = run_secondary(d.secondary_initial_T, d.bound_water_profile(),
                         d.secondary, d.radiation, d.secondary_conditions,
                         d.geometry, config=d.integrator,
                         **stage_settings("secondary")).meta["duration_s"]
    t_d2_coarse = run_secondary(d.secondary_initial_T, np.full(26, 0.088),
                                d.secondary, d.radiation, d.secondary_conditions,
                                d.geometry, config=d.integrator,
                                **stage_settings("secondary", n_z=26)).meta["duration_s"]
    g1 = abs(t_d1_coarse / t_d1 - 1.0)
    g2 = abs(t_d2_coarse / t_d2 - 1.0)
    grid_ok = g1 < 0.01 and g2 < 0.01

    # halving rtol moves the located stage-end events by less than 0.1 %
    tight = IntegratorConfig(rtol=d.integrator.rtol / 2.0, atol=d.integrator.atol)
    t_d1_tight = run_primary(d.primary_initial_T, d.primary, d.radiation,
                             d.geometry, config=tight,
                             **stage_settings("primary")).meta["duration_s"]
    t_d2_tight = run_secondary(d.secondary_initial_T, d.bound_water_profile(),
                               d.secondary, d.radiation, d.secondary_conditions,
                               d.geometry, config=tight,
                               **stage_settings("secondary")).meta["duration_s"]
    l1 = abs(t_d1_tight / t_d1 - 1.0)
    l2 = abs(t_d2_tight / t_d2 - 1.0)
    event_ok = l1 < 0.001 and l2 < 0.001

    ok = stiff_ok and grid_ok and event_ok
    _report(6, ok, f"closed-form errors {e_pair / rtol:.1f}/{e_attr / rtol:.1f} "
                   f"x rtol; grid shifts {100 * g1:.2f}% / {100 * g2:.2f}%; "
                   f"event shifts {100 * l1:.3f}% / {100 * l2:.3f}%")


# --------------------------------------------------------------------------
# 7. stochastic nucleation statistics and reproducibility


def test_criterion_7_nucleation_statistics(stage_settings):
    params = load_scenario("stochastic_freezing").parameters()
    sysm = params.freezing_system()
    mx = params.mixture
    T_eq = freezing_point(mx.m_s, mx.m_w0, mx.formulation)
    T_held = T_eq - 9.0  # supercooling deep enough for a short mean wait
    lam = nucleation_hazard(T_held, mx.m_w0, sysm)

    n_trials = 10_000
    rng = np.random.default_rng(1789)
    times = np.array([first_nucleation_time(T_held, mx.m_w0, sysm, rng,
                                            t_max=200.0)
                      for _ in range(n_trials)], dtype=float)
    assert not np.any(np.isnan(times))
    mean = float(np.mean(times))
    se = float(np.std(times, ddof=1)) / math.sqrt(n_trials)
    stat_ok = abs(mean - 1.0 / lam) < 3.0 * se

    # seeded runs of the full stochastic freeze are bit-for-bit identical
    base = load_scenario("stochastic_freezing").parameters()
    runs = [run_freezing(base.initial_vial_state(), base.freezing_system(),
                         base.integrator, rng=np.random.default_rng(77),
                         **stage_settings("freezing"))
            for _ in range(2)]
    same = (np.array_equal(runs[0].t, runs[1].t)
            and all(np.array_equal(runs[0].series[k], runs[1].series[k])
                    for k in runs[0].series))
    other = run_freezing(base.initial_vial_state(), base.freezing_system(),
                         base.integrator, rng=np.random.default_rng(78),
                         **stage_settings("freezing"))
    differs = other.events["nucleation_s"] != runs[0].events["nucleation_s"]

    ok = stat_ok and same and differs
    _report(7, ok, f"mean wait {mean:.3f} s vs 1/lambda {1.0 / lam:.3f} s "
                   f"({abs(mean - 1.0 / lam) / se:.2f} SE over {n_trials} "
                   f"trials); seeded runs identical: {same}")


# --------------------------------------------------------------------------
# 8. condenser failure coupling


def test_criterion_8_condenser_failure(defaults, primary_base, stage_settings):
    d = defaults
    failure = run_primary(d.primary_initial_T, d.primary, d.radiation, d.geometry,
                          chamber=d.chamber, config=d.integrator,
                          **stage_settings("primary"))
    p = failure.series["chamber_water_pressure_Pa"]
    T_top = failure.series["temperature_top_K"]
    S = failure.series["front_position_m"]
    start_ok = abs(p[0] - d.chamber.p_setpoint) < 0.5
    i = int(np.argmax(p))
    load = (d.chamber.n_vial * d.geometry.A_z
            * sublimation_flux(T_top[i], S[i], d.primary, p[i]))
    balance = abs(load - d.chamber.j_w_max) / d.chamber.j_w_max
    plateau_ok = balance < 1.0e-3 and 10.0 < p[i] < 40.0

    slower = failure.meta["duration_s"] > primary_base.meta["duration_s"]
    hotter = (float(np.max(failure.fields["temperature_K"]))
              > float(np.max(primary_base.fields["temperature_K"])))

    ok = start_ok and plateau_ok and slower and hotter
    _report(8, ok, f"pressure {p[0]:.1f} -> {p[i]:.1f} Pa plateau, "
                   f"condenser balance off by {balance:.2e}; drying "
                   f"{failure.meta['duration_s'] / primary_base.meta['duration_s']:.2f}x "
                   f"longer, hotter: {hotter}")


# --------------------------------------------------------------------------
# 9. runtime budget


def test_criterion_9_runtime(cycle_default):
    runtime = cycle_default.runtime_s
    _report(9, runtime < 1.0, f"default full cycle took {runtime:.2f} s")


# --------------------------------------------------------------------------
# 10. optional comparison against external measurements


def test_criterion_10_external_validation(cycle_default):
    root = os.environ.get("LYOSIM_VALIDATION_DATA")
    if not root:
        pytest.skip("criterion 10: SKIP (set LYOSIM_VALIDATION_DATA to a "
                    "directory with validation.json to enable)")
    spec_path = Path(root) / "validation.json"
    if not spec_path.is_file():
        pytest.skip(f"criterion 10: SKIP ({spec_path} not found)")
    spec = json.loads(spec_path.read_text())
    traj = cycle_default.combined
    checks = []

    if "temperature_csv" in spec:
        ref = ReferenceSeries.from_csv(Path(root) / spec["temperature_csv"])
        rep = compare_with_reference(traj, ref, "temperature_bottom_K")
        checks.append(("temperature max-abs",
                       rep.metrics["max_abs"], rep.metrics["max_abs"] <= 3.0))
    if "primary_duration_s" in spec:
        times = cycle_default.stage_times
        sim = times["primary_drying_end_s"] - times["freezing_end_s"]
        rel = abs(sim / float(spec["primary_duration_s"]) - 1.0)
        checks.append(("primary duration rel", rel, rel <= 0.08))
    if "moisture_csv" in spec:
        ref = ReferenceSeries.from_csv(Path(root) / spec["moisture_csv"])
        rep = compare_with_reference(traj, ref, "bound_water_avg_kg_per_kg")
        checks.append(("moisture RMSE",
                       rep.metrics["rmse"], rep.metrics["rmse"] <= 0.005))

    if not checks:
        pytest.skip("criterion 10: SKIP (validation.json lists no datasets)")
    ok = all(c[2] for c in checks)
    _report(10, ok, "; ".join(f"{name} = {val:.4g} ({'ok' if good else 'over'})"
                              for name, val, good in checks))
