"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs one operation on a prepared
input, and checks the outputs of every operation it ran.  Every check is
either computed here apart from the program (a mass inventory, a freezing
point, a cumulative nucleation hazard) or a property the method must have (a
front that never recedes); none compares against stored output.  ``check``
returns a list of error messages, empty when every output is correct.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

from lyosim import chamber, cli, drying_primary, drying_secondary, freezing, params, scenario
from lyosim.errors import LyosimError

# the model's constants; the checks below recompute the physics with them
STEFAN_BOLTZMANN = 5.67e-8  # W/m^2/K^4
T_FREEZE_WATER = 273.15  # K
# event-located stage ends may overshoot a target by rounding in the root
# search; this is the relative slack the checks allow there
EVENT_RTOL = 1e-9


def _fill(data: dict) -> dict:
    """Fill masses and geometry recomputed from a merged scenario."""
    fo = data["formulation"]
    x_s = fo["solute_mass_fraction"]
    rho_l = 1.0 / (x_s / fo["solute_density_kg_per_m3"]
                   + (1.0 - x_s) / fo["water_density_kg_per_m3"])
    rho_f = data["frozen_matrix"]["density_kg_per_m3"] or 1.0 / (
        x_s / fo["solute_density_kg_per_m3"] + (1.0 - x_s) / fo["ice_density_kg_per_m3"])
    d = data["vial"]["diameter_m"]
    A_z = math.pi * d * d / 4.0
    m_s = x_s * rho_l * fo["fill_volume_m3"]
    m_w = (1.0 - x_s) * rho_l * fo["fill_volume_m3"]
    H = data["vial"]["product_height_m"] or (m_s + m_w) / (rho_f * A_z)
    # cryoscopic relation: T_f = T_f,pure - (K_f / M_s) m_s / m_w
    T_f = T_FREEZE_WATER - (fo["cryoscopic_constant_kgK_per_mol"]
                            / fo["solute_molar_mass_kg_per_mol"]) * m_s / m_w
    return {"m_s": m_s, "m_w": m_w, "rho_f": rho_f, "A_z": A_z, "H": H, "d": d,
            "T_f": T_f}


def _schedule(value):
    """Piecewise-linear schedule from a scenario value, held outside its table."""
    if isinstance(value, (int, float)):
        return lambda t: float(value)
    ts, vs = zip(*value)
    return lambda t: float(np.interp(t, ts, vs))


def _same_to_ulp(values: np.ndarray, ulps: int = 4) -> bool:
    return bool(np.all(np.abs(values - values[0]) <= ulps * np.spacing(values[0])))


def _scenario_with_grid(name: str, n_z: int) -> params.ParameterSet:
    data = copy.deepcopy(scenario.load_scenario(name).data)
    data["grid"]["n_nodes"] = n_z
    return params.build_parameters(data)


class CycleShelfSweep:
    """``lyosim cycle`` through the CLI across a primary shelf-temperature sweep.

    The sweep splits 255-285 K into bins and draws one temperature per bin
    from the seed, uniformly in the middle half of the bin, so that two points
    lie at least half a bin apart and their primary-drying times differ by far
    more than the integration tolerance.  One round runs every bin once, and
    every round repeats the same scenario files.  The number of bins is odd,
    so the median operation falls inside the middle bin's group of
    operations rather than in the gap between two bins' costs.
    """

    name = "cycle_shelf_sweep"
    setup_modules = ("lyosim.cli",)
    T_RANGE_K = (255.0, 285.0)
    N_BINS = 5

    def __init__(self, seed: int, work_dir: Path) -> None:
        lo, hi = self.T_RANGE_K
        width = (hi - lo) / self.N_BINS
        u = np.random.default_rng(seed).random(self.N_BINS)
        self.temperatures = [lo + (b + 0.25 + 0.5 * float(u[b])) * width
                             for b in range(self.N_BINS)]
        self.work_dir = work_dir
        self.scenarios = []
        for b, T in enumerate(self.temperatures):
            path = work_dir / f"sweep_{b}.json"  # JSON is valid YAML
            path.write_text(json.dumps({"name": f"sweep_{b}",
                                        "primary": {"shelf_temperature_K": T}}))
            self.scenarios.append(str(path))
        self.round_size = self.N_BINS
        self.alloc_ops = [self.N_BINS // 2]

    def prepare(self, k: int):
        b = k % self.N_BINS
        return b, ["cycle", "--scenario", self.scenarios[b],
                   "--out", str(self.work_dir / f"op{k:05d}")]

    def run(self, inp):
        b, argv = inp
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise LyosimError(f"lyosim {' '.join(argv)} exited with {code}")
        return b, Path(argv[-1])

    def check(self, results) -> list[str]:
        errors: list[str] = []
        durations: dict[int, set] = {}
        for b, out in results:
            where = f"bin {b} ({out.name})"
            summary = json.loads((out / f"sweep_{b}_cycle_summary.json").read_text())
            data = json.loads((out / f"sweep_{b}_cycle_parameters.json").read_text())
            with (out / f"sweep_{b}_cycle_trajectory.csv").open() as fh:
                rows = list(csv.reader(fh))
            head, rows = rows[0], rows[1:]
            col = {name: i for i, name in enumerate(head)}

            def series(stages, name):
                return np.array([float(r[col[name]]) for r in rows if r[1] in stages])

            if data["primary"]["shelf_temperature_K"] != self.temperatures[b]:
                errors.append(f"{where}: the run did not use the requested shelf temperature")
            ev = summary["events"]
            chain = ["preconditioning_end_s", "visf_end_s", "solidification_end_s",
                     "freezing_end_s", "primary_drying_end_s", "secondary_drying_end_s"]
            ends = [ev[k] for k in chain]
            if not all(a < c for a, c in zip(ends, ends[1:])):
                errors.append(f"{where}: stage end times do not strictly increase: {ends}")
            fill = _fill(data)
            front = series({"primary_drying"}, "front_position_m")
            ice = series({"primary_drying"}, "ice_mass_kg")
            if np.any(np.diff(front) < 0.0) or abs(front[-1] - fill["H"]) > 1e-12 * fill["H"]:
                errors.append(f"{where}: front receded or stopped at {front[-1]} m, "
                              f"product height {fill['H']} m")
            if np.any(np.diff(ice) > 0.0) or ice[-1] != 0.0:
                errors.append(f"{where}: primary-drying ice mass grew or ended at {ice[-1]}")
            frozen = {"solidification", "final_cooling"}
            total = series(frozen, "water_mass_kg") + series(frozen, "ice_mass_kg")
            if not _same_to_ulp(total):
                errors.append(f"{where}: water + ice drifts by "
                              f"{np.ptp(total) / total[0]:.3e} after nucleation")
            target = data["secondary"]["target_bound_water_kg_per_kg"]
            c_end = series({"secondary_drying"}, "bound_water_avg_kg_per_kg")[-1]
            if c_end > target * (1.0 + EVENT_RTOL):
                errors.append(f"{where}: final bound water {c_end} above target {target}")
            durations.setdefault(b, set()).add(summary["stage_durations_s"]["primary_drying"])
        if any(len(v) != 1 for v in durations.values()):
            errors.append("identical scenario files gave different primary-drying times")
        order = sorted(durations, key=lambda b: self.temperatures[b])
        dur = [min(durations[b]) for b in order]
        if not all(a > c for a, c in zip(dur, dur[1:])):
            errors.append("primary-drying time does not strictly fall as the shelf "
                          f"temperature rises: {dur}")
        return errors


class FreezePopulation:
    """A vial-population Monte Carlo of ``stochastic_freezing``.

    Vial ``k`` draws its nucleation from its own generator, the ``k``-th child
    of the workload seed's ``SeedSequence``, so every vial is distinct and the
    population does not depend on how many vials a run reaches.
    """

    name = "freeze_population"
    setup_modules = ("lyosim",)
    scenarios = ["stochastic_freezing"]
    round_size = 50
    # Kolmogorov-Smirnov level and mean band (in standard errors) of the
    # time-rescaling check; both false-alarm rates are about 1e-4 per run
    KS_LEVEL = 1e-4
    MEAN_SE = 4.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        sc = scenario.load_scenario("stochastic_freezing")
        self.data = sc.data
        self.params = sc.parameters()
        self.alloc_ops = list(range(5))

    def prepare(self, k: int):
        return k, np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(k,)))

    def run(self, inp):
        k, rng = inp
        p = self.params
        return k, freezing.run_freezing(p.initial_vial_state(), p.freezing_system(),
                                        p.integrator, samples_per_stage=p.samples_per_stage,
                                        rng=rng)

    def cumulative_hazard(self) -> tuple[np.ndarray, np.ndarray]:
        """Lambda(t) = integral of k (T_f - T)^b V dt along the cooldown.

        Classical RK4 with a fixed 0.25 s step on (T, Lambda) of the
        single-phase fill, which exchanges heat through the top, bottom and
        side gas films and by radiation with the wall, up to Lambda = 50.
        """
        fz, nu = self.data["freezing"], self.data["freezing"]["nucleation"]
        fo, F = self.data["formulation"], self.data["radiation"]["transfer_factor_side"]
        fill = _fill(self.data)
        A_z = fill["A_z"]
        V = (fill["m_s"] / fo["solute_density_kg_per_m3"]
             + fill["m_w"] / fo["water_density_kg_per_m3"])
        A_r = 4.0 * V / fill["d"]
        C = (fill["m_s"] * fo["solute_heat_capacity_J_per_kgK"]
             + fill["m_w"] * fo["water_heat_capacity_J_per_kgK"])
        T_g, T_w, T_u = (_schedule(fz[k]) for k in
                         ("gas_temperature_K", "wall_temperature_K", "upper_temperature_K"))
        k_n, b_n = nu["rate_prefactor_per_m3_s_K"], nu["rate_exponent"]

        def f(t, T):
            q = (fz["top_htc_W_per_m2K"] * A_z * (T_u(t) - T)
                 + (fz["bottom_htc_W_per_m2K"] * A_z + fz["side_htc_W_per_m2K"] * A_r)
                 * (T_g(t) - T)
                 + STEFAN_BOLTZMANN * F * A_r * (T_w(t) ** 4 - T ** 4))
            return q / C, k_n * max(fill["T_f"] - T, 0.0) ** b_n * V

        h, t, T, lam = 0.25, 0.0, fz["initial_temperature_K"], 0.0
        ts, lams = [t], [lam]
        while lam < 50.0 and t < fz["stage_time_limit_s"]:
            k1 = f(t, T)
            k2 = f(t + h / 2, T + h / 2 * k1[0])
            k3 = f(t + h / 2, T + h / 2 * k2[0])
            k4 = f(t + h, T + h * k3[0])
            T += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            lam += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            t += h
            ts.append(t)
            lams.append(lam)
        return np.array(ts), np.array(lams)

    def check(self, results) -> list[str]:
        errors: list[str] = []
        fill = _fill(self.data)
        fz = self.data["freezing"]
        band = fz["final_tolerance_K"] * (1.0 + EVENT_RTOL)
        # the first vials again: the same seed must give the same nucleation time
        repeat = {k: tr.events["nucleation_s"]
                  for k, tr in map(self.run, map(self.prepare, range(5)))}
        t_nuc = []
        for k, tr in results:
            nuc = tr.meta["nucleation"]
            if not nuc["trigger_temperature_K"] < fill["T_f"]:
                errors.append(f"vial {k}: nucleated at {nuc['trigger_temperature_K']} K, "
                              f"not below the freezing point {fill['T_f']} K")
            after = np.isin(tr.stage, ("solidification", "final_cooling"))
            total = tr.series["water_mass_kg"][after] + tr.series["ice_mass_kg"][after]
            if not _same_to_ulp(total) or abs(total[0] - fill["m_w"]) > 1e-12 * fill["m_w"]:
                errors.append(f"vial {k}: water + ice not conserved after nucleation")
            fs = tr.meta["final_state"]
            if fs.m_i < fz["solidification_fraction"] * fill["m_w"] * (1.0 - EVENT_RTOL):
                errors.append(f"vial {k}: ice target not reached ({fs.m_i} kg)")
            if abs(fs.T - fz["final_temperature_K"]) > band:
                errors.append(f"vial {k}: end temperature {fs.T} K outside the final band")
            t = tr.events["nucleation_s"]
            if k in repeat and repeat[k] != t:
                errors.append(f"vial {k}: the same seed gave nucleation times "
                              f"{repeat[k]} and {t}")
            t_nuc.append(t)
        # time rescaling: Lambda(t_nuc) of independent vials is Exp(1)
        ts, lams = self.cumulative_hazard()
        lam = np.interp(t_nuc, ts, lams)
        z = (lam.mean() - 1.0) * math.sqrt(lam.size)
        p = stats.kstest(lam, "expon").pvalue
        if abs(z) > self.MEAN_SE or p < self.KS_LEVEL:
            errors.append(f"cumulative hazard at nucleation is not Exp(1) over {lam.size} "
                          f"vials: mean {lam.mean():.4f} ({z:+.2f} SE), KS p = {p:.2e}")
        return errors


class DryingFineGrid:
    """Primary drying, condenser-coupled primary drying and secondary drying
    at n_z = 201 from the defaults' stage initial conditions.

    The inputs do not depend on the seed.
    """

    name = "drying_fine_grid"
    setup_modules = ("lyosim",)
    scenarios = ["defaults", "condenser_failure"]
    round_size = 1
    N_Z, N_Z_REF = 201, 51

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.data = scenario.load_scenario("defaults").data
        self.chamber = scenario.load_scenario("condenser_failure").data["chamber"]
        self.grids = {n: (_scenario_with_grid("defaults", n),
                          _scenario_with_grid("condenser_failure", n).chamber)
                      for n in (self.N_Z, self.N_Z_REF)}
        self.alloc_ops = [0]

    def prepare(self, k: int):
        return self.N_Z

    def run(self, n_z: int):
        p, ch = self.grids[n_z]
        common = dict(n_z=p.n_z, config=p.integrator, samples=p.samples_per_stage)
        fixed = drying_primary.run_primary(
            p.primary_initial_T, p.primary, p.radiation, p.geometry,
            time_limit_s=p.primary_time_limit_s, **common)
        coupled = chamber.run_primary_with_condenser(
            p.primary_initial_T, p.primary, p.radiation, p.geometry, ch,
            time_limit_s=p.primary_time_limit_s, **common)
        secondary = drying_secondary.run_secondary(
            p.secondary_initial_T, p.bound_water_profile(), p.secondary, p.radiation,
            p.secondary_conditions, p.geometry, c_target=p.bound_water_target,
            time_limit_s=p.secondary_time_limit_s, **common)
        return fixed, coupled, secondary

    def check(self, results) -> list[str]:
        errors: list[str] = []
        fill = _fill(self.data)
        ch = self.chamber
        inventory = (fill["rho_f"] - self.data["primary"]["dried_density_kg_per_m3"]) \
            * fill["A_z"] * fill["H"]
        reference = [tr.meta["duration_s"] for tr in self.run(self.N_Z_REF)]
        for k, trs in enumerate(results):
            fixed, coupled, secondary = trs
            for label, tr in (("fixed pressure", fixed), ("condenser", coupled)):
                t, N = tr.t, tr.series["sublimation_flux_kg_per_m2s"]
                # rows end at the terminal event, then one row at completion;
                # the sliver in between sublimes at the terminal flux
                sublimed = fill["A_z"] * (np.trapezoid(N[:-1], t[:-1]) + N[-2] * (t[-1] - t[-2]))
                if abs(sublimed / inventory - 1.0) > 0.01:
                    errors.append(f"op {k} {label}: sublimed {sublimed} kg against an ice "
                                  f"inventory of {inventory} kg")
            p = coupled.series["chamber_water_pressure_Pa"]
            if p[0] != ch["pressure_setpoint_Pa"]:
                errors.append(f"op {k}: chamber pressure starts at {p[0]} Pa")
            i = int(np.argmax(p))
            load = ch["vial_count"] * fill["A_z"] * coupled.series["sublimation_flux_kg_per_m2s"][i]
            cap = ch["condenser_capacity_kg_per_s"]
            if abs(load / cap - 1.0) > 1e-3:
                errors.append(f"op {k}: load {load} kg/s at peak pressure, condenser "
                              f"capacity {cap} kg/s")
            if not coupled.meta["duration_s"] > fixed.meta["duration_s"]:
                errors.append(f"op {k}: the condenser-limited stage is not longer")
            c = secondary.fields["bound_water_kg_per_kg"]
            target = self.data["secondary"]["target_bound_water_kg_per_kg"]
            if np.any(np.diff(c, axis=0) > 0.0):
                errors.append(f"op {k}: bound water rose at some node")
            if secondary.series["bound_water_avg_kg_per_kg"][-1] > target * (1.0 + EVENT_RTOL):
                errors.append(f"op {k}: secondary drying ended above the bound-water target")
            for tr, ref in zip(trs, reference):
                if abs(tr.meta["duration_s"] / ref - 1.0) > 0.01:
                    errors.append(f"op {k}: stage duration {tr.meta['duration_s']} s at "
                                  f"n_z = {self.N_Z} against {ref} s at n_z = {self.N_Z_REF}")
        return errors


WORKLOADS = {w.name: w for w in (CycleShelfSweep, FreezePopulation, DryingFineGrid)}
