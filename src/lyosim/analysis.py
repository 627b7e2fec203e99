"""Transport-scale analysis: dimensionless groups, benchmark conduction
solutions, and pore-diffusion time scales.

These helpers justify the modeling choices of the stage models: a small
Biot number legitimizes the lumped freezing model, the multi-term
transient-conduction series for an infinite cylinder quantifies the error
of that lumping, and the pore-scale diffusion/desorption time-scale
comparison shows which mechanism limits secondary drying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0, j1, jn_zeros

from .bounds import OPEN_FRACTION, POS, check_bounds
from .errors import DomainError

__all__ = [
    "PorousMedium", "EffectiveDiffusivity", "TimeScales",
    "biot_number", "cylinder_eigenvalues", "cylinder_transient_theta",
    "lumped_theta", "effective_diffusivity", "time_scales",
]


def biot_number(h: float, L: float, k: float) -> float:
    """Bi = h L / k with L the conduction length scale (cylinder radius)."""
    if h <= 0.0 or L <= 0.0 or k <= 0.0:
        raise DomainError("biot_number needs positive h, L, k")
    return h * L / k


def cylinder_eigenvalues(Bi: float, n: int) -> np.ndarray:
    """First ``n`` roots of lambda J1(lambda) = Bi J0(lambda).

    The k-th root is bracketed by consecutive zeros of J0 (the first by
    (0, j_{0,1})), which makes the bisection brackets unconditionally
    valid: at a J0 zero the left side is nonzero with alternating sign
    while the right side vanishes.
    """
    if Bi <= 0.0:
        raise DomainError("transient-conduction eigenvalues need Bi > 0")
    if n < 1:
        raise DomainError("need at least one eigenvalue")

    def f(lam: float) -> float:
        return lam * j1(lam) - Bi * j0(lam)

    zeros = jn_zeros(0, n)
    brackets = [(1.0e-12, zeros[0])]
    brackets += [(zeros[k], zeros[k + 1]) for k in range(n - 1)]
    lams = np.empty(n)
    for k, (lo, hi) in enumerate(brackets):
        lams[k] = brentq(f, lo, hi, xtol=1.0e-14, rtol=8.881784197001252e-16)
    return lams


def cylinder_transient_theta(Bi: float, Fo, n_terms: int = 20):
    """Volume-averaged dimensionless temperature of an infinite cylinder.

    theta_bar(Fo) = sum_n 4 J1(lam_n)^2 / (lam_n^2 (J0^2 + J1^2)) *
    exp(-lam_n^2 Fo) for convective cooling at Biot number ``Bi``.  At
    Fo = 0 the series sums to 1 (within the truncation tail).  Accepts a
    scalar or array Fourier number.
    """
    Fo_arr = np.asarray(Fo, dtype=float)
    if np.any(Fo_arr < 0.0):
        raise DomainError("Fourier number must be nonnegative")
    lams = cylinder_eigenvalues(Bi, n_terms)
    w0, w1 = j0(lams), j1(lams)
    coef = 4.0 * w1**2 / (lams**2 * (w0**2 + w1**2))
    theta = coef @ np.exp(-np.outer(lams**2, np.atleast_1d(Fo_arr)))
    return float(theta[0]) if np.isscalar(Fo) or Fo_arr.ndim == 0 else theta


def lumped_theta(Bi: float, Fo) -> float | np.ndarray:
    """Lumped-capacitance solution for the same cylinder: exp(-2 Bi Fo)."""
    if Bi <= 0.0:
        raise DomainError("lumped_theta needs Bi > 0")
    out = np.exp(-2.0 * Bi * np.asarray(Fo, dtype=float))
    return float(out) if np.isscalar(Fo) else out


@dataclass(frozen=True)
class PorousMedium:
    """Dried-cake pore structure and the bulk binary diffusivity of water
    vapor in the inert gas at the condition of interest."""

    porosity: float = field(default=0.815, metadata=OPEN_FRACTION)
    tortuosity: float = field(default=1.2, metadata={"type": "number", "minimum": 1})
    pore_radius: float = field(default=5.0e-6, metadata=POS)  # m
    D_gas: float = field(default=1.97e-5, metadata=POS)  # m^2/s

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class EffectiveDiffusivity:
    """Bulk and Knudsen contributions combined in series (Bosanquet)."""

    D_knudsen: float
    D_gas_eff: float
    D_knudsen_eff: float
    D_e: float


def effective_diffusivity(pm: PorousMedium, T: float, M_g_per_mol: float) -> EffectiveDiffusivity:
    """Effective pore diffusivity of vapor in the dried cake.

    Knudsen: D_K = 97 r_pore sqrt(T / M) with M in g/mol; both the bulk
    and Knudsen diffusivities are scaled by porosity/tortuosity and then
    combined as series resistances, so D_e is below either contribution.
    """
    if T <= 0.0 or M_g_per_mol <= 0.0:
        raise DomainError("effective_diffusivity needs positive T and molar mass")
    scale = pm.porosity / pm.tortuosity
    D_K = 97.0 * pm.pore_radius * math.sqrt(T / M_g_per_mol)
    D_g_eff = scale * pm.D_gas
    D_K_eff = scale * D_K
    D_e = 1.0 / (1.0 / D_g_eff + 1.0 / D_K_eff)
    return EffectiveDiffusivity(D_knudsen=D_K, D_gas_eff=D_g_eff,
                                D_knudsen_eff=D_K_eff, D_e=D_e)


@dataclass(frozen=True)
class TimeScales:
    """Competing secondary-drying time scales and the limiting mechanism."""

    diffusion_s: float
    desorption_s: float
    ratio: float  # desorption / diffusion
    limiting: str

    def as_dict(self) -> dict[str, float | str]:
        return {
            "diffusion_s": self.diffusion_s,
            "desorption_s": self.desorption_s,
            "desorption_to_diffusion_ratio": self.ratio,
            "limiting": self.limiting,
        }


def time_scales(L: float, D_e: float, k_d: float) -> TimeScales:
    """Compare vapor escape (L^2 / D_e) against desorption (1 / k_d)."""
    if L <= 0.0 or D_e <= 0.0 or k_d <= 0.0:
        raise DomainError("time_scales needs positive L, D_e, k_d")
    t_diff = L**2 / D_e
    t_des = 1.0 / k_d
    ratio = t_des / t_diff
    limiting = "desorption" if ratio >= 1.0 else "diffusion"
    return TimeScales(diffusion_s=t_diff, desorption_s=t_des, ratio=ratio,
                      limiting=limiting)
