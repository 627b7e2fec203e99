"""Water property correlations, radiative exchange, and mixture rules.

All quantities are SI unless a name says otherwise: temperatures in K,
pressures in Pa, masses in kg, energies in J.  The vapor-pressure
correlations are valid for water only; both are smooth and strictly
increasing in temperature over their stated ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import FRACTION, OPEN_FRACTION, POS, UNIT, check_bounds
from .errors import ConfigurationError, DomainError

__all__ = [
    "STEFAN_BOLTZMANN",
    "GAS_CONSTANT",
    "T_FREEZE_WATER",
    "Formulation",
    "VialGeometry",
    "RadiationSpec",
    "MixtureProperties",
    "psat_evaporation",
    "psat_sublimation",
    "psat_sublimation_slope",
    "heat_of_vaporization",
    "freezing_point",
    "radiation_exchange",
    "linearized_radiation_htc",
    "overall_htc_slab",
    "overall_htc_cylinder",
    "trapezoid_weights",
    "mixture_properties",
]

STEFAN_BOLTZMANN = 5.67e-8  # W/m^2/K^4
GAS_CONSTANT = 8.314  # J/mol/K
T_FREEZE_WATER = 273.15  # K, pure-water equilibrium freezing point

# Antoine-form constants for liquid water, p in Pa
_ANTOINE_A = 16.3872
_ANTOINE_B = 3885.7
_ANTOINE_C = -42.98  # offset; correlation singular at T = 42.98 K

# Clausius-Clapeyron fit over ice, p in Pa
_ICE_A = -6139.9
_ICE_B = 28.8912

# Watson-type latent-heat correlation
_T_CRITICAL = 647.1  # K
_DH_VAP_NBP = 2.257e6  # J/kg at the normal boiling point 373.15 K
_WATSON_EXPONENT = 0.38


def psat_evaporation(T: float) -> float:
    """Saturation vapor pressure (Pa) over liquid water.

    Antoine correlation; requires T > 42.98 K and is intended for the
    liquid range (roughly 255-480 K, including moderately supercooled
    water during vacuum-induced surface freezing).
    """
    if T <= -_ANTOINE_C:
        raise DomainError(f"psat_evaporation undefined at T={T} K (needs T > {-_ANTOINE_C} K)")
    return 1.0e3 * math.exp(_ANTOINE_A - _ANTOINE_B / (T + _ANTOINE_C))


def psat_sublimation(T: float) -> float:
    """Saturation vapor pressure (Pa) over ice, valid below the triple point."""
    if T <= 0.0:
        raise DomainError(f"psat_sublimation needs T > 0 K, got {T}")
    return math.exp(_ICE_A / T + _ICE_B)


def psat_sublimation_slope(T: float) -> float:
    """Temperature derivative (Pa/K) of :func:`psat_sublimation`."""
    return -_ICE_A / (T * T) * psat_sublimation(T)


def heat_of_vaporization(T: float) -> float:
    """Latent heat of vaporization of water (J/kg), Watson scaling.

    Anchored at the normal boiling point and vanishing at the critical
    temperature 647.1 K.  Requires 0 < T <= 647.1 K.
    """
    if not 0.0 < T <= _T_CRITICAL:
        raise DomainError(f"heat_of_vaporization needs 0 < T <= {_T_CRITICAL} K, got {T}")
    tau = (1.0 - T / _T_CRITICAL) / (1.0 - 373.15 / _T_CRITICAL)
    return _DH_VAP_NBP * tau**_WATSON_EXPONENT


def freezing_point(m_s: float, m_w: float, f: "Formulation") -> float:
    """Depressed equilibrium freezing point (K) of the solution.

    Cryoscopic relation: T = T_f,pure - (K_f / M_s) * (m_s / m_w), with the
    solute molality built from the dissolved solute mass ``m_s`` and the
    remaining liquid water mass ``m_w`` (kg).
    """
    if m_w <= 0.0:
        raise DomainError("freezing_point needs liquid water mass m_w > 0")
    if m_s < 0.0:
        raise DomainError("freezing_point needs solute mass m_s >= 0")
    return T_FREEZE_WATER - (f.K_f / f.M_s) * (m_s / m_w)


def radiation_exchange(T_self: float, T_other: float, F: float, area: float,
                       sigma: float = STEFAN_BOLTZMANN) -> float:
    """Net radiative heat flow (W) received by a surface at ``T_self``.

    Q = sigma * area * F * (T_other^4 - T_self^4); positive when the
    surroundings are hotter.  ``F`` is the gray-body transfer factor of the
    surface pair (view factor combined with emissivities).
    """
    if not 0.0 <= F <= 1.0:
        raise DomainError(f"transfer factor must lie in [0, 1], got {F}")
    if area < 0.0:
        raise DomainError("radiating area must be nonnegative")
    return sigma * area * F * (T_other**4 - T_self**4)


def linearized_radiation_htc(F: float, T_ref: float, sigma: float = STEFAN_BOLTZMANN) -> float:
    """Equivalent convective coefficient (W/m^2/K) for a radiative link.

    First-order expansion of the fourth-power law about ``T_ref``:
    h_rad = 4 * sigma * F * T_ref^3.  ``T_ref`` is conventionally the
    arithmetic mean of the two exchanging surface temperatures.
    """
    if T_ref <= 0.0:
        raise DomainError("linearization temperature must be positive")
    return 4.0 * sigma * F * T_ref**3


def overall_htc_slab(h: float, thickness: float, k: float) -> float:
    """Overall coefficient (W/m^2/K) of a surface film in series with a slab.

    1/U = 1/h + thickness/k.  ``thickness`` = 0 recovers ``h``; ``h`` = 0
    (no film path at all) gives 0.
    """
    if h < 0.0 or k <= 0.0:
        raise DomainError("film coefficient must be nonnegative and conductivity positive")
    if thickness < 0.0:
        raise DomainError("slab thickness must be nonnegative")
    if h == 0.0:
        return 0.0
    return 1.0 / (1.0 / h + thickness / k)


def overall_htc_cylinder(h: float, r_outer: float, r_inner: float, k: float) -> float:
    """Overall coefficient (W/m^2/K, outer-area basis) of a film in series
    with a cylindrical annulus conducting from ``r_outer`` to ``r_inner``.

    1/U = 1/h + r_outer * ln(r_outer / r_inner) / k.  ``r_inner`` =
    ``r_outer`` (no annulus) recovers ``h``; ``h`` = 0 gives 0.
    """
    if h < 0.0 or k <= 0.0:
        raise DomainError("film coefficient must be nonnegative and conductivity positive")
    if r_inner <= 0.0 or r_inner > r_outer:
        raise DomainError("need 0 < r_inner <= r_outer")
    if h == 0.0:
        return 0.0
    return 1.0 / (1.0 / h + r_outer * math.log(r_outer / r_inner) / k)


def trapezoid_weights(n: int) -> np.ndarray:
    """Trapezoidal weights of the uniform n-node grid over the product
    height, normalized to sum to 1: ``values @ trapezoid_weights(n)`` is
    the volume average of nodal values, also of (..., n) arrays."""
    w = np.full(n, 1.0 / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class Formulation:
    """Composition and pure-component properties of the fill.

    ``x_s`` is the solute mass fraction of the liquid fill of volume
    ``V_l`` (m^3).  Molar masses are in kg/mol; ``K_f`` is the cryoscopic
    constant of water (kg*K/mol).
    """

    x_s: float = field(default=0.05, metadata=OPEN_FRACTION)
    V_l: float = field(default=3.0e-6, metadata=POS)
    rho_s: float = field(default=1587.9, metadata=POS)  # kg/m^3 solute
    rho_w: float = field(default=1000.0, metadata=POS)  # kg/m^3 liquid water
    rho_i: float = field(default=917.0, metadata=POS)  # kg/m^3 ice
    Cp_s: float = field(default=1204.0, metadata=POS)  # J/kg/K solute
    Cp_w: float = field(default=4187.0, metadata=POS)  # J/kg/K liquid water
    Cp_i: float = field(default=2108.0, metadata=POS)  # J/kg/K ice
    k_s: float = field(default=0.126, metadata=POS)  # W/m/K solute
    k_w: float = field(default=0.598, metadata=POS)  # W/m/K liquid water
    k_i: float = field(default=2.25, metadata=POS)  # W/m/K ice
    M_s: float = field(default=0.3423, metadata=POS)  # kg/mol solute (sucrose)
    M_w: float = field(default=0.018, metadata=POS)  # kg/mol water
    M_in: float = field(default=0.028, metadata=POS)  # kg/mol inert gas (nitrogen)
    K_f: float = field(default=1.86, metadata=POS)  # kg*K/mol

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class VialGeometry:
    """Cylindrical product geometry: inner diameter ``d`` and product
    height ``H`` (m).  The cross section A_z = pi d^2 / 4 is derived."""

    d: float = field(default=0.024, metadata=POS)
    H: float = field(default=7.2e-3, metadata=POS)

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def A_z(self) -> float:
        """Axial cross-sectional area (m^2)."""
        return math.pi * self.d**2 / 4.0


@dataclass(frozen=True)
class RadiationSpec:
    """Gray-body transfer factors of the two radiative links.

    ``F_top`` couples the exposed product top to the upper (heater)
    surface, ``F_side`` couples the lateral surface, through the glass,
    to the chamber wall.  Both are bounded by the glass emissivity."""

    F_top: float = field(default=0.8, metadata=UNIT)
    F_side: float = field(default=0.624, metadata=UNIT)
    eps_glass: float = field(default=0.8, metadata=FRACTION)
    sigma: float = field(default=STEFAN_BOLTZMANN, metadata=POS)

    def __post_init__(self) -> None:
        check_bounds(self)
        for name in ("F_top", "F_side"):
            if getattr(self, name) > self.eps_glass:
                raise ConfigurationError(f"{name} = {getattr(self, name):g} must lie in "
                                         f"[0, eps_glass = {self.eps_glass:g}]")


@dataclass(frozen=True)
class MixtureProperties:
    """Derived fill/frozen-matrix properties for one formulation + vial.

    ``rho_l``: liquid solution density; ``m_s``/``m_w0``: solute and initial
    water masses; ``rho_f``, ``Cp_f``, ``k_f``: frozen-matrix density, heat
    capacity, and conductivity from mass/volume mixing rules; ``H``: product
    height implied by the fill volume and the frozen density.
    """

    formulation: Formulation
    d: float
    rho_l: float
    m_s: float
    m_w0: float
    rho_f: float
    Cp_f: float
    k_f: float
    H: float

    @property
    def A_z(self) -> float:
        return math.pi * self.d**2 / 4.0

    def side_area(self, m_w: float, m_i: float) -> float:
        """Lateral surface area (m^2) of the product for the current phase
        split, from the total product volume: A_r = 4 V_tot / d."""
        f = self.formulation
        v_tot = self.m_s / f.rho_s + m_w / f.rho_w + m_i / f.rho_i
        return 4.0 * v_tot / self.d


def mixture_properties(f: Formulation, d: float = VialGeometry.d, *,
                       Cp_f_override: float | None = None,
                       k_f_override: float | None = None) -> MixtureProperties:
    """Build derived fill and frozen-matrix properties.

    Mixing rules: the liquid density is the volume-additive mixture
    1 / rho_l = x_s / rho_s + (1 - x_s) / rho_w; the frozen density uses ice
    in place of liquid water.  Heat capacity mixes by mass fraction and
    conductivity by volume fraction.  Measured matrix values, when
    available, can be supplied through the override arguments (the shipped
    defaults use measured Cp_f and k_f).
    """
    rho_l = 1.0 / (f.x_s / f.rho_s + (1.0 - f.x_s) / f.rho_w)
    m_s = f.x_s * rho_l * f.V_l
    m_w0 = (1.0 - f.x_s) * rho_l * f.V_l
    rho_f = 1.0 / (f.x_s / f.rho_s + (1.0 - f.x_s) / f.rho_i)
    Cp_f = f.x_s * f.Cp_s + (1.0 - f.x_s) * f.Cp_i
    # volume fractions in the frozen matrix
    phi_s = (f.x_s / f.rho_s) * rho_f
    k_f = phi_s * f.k_s + (1.0 - phi_s) * f.k_i
    A_z = math.pi * d**2 / 4.0
    H = (m_s + m_w0) / (rho_f * A_z)
    return MixtureProperties(
        formulation=f,
        d=d,
        rho_l=rho_l,
        m_s=m_s,
        m_w0=m_w0,
        rho_f=rho_f,
        Cp_f=Cp_f_override if Cp_f_override is not None else Cp_f,
        k_f=k_f_override if k_f_override is not None else k_f,
        H=H,
    )
