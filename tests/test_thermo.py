"""Water property correlations, radiation, and mixture rules."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lyosim import (
    ConfigurationError,
    DomainError,
    Formulation,
    RadiationSpec,
    VialGeometry,
    freezing_point,
    heat_of_vaporization,
    mixture_properties,
    psat_evaporation,
    psat_sublimation,
)
from lyosim.thermo import (
    GAS_CONSTANT,
    STEFAN_BOLTZMANN,
    T_FREEZE_WATER,
    linearized_radiation_htc,
    overall_htc_cylinder,
    overall_htc_slab,
)


def test_constants():
    assert STEFAN_BOLTZMANN == pytest.approx(5.67e-8)
    assert GAS_CONSTANT == pytest.approx(8.314)
    assert T_FREEZE_WATER == 273.15


# --- vapor pressure ---------------------------------------------------------

def test_psat_sublimation_triple_point():
    # exp(-6139.9/273.15 + 28.8912), vs the measured 611.657 Pa
    assert psat_sublimation(273.15) == pytest.approx(609.7654822819454, rel=1e-12)
    assert abs(psat_sublimation(273.15) - 611.657) / 611.657 < 0.01


def test_psat_evaporation_boiling_point():
    # 1e3 * exp(16.3872 - 3885.7/(373.15 - 42.98)), vs 1 atm
    assert psat_evaporation(373.15) == pytest.approx(101333.21277084868, rel=1e-12)
    assert abs(psat_evaporation(373.15) - 101325.0) / 101325.0 < 0.005


def test_psat_branches_agree_at_triple_point():
    # the two correlations must nearly coincide where the phases meet
    p_i = psat_sublimation(273.15)
    p_l = psat_evaporation(273.15)
    assert abs(p_i - p_l) / p_l < 0.005


@pytest.mark.parametrize("fn, lo", [(psat_sublimation, 150.0), (psat_evaporation, 230.0)])
def test_psat_strictly_increasing(fn, lo):
    T = np.linspace(lo, 330.0, 200)
    p = np.array([fn(float(x)) for x in T])
    assert np.all(np.diff(p) > 0.0)
    assert np.all(p > 0.0)


def test_psat_domain_errors():
    with pytest.raises(DomainError):
        psat_sublimation(0.0)
    with pytest.raises(DomainError):
        psat_sublimation(-5.0)
    with pytest.raises(DomainError):
        psat_evaporation(42.98)


# --- latent heat ------------------------------------------------------------

def test_heat_of_vaporization_anchor_and_scaling():
    assert heat_of_vaporization(373.15) == pytest.approx(2.257e6, rel=1e-12)
    assert heat_of_vaporization(273.15) == pytest.approx(2540303.505594657, rel=1e-12)
    assert heat_of_vaporization(250.0) == pytest.approx(2598952.9679705873, rel=1e-12)
    # vanishes at the critical point, grows toward lower T
    assert heat_of_vaporization(647.1) == 0.0
    assert heat_of_vaporization(250.0) > heat_of_vaporization(300.0)


def test_heat_of_vaporization_domain():
    with pytest.raises(DomainError):
        heat_of_vaporization(0.0)
    with pytest.raises(DomainError):
        heat_of_vaporization(700.0)


# --- freezing point depression ----------------------------------------------

def test_freezing_point_default_fill():
    f = Formulation()
    mp = mixture_properties(f)
    assert freezing_point(mp.m_s, mp.m_w0, f) == pytest.approx(272.8640089487522, rel=1e-12)


def test_freezing_point_limits():
    f = Formulation()
    # no solute: pure-water freezing point
    assert freezing_point(0.0, 1.0e-3, f) == T_FREEZE_WATER
    # depression deepens as water is consumed
    assert freezing_point(1.5e-4, 1.0e-3, f) < freezing_point(1.5e-4, 2.0e-3, f)
    with pytest.raises(DomainError):
        freezing_point(1.5e-4, 0.0, f)
    with pytest.raises(DomainError):
        freezing_point(-1.0e-4, 1.0e-3, f)


def test_depression_constant_is_the_cryoscopic_relation():
    f = Formulation()
    mx = mixture_properties(f)
    D = mx.depression_constant
    assert D == f.K_f * mx.m_s / f.M_s
    # freezing_point associates the same relation as (K_f / M_s)(m_s / m_w)
    for m_w in (mx.m_w0, 0.3 * mx.m_w0):
        assert freezing_point(mx.m_s, m_w, f) == pytest.approx(T_FREEZE_WATER - D / m_w,
                                                               rel=4 * np.finfo(float).eps)


# --- radiation ---------------------------------------------------------------

def test_linearized_radiation_htc():
    assert linearized_radiation_htc(0.624, 260.5) == pytest.approx(2.5017898303944, rel=1e-12)
    with pytest.raises(DomainError):
        linearized_radiation_htc(0.5, 0.0)


def test_radiation_spec_bounds():
    RadiationSpec()  # defaults valid
    with pytest.raises(ConfigurationError):  # glass emissivity lies in (0, 1]
        RadiationSpec(F_top=0.0, F_side=0.0, eps_glass=0.0)
    with pytest.raises(ConfigurationError):
        RadiationSpec(F_top=0.9, eps_glass=0.8)
    with pytest.raises(ConfigurationError):
        RadiationSpec(F_side=0.7, eps_glass=0.6)
    with pytest.raises(ConfigurationError):
        RadiationSpec(eps_glass=1.2)


# --- series resistances -------------------------------------------------------

def test_overall_htc_slab():
    assert overall_htc_slab(10.0, 0.002, 1.0) == pytest.approx(9.80392156862745, rel=1e-12)
    # zero thickness recovers the film coefficient
    assert overall_htc_slab(12.5, 0.0, 1.0) == 12.5
    # no film at all: the series path is dead
    assert overall_htc_slab(0.0, 0.002, 1.0) == 0.0
    with pytest.raises(DomainError):
        overall_htc_slab(-1.0, 0.002, 1.0)
    with pytest.raises(DomainError):
        overall_htc_slab(10.0, 0.002, 0.0)
    with pytest.raises(DomainError):
        overall_htc_slab(10.0, -0.002, 1.0)


def test_overall_htc_cylinder():
    assert overall_htc_cylinder(8.0, 0.013, 0.012, 1.0) == pytest.approx(
        7.9339542611117935, rel=1e-12)
    # coincident radii: annulus vanishes
    assert overall_htc_cylinder(8.0, 0.012, 0.012, 1.0) == 8.0
    assert overall_htc_cylinder(0.0, 0.013, 0.012, 1.0) == 0.0
    with pytest.raises(DomainError):
        overall_htc_cylinder(8.0, 0.012, 0.013, 1.0)
    with pytest.raises(DomainError):
        overall_htc_cylinder(8.0, 0.013, 0.0, 1.0)


@given(h=st.floats(0.1, 1.0e4), L=st.floats(0.0, 0.1), k=st.floats(0.01, 10.0))
def test_overall_htc_slab_bounded_by_film(h, L, k):
    U = overall_htc_slab(h, L, k)
    assert 0.0 < U <= h * (1.0 + 1e-12)  # ulp slack for the L = 0 round trip


# --- mixture rules -----------------------------------------------------------

def test_mixture_default_fill_oracles():
    mp = mixture_properties(Formulation())
    assert mp.rho_l == pytest.approx(1018.86102386582, rel=1e-12)
    assert mp.m_s == pytest.approx(1.5282915357987302e-4, rel=1e-12)
    assert mp.m_w0 == pytest.approx(2.903753918017587e-3, rel=1e-12)
    assert mp.rho_f == pytest.approx(936.7900511787848, rel=1e-12)
    assert mp.H == pytest.approx(7.2124292981419705e-3, rel=1e-12)
    # without overrides the mixing rules apply directly
    assert mp.Cp_f == pytest.approx(2062.8, rel=1e-12)
    assert mp.k_f == pytest.approx(2.1873467451129245, rel=1e-12)


def test_mixture_overrides():
    mp = mixture_properties(Formulation(), Cp_f_override=2163.0, k_f_override=2.07)
    assert mp.Cp_f == 2163.0
    assert mp.k_f == 2.07


def test_mixture_mass_conservation():
    f = Formulation(x_s=0.08, V_l=2.5e-6)
    mp = mixture_properties(f)
    assert mp.m_s + mp.m_w0 == pytest.approx(mp.rho_l * f.V_l, rel=1e-12)
    # fill height consistent with frozen density and cross section
    assert mp.H * mp.A_z * mp.rho_f == pytest.approx(mp.m_s + mp.m_w0, rel=1e-12)


def test_mixture_side_area():
    mp = mixture_properties(Formulation())
    f = mp.formulation
    # A_r = 4 V_tot / d with the current phase split
    a = mp.side_area(mp.m_w0, 0.0)
    v = mp.m_s / f.rho_s + mp.m_w0 / f.rho_w
    assert a == pytest.approx(4.0 * v / mp.d, rel=1e-12)
    # converting water to denser-than-liquid ice would shrink; ice is lighter
    assert mp.side_area(0.0, mp.m_w0) > a


def test_formulation_validation():
    with pytest.raises(ConfigurationError):
        Formulation(x_s=1.0)
    with pytest.raises(ConfigurationError):
        Formulation(x_s=-0.01)
    with pytest.raises(ConfigurationError):
        Formulation(V_l=0.0)
    with pytest.raises(ConfigurationError):
        Formulation(rho_i=-1.0)
    with pytest.raises(ConfigurationError):  # the fill needs a solute
        Formulation(x_s=0.0)


@given(x_s=st.floats(0.0, 0.5, exclude_min=True))
def test_mixture_density_between_components(x_s):
    f = Formulation(x_s=x_s)
    mp = mixture_properties(f)
    assert min(f.rho_w, f.rho_s) <= mp.rho_l <= max(f.rho_w, f.rho_s)
    assert min(f.rho_i, f.rho_s) <= mp.rho_f <= max(f.rho_i, f.rho_s)


def test_vial_geometry():
    g = VialGeometry(d=0.024, H=7.2e-3)
    assert g.A_z == pytest.approx(math.pi * 0.024**2 / 4.0, rel=1e-14)
    with pytest.raises(ConfigurationError):
        VialGeometry(d=0.0)
    with pytest.raises(ConfigurationError):
        VialGeometry(H=-1.0)
