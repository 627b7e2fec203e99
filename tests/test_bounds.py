"""Declared parameter bounds: every bounded dataclass field, from its metadata."""

import dataclasses

import numpy as np
import pytest

from lyosim import (
    ChamberModel,
    ConfigurationError,
    ControlledNucleation,
    DesorptionKinetics,
    DryingConditions,
    DryingParams,
    Formulation,
    FreezingProtocol,
    IntegratorConfig,
    ParameterSet,
    PorousMedium,
    RadiationSpec,
    Schedule,
    StochasticNucleation,
    VialGeometry,
    default_parameters,
)
from lyosim.params import _KEYS

_T = Schedule.constant(250.0)
_DEFAULTS = default_parameters()
# the arguments without a default
_REQUIRED = {
    FreezingProtocol: dict(gas_temperature=_T, wall_temperature=_T, upper_temperature=_T,
                           total_pressure=Schedule.constant(1.0e5)),
    DryingParams: dict(shelf_temperature=_T, wall_temperature=_T, upper_temperature=_T),
    DryingConditions: dict(shelf_temperature=_T, wall_temperature=_T, upper_temperature=_T),
    # the model objects a ParameterSet bundles, as the defaults build them
    ParameterSet: {f.name: getattr(_DEFAULTS, f.name) for f in dataclasses.fields(ParameterSet)
                   if f.default is dataclasses.MISSING},
}
_CLASSES = (Formulation, VialGeometry, RadiationSpec, ControlledNucleation,
            StochasticNucleation, FreezingProtocol, DryingParams, DesorptionKinetics,
            DryingConditions, ChamberModel, IntegratorConfig, PorousMedium, ParameterSet)
# which side of a bound a value must not cross, by schema keyword
_PAST = {"minimum": -np.inf, "exclusiveMinimum": -np.inf,
         "maximum": np.inf, "exclusiveMaximum": np.inf}


def _cases():
    for cls in _CLASSES:
        for f in dataclasses.fields(cls):
            schema = f.metadata
            if schema and "oneOf" in schema:  # nullable
                schema = schema["oneOf"][0]
            for keyword in _PAST:
                if schema and keyword in schema:
                    yield pytest.param(cls, f.name, keyword, schema[keyword],
                                       id=f"{cls.__name__}.{f.name}-{keyword}")


_CASES = list(_cases())


def _make(cls, name, value):
    kwargs = dict(_REQUIRED.get(cls, {}), **{name: value})
    if name in ("F_top", "F_side"):
        kwargs["eps_glass"] = 1.0  # a transfer factor may not exceed the emissivity
    return cls(**kwargs)


def test_every_bounded_field_is_walked():
    assert len(_CASES) > 60
    # every dataclass the scenario is assembled into, apart from its bounds
    assert set(_KEYS) <= set(_CLASSES)
    # a field read from the scenario has its bound on the dataclass
    for cls, keys in _KEYS.items():
        for name in keys:
            assert cls.__dataclass_fields__[name].metadata, f"{cls.__name__}.{name}"


@pytest.mark.parametrize("cls, name, keyword, bound", _CASES)
def test_declared_bound_is_checked(cls, name, keyword, bound):
    with pytest.raises(ConfigurationError, match=name):
        _make(cls, name, float("nan"))
    with pytest.raises(ConfigurationError, match=name):
        _make(cls, name, np.nextafter(bound, _PAST[keyword]))
    if not keyword.startswith("exclusive"):
        assert getattr(_make(cls, name, bound), name) == bound


def test_array_atol_is_checked_everywhere():
    IntegratorConfig(atol=np.array([1e-9, 1e-6]))
    for bad in (np.array([1e-9, 0.0]), np.array([np.nan, 1e-6])):
        with pytest.raises(ConfigurationError, match="atol"):
            IntegratorConfig(atol=bad)
