"""Idealized cocurrent heat exchanger between the two aquifers.

With infinitely large transfer area both streams leave at the flow-weighted
mean temperature, which gives the mixing relation

    T_out = q_b / (q_b + |u|) * (T_b - T_in) + T_in

for the ATES-side stream: T_in is the extracted borehole temperature, u the
inter-aquifer flow and (q_b, T_b) the building-side flow and inlet
temperature.  ``linearize_hx`` provides the per-instant affine approximation
used inside the prediction model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import ParameterError

Mode = Literal["heating", "cooling"]


@dataclass(frozen=True)
class HxParams:
    """Building-side conditions: constant flow and per-mode inlet temperature.

    In heating mode the building side cools the extracted warm water (its
    inlet is the cold building return), in cooling mode it warms the extracted
    cold water; t_b_heating < t_b_cooling therefore.
    """

    q_b: float
    t_b_heating: float
    t_b_cooling: float

    def __post_init__(self):
        # Written so that a NaN fails the checks too.
        if not self.q_b > 0.0:
            raise ParameterError(f"building-side flow must be positive, got {self.q_b}")
        if not (self.t_b_heating > 0.0 and self.t_b_cooling > 0.0):
            raise ParameterError("building-side temperatures must be positive kelvins")
        if not self.t_b_heating < self.t_b_cooling:
            raise ParameterError(
                "building-side heating inlet must be colder than the cooling "
                f"inlet, got {self.t_b_heating} and {self.t_b_cooling}")

    def t_b(self, mode: Mode) -> float:
        return self.t_b_heating if mode == "heating" else self.t_b_cooling


@dataclass(frozen=True)
class HxLinearization:
    """First-order Taylor expansion T_out ~ a*T_in + b*u + f around a point."""

    a: float
    b: float
    f: float


def hx_outlet_temp(t_in: float, u: float, q_b: float, t_b: float) -> float:
    """Nonlinear ATES-side outlet temperature of the heat exchanger."""
    if not q_b > 0.0:  # a NaN fails it too
        raise ParameterError(f"building-side flow must be positive, got {q_b}")
    return q_b / (q_b + abs(u)) * (t_b - t_in) + t_in


def linearize_hx(t_in_ref: float, u_ref: float, params: HxParams, mode: Mode) -> HxLinearization:
    """Taylor coefficients of the outlet temperature in (T_in, u).

    The derivative in u is one-sided, taken on the sign region the mode
    operates in; expanding a heating linearization around a cooling-side flow
    (or vice versa) is rejected.
    """
    sign = 1.0 if mode == "heating" else -1.0
    if not u_ref * sign >= 0.0:  # a NaN fails it too
        raise ParameterError(
            f"expansion flow {u_ref} contradicts the sign region of mode '{mode}'")
    t_b = params.t_b(mode)
    q_b = params.q_b
    denom = q_b + abs(u_ref)
    a = 1.0 - q_b / denom
    b = -sign * q_b * (t_b - t_in_ref) / denom**2
    value = hx_outlet_temp(t_in_ref, u_ref, q_b, t_b)
    f = value - a * t_in_ref - b * u_ref
    return HxLinearization(a, b, f)
