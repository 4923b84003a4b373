"""Potential models on a line or in a box, and the variable mass term.

A potential is a piecewise-constant complex profile plus point couplings
i*zeta_n*delta(x - a_n).  Step discontinuities follow the midpoint
convention theta(0) = 1/2, sign(0) = 0: evaluating exactly at a jump
returns the average of the one-sided values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qmetric.kernels import Grid

__all__ = [
    "unit_step",
    "PhysConstants",
    "Domain",
    "PotentialSpec",
    "constants_preset",
    "check_grid",
    "eval_potential",
    "eval_mass_term",
    "square_well",
    "scattering_potential",
    "delta_potential",
    "pt_delta_pairs",
]

_BOUNDARY_ATOL = 1e-13


def unit_step(x) -> np.ndarray:
    """Heaviside step with the midpoint convention theta(0) = 1/2."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, 1.0, np.where(x < 0.0, 0.0, 0.5))


@dataclass(frozen=True)
class PhysConstants:
    """Physical constants hbar and m entering the kernel equations."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")

    @property
    def c0(self) -> float:
        """Mass-term prefactor 2m/hbar^2."""
        return 2.0 * self.mass / self.hbar**2


def constants_preset(name: str) -> PhysConstants:
    """Return a named constants preset.

    "natural" sets hbar = m = 1.  "bender-tan" sets hbar = 1, m = 1/2
    (the gauge hbar = 2m = L/pi = 1 used for the box model; the matching
    box length is pi).
    """
    presets = {
        "natural": PhysConstants(hbar=1.0, mass=1.0),
        "bender-tan": PhysConstants(hbar=1.0, mass=0.5),
    }
    try:
        return presets[name]
    except KeyError:
        raise ValueError(
            f"unknown constants preset {name!r}; expected one of {sorted(presets)}"
        ) from None


@dataclass(frozen=True)
class Domain:
    """Spatial domain: a box with infinite walls at +-L/2, or the full line
    when the length L is None."""

    L: float | None = None

    def __post_init__(self):
        if self.L is not None and not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"box domain needs a positive finite length, got {self.L}")

    @staticmethod
    def line() -> "Domain":
        return Domain()

    @staticmethod
    def box(L: float) -> "Domain":
        return Domain(float(L))

    @property
    def is_box(self) -> bool:
        return self.L is not None

    @property
    def kind(self) -> str:
        return "box" if self.is_box else "line"

    @property
    def half_width(self) -> float | None:
        return None if self.L is None else 0.5 * self.L


@dataclass(frozen=True)
class PotentialSpec:
    """Piecewise-constant complex potential plus imaginary point couplings.

    segments: ordered disjoint ((a, b), value) pieces with a < b; the
        potential is `value` on (a, b) and 0 outside all segments.
    deltas: (a_n, zeta_n) pairs contributing i*zeta_n*delta(x - a_n)
        with real zeta_n; excluded from pointwise evaluation and handled
        analytically downstream.
    """

    constants: PhysConstants
    domain: Domain
    segments: tuple[tuple[tuple[float, float], complex], ...] = field(default_factory=tuple)
    deltas: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        segs = tuple(((float(a), float(b)), complex(v)) for (a, b), v in self.segments)
        dels = tuple((float(a), float(z)) for a, z in self.deltas)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "deltas", dels)
        prev_end = -math.inf
        for (a, b), v in segs:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"segment endpoints must satisfy a < b, got ({a}, {b})")
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"segment value must be finite, got {v}")
            if a < prev_end - _BOUNDARY_ATOL:
                raise ValueError("segments must be ordered and disjoint")
            prev_end = b
        for a, z in dels:
            if not (math.isfinite(a) and math.isfinite(z)):
                raise ValueError(f"delta term must be finite, got ({a}, {z})")
        if self.domain.is_box:
            half = self.domain.half_width
            for (a, b), _ in segs:
                if a < -half - _BOUNDARY_ATOL or b > half + _BOUNDARY_ATOL:
                    raise ValueError("segments must lie inside the box")
            for a, _ in dels:
                if abs(a) >= half:
                    raise ValueError("delta locations must lie strictly inside the box")

    @property
    def has_segments(self) -> bool:
        return len(self.segments) > 0

    @property
    def has_deltas(self) -> bool:
        return len(self.deltas) > 0


def check_grid(pot: PotentialSpec, grid: Grid) -> None:
    """ValueError unless the grid carries pot: a box potential's grid spans
    the box (1e-12 relative half-width), and every point coupling lies on
    the grid (1e-9 relative)."""
    if pot.domain.is_box:
        half = pot.domain.half_width
        if abs(grid.half_width - half) > 1e-12 * max(1.0, half):
            raise ValueError(
                f"grid half-width {grid.half_width} does not match the box half-width {half}")
    for a, _ in pot.deltas:
        if abs(a) > grid.half_width + 1e-9 * max(1.0, grid.half_width):
            raise ValueError(f"delta location {a} lies outside the grid")


def eval_potential(pot: PotentialSpec, x) -> np.ndarray:
    """Evaluate the piecewise-constant part of the potential at x.

    Points exactly on a step take the midpoint of the one-sided values
    (sign(0) = 0 convention).  Delta terms are excluded.  For a box
    domain, points outside the walls raise ValueError.

    Args:
        x: scalar or array of positions.

    Returns:
        Complex array of the same shape as x.
    """
    x = np.asarray(x, dtype=float)
    if pot.domain.is_box:
        half = pot.domain.half_width
        if np.any(np.abs(x) > half * (1.0 + 1e-12) + _BOUNDARY_ATOL):
            raise ValueError("evaluation point outside the box domain")
    out = np.zeros(x.shape, dtype=complex)
    for (a, b), v in pot.segments:
        out[(x > a) & (x < b)] = v
    # midpoint value at every segment endpoint
    breakpoints: dict[float, list[complex]] = {}
    for (a, b), v in pot.segments:
        breakpoints.setdefault(a, [0.0, 0.0])[1] = v   # v is the limit from the right of a
        breakpoints.setdefault(b, [0.0, 0.0])[0] = v   # and from the left of b
    for b0, (left, right) in breakpoints.items():
        hit = np.abs(x - b0) <= _BOUNDARY_ATOL * max(1.0, abs(b0))
        if np.any(hit):
            out[hit] = 0.5 * (left + right)
    return out


def eval_mass_term(pot: PotentialSpec, x, y) -> np.ndarray:
    """Variable mass term mu^2(x, y) = (2m/hbar^2) [conj(v(x)) - v(y)].

    x and y must broadcast against each other; delta terms are excluded.
    """
    vx = eval_potential(pot, x)
    vy = eval_potential(pot, y)
    return pot.constants.c0 * (np.conj(vx) - vy)


def square_well(zeta: float, L: float, constants: PhysConstants) -> PotentialSpec:
    """Imaginary step well v(x) = -i*zeta*sign(x) inside a box of length L."""
    half = 0.5 * float(L)
    return PotentialSpec(
        constants=constants,
        domain=Domain.box(L),
        segments=(((-half, 0.0), 1j * zeta), ((0.0, half), -1j * zeta)),
    )


def scattering_potential(zeta: float, L: float, constants: PhysConstants) -> PotentialSpec:
    """Same imaginary step profile as the well, but on the full line (0 outside)."""
    half = 0.5 * float(L)
    return PotentialSpec(
        constants=constants,
        domain=Domain.line(),
        segments=(((-half, 0.0), 1j * zeta), ((0.0, half), -1j * zeta)),
    )


def delta_potential(terms, constants: PhysConstants) -> PotentialSpec:
    """Point-coupling potential v(x) = sum_n i*zeta_n*delta(x - a_n) on the line.

    Args:
        terms: iterable of (a_n, zeta_n) pairs with real zeta_n.
    """
    return PotentialSpec(constants=constants, domain=Domain.line(), deltas=tuple(terms))


def pt_delta_pairs(pairs, constants: PhysConstants) -> PotentialSpec:
    """PT-symmetric point couplings: for each (a, zeta), adds (a, zeta) and (-a, -zeta)."""
    terms = []
    for a, z in pairs:
        terms.append((float(a), float(z)))
        terms.append((-float(a), -float(z)))
    return delta_potential(terms, constants)


def potential_to_dict(pot: PotentialSpec) -> dict:
    dom: dict = {"type": pot.domain.kind}
    if pot.domain.is_box:
        dom["L"] = pot.domain.L
    return {
        "constants": {"hbar": pot.constants.hbar, "mass": pot.constants.mass},
        "domain": dom,
        "segments": [
            {"from": a, "to": b, "re": v.real, "im": v.imag} for (a, b), v in pot.segments
        ],
        "deltas": [{"a": a, "zeta": z} for a, z in pot.deltas],
    }


def potential_from_dict(data: dict) -> PotentialSpec:
    try:
        const = PhysConstants(hbar=float(data["constants"]["hbar"]),
                              mass=float(data["constants"]["mass"]))
        dom_data = data["domain"]
        if dom_data["type"] == "box":
            dom = Domain.box(float(dom_data["L"]))
        elif dom_data["type"] == "line":
            dom = Domain.line()
        else:
            raise ValueError(f"unknown domain type {dom_data['type']!r}")
        segments = tuple(
            ((float(s["from"]), float(s["to"])), complex(float(s["re"]), float(s["im"])))
            for s in data.get("segments", [])
        )
        deltas = tuple((float(d["a"]), float(d["zeta"])) for d in data.get("deltas", []))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed potential specification: {exc}") from exc
    return PotentialSpec(constants=const, domain=dom, segments=segments, deltas=deltas)
