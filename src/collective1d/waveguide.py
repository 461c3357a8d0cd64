"""Two-cavity electron waveguide: dispersion E_{k,l} = k^2/pi^2 + l^2/W^2 in
place of omega_k = |k|, a discrete channel index l, and the trap condition
1 + sigma cos(k0 x21) = 0 that pins an electron between the cavities even
though a single cavity would leak.

Quantitative couplings V0_{k,l} depend on the cavity-lead geometry and are
not modelled here; the coupling is a smooth single-peak model concentrated
on the open channel, set by three numbers (g0, k_c, channel_decay), so
every check in this module is structural (self-consistency, parity, signs)
rather than a numeric prediction.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SolverError, as_sector, finite_integer, finite_real
from .greens import ComplexEnergy, fixed_point, newton
from .io import write_json
from .quadrature import QuadratureSpec, adaptive_integral

__all__ = [
    "WaveguideParams",
    "TrapSolution",
    "ExistenceReport",
    "cavity_energy",
    "lead_energy",
    "open_channel_momentum",
    "trap_distance",
    "existence_check",
    "solve_trap",
    "collective_pole_wg",
    "trap_report_to_json",
]


@dataclass(frozen=True)
class WaveguideParams:
    D: float = 1.0              # cavity vertical dimension
    W: float = 1.0              # lead vertical dimension
    m0: int = 1                 # trapped-mode horizontal index
    n0: int = 1                 # trapped-mode vertical index
    x1: float = 0.0
    x2: float = 1.0
    l_max: int = 10             # channel truncation (>= 2: keep a closed channel)
    g0: float = 0.1             # coupling scale
    k_c: float = 2.0            # coupling roll-off momentum
    channel_decay: float = 0.2  # coupling ratio of neighbouring channels

    def coupling(self, k, l: int):
        """Invented smooth coupling v0(k, l) = g0 k/(1+(k/k_c)^2) * channel_decay^(l-1):
        linear in k at the threshold, so the existence integral converges;
        analytic in k for the pole solver; geometric across closed channels,
        so their sum has a sign-definite tail."""
        return self.g0 * k / (1.0 + (k / self.k_c) ** 2) * self.channel_decay ** (l - 1)

    @property
    def xi0(self) -> float:
        return cavity_energy(self.m0, self.n0, self.D)

    @property
    def threshold(self) -> float:
        """Open-channel threshold E_{0,1}."""
        return lead_energy(0.0, 1, self.W)

    def validate(self) -> "WaveguideParams":
        for name in ("D", "W", "k_c", "g0", "channel_decay"):
            value = finite_real(getattr(self, name), f"waveguide {name}")
            if name in ("D", "W", "k_c") and not value > 0:
                raise ConfigError(f"waveguide {name} must be positive, got {value!r}")
        for name in ("m0", "n0", "l_max"):
            finite_integer(getattr(self, name), f"waveguide {name}")
        if self.l_max < 2:
            raise ConfigError("l_max must be >= 2 (keep at least one closed channel)")
        if not (self.threshold < self.xi0 < lead_energy(0.0, 2, self.W)):
            raise ConfigError(
                f"single-open-channel window violated: need E_01={self.threshold} < "
                f"xi0={self.xi0} < E_02={lead_energy(0.0, 2, self.W)}")
        return self


def cavity_energy(m: int, n: int, D: float) -> float:
    """Closed-cavity mode energy m^2 + n^2/D^2 (m, n positive integers)."""
    if m < 1 or n < 1:
        raise ConfigError("cavity mode indices must be >= 1")
    return m**2 + n**2 / D**2


def lead_energy(k, l: int, W: float):
    """Lead dispersion k^2/pi^2 + l^2/W^2 for channel l >= 1."""
    if l < 1:
        raise ConfigError("lead channel index must be >= 1")
    return np.asarray(k) ** 2 / np.pi**2 + l**2 / W**2


def open_channel_momentum(E, W: float):
    """k0(E) = pi sqrt(E - E_{0,1}) on the open channel (principal branch
    for complex E)."""
    E01 = 1.0 / W**2
    return np.pi * np.sqrt(np.asarray(E, dtype=complex) - E01)


def trap_distance(xi: float, n: int, sector, W: float) -> float:
    """g(xi) = n / sqrt(xi - E_{0,1}); n odd for the symmetric sector, even
    for the antisymmetric, which is exactly what makes
    1 + sigma cos(k0(xi) g(xi)) = 0."""
    sector = as_sector(sector)
    if sector is None:
        raise ConfigError("trap_distance needs a two-cavity sector")
    if (n % 2 == 0) == (sector.sigma > 0):
        raise ConfigError(
            f"parity mismatch: n={n} requires the "
            f"{'antisymmetric' if n % 2 == 0 else 'symmetric'} sector")
    E01 = 1.0 / W**2
    if xi <= E01:
        raise ConfigError(f"xi={xi} at or below the channel threshold {E01}")
    return n / np.sqrt(xi - E01)


_WG_QUAD = QuadratureSpec(cutoff=800.0, rel_tol=1e-11, abs_tol=1e-13, max_panels=4000)
TRAP_TOL = 1e-12
_TRAP_MAX_ITER = 300
# |eta_wg| < 1e-11 at the default trap, where |z| ~ xi0 = 2
WG_POLE_TOL = 5e-12


def _closed_channel_sum(wg: WaveguideParams, quad: QuadratureSpec, integrand_for_l) -> float:
    """Sum over l = 2..l_max of smooth channel integrals; warns when the
    last term, which bounds the geometric tail (terms are sign-definite
    below threshold), exceeds 1e3 abs_tol."""
    total = term = 0.0
    for l in range(2, wg.l_max + 1):
        term = float(np.real(adaptive_integral(integrand_for_l(l), 1e-12, quad.cutoff, quad)))
        total += term
    if abs(term) > 1e3 * quad.abs_tol:
        warnings.warn(f"closed-channel tail after l_max={wg.l_max} may exceed tolerance "
                      f"(last term {term:.2e})", stacklevel=3)
    return total


@dataclass
class ExistenceReport:
    ok: bool
    margin: float


def existence_check(wg: WaveguideParams, quad: QuadratureSpec = _WG_QUAD) -> ExistenceReport:
    """Margin xi0 - E_{0,1} - 2 sum_l int |v0|^2 / (E_{k,l} - E_{0,1}) dk;
    positive means the trap equation has a solution (the structural analogue
    of the one-atom instability condition)."""
    wg.validate()
    E01 = wg.threshold
    v0 = wg.coupling

    def open_integrand(k):
        return v0(k, 1) ** 2 * np.pi**2 / k**2     # E_{k,1} - E01 = k^2/pi^2

    total = float(np.real(adaptive_integral(open_integrand, 1e-12, quad.cutoff, quad)))
    total += _closed_channel_sum(
        wg, quad, lambda l: (lambda k: v0(k, l) ** 2 / (lead_energy(k, l, wg.W) - E01)))
    margin = wg.xi0 - E01 - 2.0 * total
    return ExistenceReport(bool(margin > 0), float(margin))


@dataclass
class TrapSolution:
    sector: str
    n: int
    xi0: float
    xi_tilde: float
    x21_trap: float
    residual: float


def solve_trap(wg: WaveguideParams, n: int, sector,
               quad: QuadratureSpec = _WG_QUAD) -> TrapSolution:
    """Self-consistent trapped energy xi_tilde and distance x21 = g(xi_tilde).

    Damped `fixed_point` of the principal-value trap equation, to TRAP_TOL
    within _TRAP_MAX_ITER steps; the open-channel PV uses subtraction around
    k0 (the leftover PV of 1/(k0^2 - k^2) over the half-line is exactly zero).
    """
    sector = as_sector(sector)
    wg.validate()
    report = existence_check(wg, quad)
    if not report.ok:
        raise ConfigError(f"existence condition violated (margin {report.margin:.3e})")
    trap_distance(wg.xi0, n, sector, wg.W)   # parity/threshold validation
    E01 = wg.threshold
    v0 = wg.coupling
    sigma = sector.sigma

    def trap_map(xi):
        g = trap_distance(xi, n, sector, wg.W)
        k0 = np.pi * np.sqrt(xi - E01)

        def h_open(k):
            return v0(k, 1) ** 2 * (1.0 + sigma * np.cos(k * g))

        h0 = h_open(k0)

        def subtracted(k):
            return (h_open(k) - h0) * np.pi**2 / (k0**2 - k**2)

        seeds = [0.0, 0.5 * k0, k0, 1.5 * k0, 3 * k0, quad.cutoff]
        total = float(np.real(adaptive_integral(subtracted, 1e-12, quad.cutoff, quad,
                                                seed_edges=seeds)))
        total += _closed_channel_sum(
            wg, quad,
            lambda l: (lambda k: v0(k, l) ** 2 * (1.0 + sigma * np.cos(k * g))
                       / (xi - lead_energy(k, l, wg.W))))
        xi_new = wg.xi0 + 2.0 * total
        if not (E01 < xi_new < lead_energy(0.0, 2, wg.W)):
            raise SolverError(f"trap fixed point left the single-channel window: {xi_new}")
        return xi_new

    xi, residual = fixed_point(trap_map, wg.xi0, TRAP_TOL, _TRAP_MAX_ITER, "trap fixed point")
    return TrapSolution(sector.tag, n, wg.xi0, float(xi),
                        float(trap_distance(xi, n, sector, wg.W)), float(residual))


def _eta_wg(z: complex, wg: WaveguideParams, sigma: int, x21: float,
            quad: QuadratureSpec) -> complex:
    """z - xi0 - 2 sum_l J_l(z) on the + branch.

    Open channel: substituting E = E_{k,1} makes the continuation correction
    -2 pi i |v0(k0,1)|^2 (1+sigma cos k0 x21) dk/dE; folded into the single
    analytic expression J_1 = int (h - h(kz))/(z - E_{k,1}) dk
    - i pi^3 h(kz)/(2 kz), kz = pi sqrt(z - E01), valid on both sides of the
    axis. Closed channels have no crossing for Re z inside the window and
    stay plain integrals.
    """
    E01 = wg.threshold
    v0 = wg.coupling
    kz = np.pi * np.sqrt(complex(z) - E01)
    hz = v0(kz, 1) ** 2 * (1.0 + sigma * np.cos(kz * x21))

    def subtracted(k):
        h = v0(k, 1) ** 2 * (1.0 + sigma * np.cos(k * x21))
        return (h - hz) * np.pi**2 / (kz**2 - k**2)

    k0r = abs(kz)
    seeds = [0.0, 0.5 * k0r, k0r, 1.5 * k0r, 3 * k0r, quad.cutoff]
    j1 = adaptive_integral(subtracted, 1e-12, quad.cutoff, quad, seed_edges=seeds)
    j1 = j1 - 1j * np.pi**3 * hz / (2.0 * kz)
    total = j1
    for l in range(2, wg.l_max + 1):
        if z.real >= lead_energy(0.0, l, wg.W):
            raise SolverError("Re z crosses a closed-channel threshold; single-open-channel "
                                 "assumption violated")
        total += adaptive_integral(
            lambda k: v0(k, l) ** 2 * (1.0 + sigma * np.cos(k * x21)) / (z - lead_energy(k, l, wg.W)),
            1e-12, quad.cutoff, quad)
    return z - wg.xi0 - 2.0 * total


def collective_pole_wg(wg: WaveguideParams, sector, x21: float,
                       quad: QuadratureSpec = _WG_QUAD,
                       seed: complex | None = None) -> ComplexEnergy:
    """Collective pole of the waveguide pair at separation x21: `newton` to
    WG_POLE_TOL, with a central-difference derivative. gamma vanishes to
    solver tolerance exactly at x21 = g(xi_tilde) from solve_trap."""
    sector = as_sector(sector)
    wg.validate()

    def eta(z):
        return _eta_wg(z, wg, sector.sigma, x21, quad)

    def fdf(z):
        h = 1e-7
        return eta(z), (eta(z + h) - eta(z - h)) / (2 * h)

    z, df = newton(fdf, complex(wg.xi0, -1e-4) if seed is None else seed,
                   WG_POLE_TOL, 80, "waveguide pole Newton")
    return ComplexEnergy.from_root(z, sector, 0, 1.0 / df, gamma_tol=1e-9)


def trap_report_to_json(solution: TrapSolution, pole: ComplexEnergy,
                        report: ExistenceReport, path) -> None:
    payload = {
        "sector": solution.sector,
        "n": solution.n,
        "xi0": solution.xi0,
        "xi_tilde": solution.xi_tilde,
        "x21_trap": solution.x21_trap,
        "gamma_residual": pole.gamma,
        "margin": report.margin,
    }
    write_json(path, payload)
