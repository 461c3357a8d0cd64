"""Two-cavity electron waveguide: dispersion E_{k,l} = k^2/pi^2 + l^2/W^2 in
place of omega_k = |k|, a discrete channel index l, and the trap condition
1 + sigma cos(k0 x21) = 0 that pins an electron between the cavities even
though a single cavity would leak.

Quantitative couplings V0_{k,l} depend on the cavity-lead geometry and are
not modelled here; the coupling is a smooth single-peak model concentrated
on the open channel, set by three numbers (g0, k_c, channel_decay), so
every check in this module is structural (self-consistency, parity, signs)
rather than a numeric prediction.

Every channel integral is in closed form: v0^2 is even and rational in k, so
each integral is half a real-line integral, which the residues at k = a_l
(the channel pole) and at the double pole k = i k_c sum exactly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SolverError, as_sector, finite_integer, finite_real
from .greens import _MAX_NEWTON, ComplexEnergy, newton
from .io import write_json

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
        geometric across closed channels, so their sum has a sign-definite
        tail. Its square is even and rational in k, with a double pole at
        k = i k_c: `_channel_sum` integrates it by residues in that form, so
        a change here needs a new closed form there."""
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
    n = finite_integer(n, "trap n", minimum=1)
    if (n % 2 == 0) == (sector.sigma > 0):
        raise ConfigError(
            f"parity mismatch: n={n} requires the "
            f"{'antisymmetric' if n % 2 == 0 else 'symmetric'} sector")
    E01 = 1.0 / W**2
    if xi <= E01:
        raise ConfigError(f"xi={xi} at or below the channel threshold {E01}")
    return n / np.sqrt(xi - E01)


TRAP_TOL = 1e-12
# |eta_wg| < 1e-11 at the default trap, where |z| ~ xi0 = 2
WG_POLE_TOL = 5e-12
# e^u = 1 + u + u^2 sum_n u^n/(n+2)!, truncated where |u| < 1 leaves 1/22! ~ 1e-21
_PHI2 = tuple(1.0 / math.factorial(n + 2) for n in range(20))


def _residue_integral(a: complex, x: float, k_c: float) -> tuple[complex, complex]:
    """G(a, x) = int_R k^2 e^{ikx} dk / ((k^2 + k_c^2)^2 (a^2 - k^2)) and dG/da.

    For Im a > 0 and x >= 0 the upper half-plane holds a simple pole at k = a
    and a double pole at k = i k_c; their residues sum to
    pi [e^{-k_c x} (x + 1/k_c)/2 + i a x^2 Psi] / (a + i k_c)^2 with
    Psi = e^{-k_c x} phi(u), phi(u) = (e^u - 1 - u)/u^2, u = i (a - i k_c) x,
    which continues G analytically to Im a <= 0. Written this way the two
    residues' 1/(a^2 + k_c^2)^2 terms, which cancel where the poles meet
    (a = i k_c), never appear; phi is a power series where |u| < 1.
    """
    u = 1j * (a - 1j * k_c) * x
    decay = math.exp(-k_c * x)
    if abs(u) < 1.0:
        psi = dpsi = 0j
        for n in range(len(_PHI2) - 1, 0, -1):
            psi = psi * u + _PHI2[n]
            dpsi = dpsi * u + n * _PHI2[n]
        psi = decay * (psi * u + _PHI2[0])
        dpsi = decay * dpsi
    else:
        wave = cmath.exp(1j * a * x)
        psi = (wave - decay * (1.0 + u)) / u**2
        dpsi = (wave * (u - 2.0) + decay * (u + 2.0)) / u**3
    w = 1.0 / (a + 1j * k_c)
    g = math.pi * (0.5 * decay * (x + 1.0 / k_c) + 1j * a * x * x * psi) * w * w
    dg = -2.0 * g * w + 1j * math.pi * x * x * (psi + 1j * a * x * dpsi) * w * w
    return g, dg


def _channel_sum(z: complex, wg: WaveguideParams, sigma: int, x21: float,
                 derivative: bool = False):
    """sum_{l=1}^{l_max} J_l(z), J_l = int_0^inf v0(k,l)^2 (1 + sigma cos k x21)
    / (z - E_{k,l}) dk on the + branch, and with `derivative` also its z-derivative.

    The integrand is even in k, so J_l = (pi g0 k_c^2 d^(l-1))^2/2
    [G(a_l, 0) + sigma G(a_l, x21)] (d = channel_decay) with
    a_l^2 = pi^2 (z - l^2/W^2): the open channel takes the principal root
    a_1 = pi sqrt(z - E_01), continued through the axis; a closed channel takes
    a_l = i pi sqrt(l^2/W^2 - z), in the upper half-plane on both sides of it.
    On the axis J^- = conj J^+, so Re J^+ is the principal value.
    da/dz = pi^2/(2a) turns dG/da into the exact derivative.
    """
    z = complex(z)
    if z.real >= lead_energy(0.0, 2, wg.W):
        raise SolverError("Re z crosses a closed-channel threshold; single-open-channel "
                          "assumption violated")
    total = slope = 0j
    for l in range(1, wg.l_max + 1):
        if l == 1:
            a = math.pi * cmath.sqrt(z - wg.threshold)
        else:
            a = 1j * math.pi * cmath.sqrt(l**2 / wg.W**2 - z)
        w = 1.0 / (a + 1j * wg.k_c)
        g = 0.5 * math.pi * w * w / wg.k_c      # G(a, 0)
        dg = -2.0 * g * w
        if sigma:
            gx, dgx = _residue_integral(a, abs(x21), wg.k_c)
            g, dg = g + sigma * gx, dg + sigma * dgx
        scale = 0.5 * (math.pi * wg.g0 * wg.k_c**2 * wg.channel_decay ** (l - 1)) ** 2
        total += scale * g
        if derivative:
            slope += scale * dg * math.pi**2 / (2.0 * a)
    return (total, slope) if derivative else total


@dataclass
class ExistenceReport:
    ok: bool
    margin: float


def existence_check(wg: WaveguideParams) -> ExistenceReport:
    """Margin xi0 - E_{0,1} - 2 sum_l int |v0|^2 / (E_{k,l} - E_{0,1}) dk, that is
    xi0 - E_{0,1} + 2 sum_l J_l(E_{0,1}) at sigma = 0; positive means the trap
    equation has a solution (the structural analogue of the one-atom
    instability condition)."""
    wg.validate()
    margin = wg.xi0 - wg.threshold + 2.0 * _channel_sum(wg.threshold, wg, 0, 0.0).real
    return ExistenceReport(bool(margin > 0), float(margin))


@dataclass
class TrapSolution:
    sector: str
    n: int
    xi0: float
    xi_tilde: float
    x21_trap: float
    residual: float


def solve_trap(wg: WaveguideParams, n: int, sector) -> TrapSolution:
    """Self-consistent trapped energy xi_tilde and distance x21 = g(xi_tilde).

    Solves the principal-value trap equation
    h(xi) = xi - xi0 - 2 Re sum_l J_l(xi) = 0 at x21 = g(xi) by `newton` on
    its secant path, from xi0 to TRAP_TOL within _MAX_NEWTON steps; residual
    is |h| re-evaluated at the xi_tilde returned.
    """
    sector = as_sector(sector)
    wg.validate()
    report = existence_check(wg)
    if not report.ok:
        raise ConfigError(f"existence condition violated (margin {report.margin:.3e})")
    trap_distance(wg.xi0, n, sector, wg.W)   # integer/parity/threshold validation

    def h(xi):
        xi = xi.real
        if not (wg.threshold < xi < lead_energy(0.0, 2, wg.W)):
            raise SolverError(f"trap solve left the single-channel window: {xi}")
        g = trap_distance(xi, n, sector, wg.W)
        return xi - wg.xi0 - 2.0 * _channel_sum(xi, wg, sector.sigma, g).real, None

    xi = float(newton(h, wg.xi0, TRAP_TOL, _MAX_NEWTON, "trap solve")[0].real)
    return TrapSolution(sector.tag, n, wg.xi0, xi, float(trap_distance(xi, n, sector, wg.W)),
                        float(abs(h(xi)[0])))


def _eta_wg(z: complex, wg: WaveguideParams, sigma: int, x21: float) -> complex:
    """z - xi0 - 2 sum_l J_l(z) on the + branch, one analytic function through
    the axis."""
    return z - wg.xi0 - 2.0 * _channel_sum(z, wg, sigma, x21)


def collective_pole_wg(wg: WaveguideParams, sector, x21: float,
                       seed: complex | None = None) -> ComplexEnergy:
    """Collective pole of the waveguide pair at separation x21: `newton` to
    WG_POLE_TOL, with the exact derivative of the closed form. gamma vanishes
    to solver tolerance exactly at x21 = g(xi_tilde) from solve_trap."""
    sector = as_sector(sector)
    if sector is None:
        raise ConfigError("collective_pole_wg needs a two-cavity sector")
    x21 = finite_real(x21, "waveguide x21")
    if not x21 > 0:
        raise ConfigError(f"waveguide x21 must be positive, got {x21!r}")
    wg.validate()

    def fdf(z):
        total, slope = _channel_sum(z, wg, sector.sigma, x21, derivative=True)
        return z - wg.xi0 - 2.0 * total, 1.0 - 2.0 * slope

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
