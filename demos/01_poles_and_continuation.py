"""One-atom and collective resonance poles.

A single two-level emitter coupled to the 1D field decays: the resolvent's
inverse eta^+(z), continued below the real axis, has a root z1 whose real
part is the shifted level energy and whose imaginary part is (minus) the
decay rate. Adding a second emitter at distance x21 splits the problem into
symmetric/antisymmetric sectors whose poles z_s, z_a wander with x21, and
the cos(k x21) interference term spawns a whole lattice of extra poles
spaced by ~2 pi / x21.
"""
import numpy as np

from collective1d import (
    ModelParams,
    contour_map,
    eta_plus,
    find_pole,
    one_atom_pole,
    pole_scan,
    weak_coupling_estimate,
)

params = ModelParams()                       # omega1=2, lam=0.05, omegaM=5

z1 = one_atom_pole(params)
print(f"one-atom pole      z1 = {z1.value:.6f}")
print(f"  level shift          {z1.omega_tilde - params.omega1:+.6f}")
print(f"  lifetime             {1 / z1.gamma:.1f}")
print(f"  residue factor   N_1 = {z1.normalization:.6f}")
print(f"  |eta(z1)| certificate {abs(eta_plus(z1.value, None, 0.0, params)):.1e}")

x21 = 29.025
print(f"\ncollective poles at x21 = {x21}:")
for tag in ("s", "a"):
    est = weak_coupling_estimate(tag, x21, params)
    pole = find_pole(tag, x21, z1.value, params)
    print(f"  sector {tag}: z = {pole.value:.6f}   (weak-coupling seed was {est.value:.6f})")

print("\npole lattice (symmetric sector): spacing ~ 2 pi / x21 =",
      f"{2 * np.pi / x21:.4f}")
records, missing = pole_scan("s", x21, range(-3, 4), params)
for rec in records:
    print(f"  n={rec.lattice_index:+d}: z = {rec.value:.5f}   "
          f"dRe from z_s = {rec.omega_tilde - records[len(records)//2].omega_tilde:+.4f}")

print("\ncontour of log 1/|eta_s^+| over Re in [1.3, 2.7], Im in [-0.1, 0]:")
cmap = contour_map((1.3, 2.7, -0.1, 0.0), (57, 11), "s", x21, params)
peak = np.unravel_index(np.argmax(cmap.values), cmap.values.shape)
z_peak = complex(cmap.re[peak[1]], cmap.im[peak[0]])
nearest = min(records, key=lambda r: abs(r.value - z_peak))
print(f"  grid maximum at z = {z_peak:.3f}, one cell from the "
      f"n={nearest.lattice_index:+d} pole at {nearest.value:.3f}")
