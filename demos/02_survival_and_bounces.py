"""Emergence of the collective state in the survival probability.

Start both atoms in the symmetric one-excitation state |s> with no field.
P1(t) first decays at the (dressed) one-atom rate 2*gamma_s1; each time the
emitted field completes a round trip (every x21), a new bounce term switches
on and the rate bends toward the collective 2*gamma_s. The theta-truncated
bounce series reproduces the kinks; summing all bounces reproduces the pure
collective pole. The exact lattice evolution and the spectral-density
quadrature agree to a few 1e-4 throughout.
"""
import numpy as np

from collective1d import (
    ModelParams,
    amplitude_quadrature,
    bounce_sum,
    build_lattice,
    collective_survival,
    find_pole,
    find_zs1,
    one_atom_pole,
    survival_probability,
)
from collective1d.bounces import BounceDecomposition

params = ModelParams()
x21 = 29.025
p = params.with_x21(x21)

print("building the L=500, 2501-mode lattice (symmetric sector) ...")
model = build_lattice(p, 500.0, 2501, "s")

z1 = one_atom_pole(params)
zs = find_pole("s", x21, z1.value, params)
zs1 = find_zs1(x21, params).pole
dec = BounceDecomposition.build(x21, params, t_max=5 * x21)

times = np.linspace(0.0, 5 * x21, 26)
lattice = survival_probability(model, "s", times)
quadr = amplitude_quadrature(times, "s", x21, params)
overlay = collective_survival(params, "s", x21, times, pole=zs)

print(f"\n  gamma_s1 = {zs1.gamma:.5f} (early rate/2), gamma_s = {zs.gamma:.5f} (late rate/2)")
print(f"\n  {'t/x21':>6} {'P1 lattice':>12} {'P1 quad':>12} {'(1/2)|I0|^2':>12} {'collective':>12}")
for i, t in enumerate(times):
    i0 = 0.5 * abs(bounce_sum(t, dec)) ** 2
    print(f"  {t / x21:6.2f} {lattice.values[i]:12.6f} "
          f"{0.5 * abs(quadr[i])**2:12.6f} {i0:12.6f} {overlay.values[i]:12.6f}")

early = (times > 0) & (times < x21)
late = times > 3 * x21
s_early = -np.polyfit(times[early], np.log(lattice.values[early]), 1)[0]
s_late = -np.polyfit(times[late], np.log(lattice.values[late]), 1)[0]
print(f"\n  fitted early slope {s_early:.5f} vs 2 gamma_s1 = {2 * zs1.gamma:.5f}")
print(f"  fitted late  slope {s_late:.5f} vs 2 gamma_s  = {2 * zs.gamma:.5f}")
print("  (the late window still carries interference with the neighbouring lattice poles)")
