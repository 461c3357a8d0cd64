"""Field intensity in space: wavefronts, then a collective envelope.

Shortly after the start, each atom has emitted a field truncated at its
light cone |x - x_i| = t with an exponentially growing envelope behind the
front. After a few bounces the region between the atoms settles onto the
pure collective-state profile P_zs(x, t), which factorizes into a frozen
shape times e^{-2 gamma_s t} and has no light-cone truncation of its own.
"""
import numpy as np

from collective1d import (
    ModelParams,
    build_lattice,
    collective_field,
    field_intensity,
    find_pole,
    one_atom_pole,
)

params = ModelParams()
x21 = 29.025
p = params.with_x21(x21)

print("building the lattice ...")
model = build_lattice(p, 500.0, 2501, "s")
pole = find_pole("s", x21, one_atom_pole(params).value, params)

t_early = 0.32 * x21
prof = field_intensity(model, "s", np.linspace(-1.5 * x21, 2.5 * x21, 25), t_early)
print(f"\nP(x, t={t_early:.1f}) -- wavefronts inside |x - x_i| <= t:")
for x, val in zip(prof.positions, prof.intensity):
    bar = "#" * int(60 * val / prof.intensity.max())
    print(f"  x/x21 = {x / x21:+5.2f} {val:10.2e} {bar}")

t_late = 4.02 * x21
xs = np.linspace(1.0, x21 - 1.0, 13)
lattice = field_intensity(model, "s", xs, t_late)
collective = collective_field(p, "s", x21, xs, t_late, pole=pole)
print(f"\nbetween the atoms at t = 4.02 x21 the full field matches the "
      f"collective profile:")
print(f"  {'x/x21':>6} {'P(x,t)':>12} {'P_zs(x,t)':>12}")
for x, a, b in zip(xs, lattice.intensity, collective.intensity):
    print(f"  {x / x21:6.2f} {a:12.3e} {b:12.3e}")
scale = collective.intensity.max()
print(f"  max deviation: {np.abs(lattice.intensity - collective.intensity).max() / scale * 100:.1f}% "
      "of the peak")
