"""Trapping an electron in two coupled cavities.

A two-cavity electron waveguide maps onto the two-emitter problem: the
trapped cavity mode plays the excited level, the lead's open channel plays
the field, and the lead dispersion E = k^2/pi^2 + 1/W^2 replaces omega = |k|.
A single cavity always leaks. But at separations x21 = n / sqrt(xi - E01)
the collective condition 1 + sigma cos(k0 x21) = 0 holds self-consistently,
the collective pole lands exactly on the real axis, and the electron stays
put despite the open escape channel.
"""
from collective1d import (
    WaveguideParams,
    collective_pole_wg,
    existence_check,
    solve_trap,
)

wg = WaveguideParams()          # D = W = 1, trapped mode (1,1), xi0 = 2
print(f"cavity mode energy xi0 = {wg.xi0}, open-channel threshold E01 = {wg.threshold}")

report = existence_check(wg)
print(f"existence margin (analogue of the one-atom instability condition): "
      f"{report.margin:.4f} > 0 -> the trap equation has a solution\n")

for sector, n in (("s", 1), ("s", 3), ("a", 2)):
    sol = solve_trap(wg, n, sector)
    pole = collective_pole_wg(wg, sector, sol.x21_trap, seed=sol.xi_tilde - 1e-5j)
    print(f"sector {sector}, n={n}: xi_tilde = {sol.xi_tilde:.8f}, "
          f"x21_trap = {sol.x21_trap:.6f}, residual gamma = {abs(pole.gamma):.1e}")

sol = solve_trap(wg, 1, "s")
print("\ndetuning the separation away from the trap point makes it leak again:")
for factor in (0.9, 1.0, 1.1):
    pole = collective_pole_wg(wg, "s", factor * sol.x21_trap,
                              seed=sol.xi_tilde - (1e-5 if factor == 1.0 else 1e-3) * 1j)
    print(f"  x21 = {factor:.1f} * trap: gamma = {abs(pole.gamma):.2e}")

print("\nweaker coupling narrows the resonance but the trap condition is exact:")
for g0 in (0.05, 0.1, 0.15):
    guide = WaveguideParams(g0=g0)
    s = solve_trap(guide, 1, "s")
    print(f"  g0 = {g0}: xi_tilde - xi0 = {s.xi_tilde - guide.xi0:+.6f}, "
          f"x21_trap = {s.x21_trap:.6f}")

strong = WaveguideParams(g0=0.2)
print(f"\nat g0 = 0.2 the existence margin turns negative "
      f"({existence_check(strong).margin:.3f}): the level-shift integral swallows "
      "the escape energy and no trapped solution exists")
