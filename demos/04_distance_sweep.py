"""Sub- and super-radiance versus emitter separation.

Both collective decay rates oscillate around the one-atom rate with period
~ 2 pi / omega_tilde_1. At distances (2n+1) pi / omega_s (symmetric) or
2n pi / omega_a (antisymmetric) a rate vanishes exactly: the emitted fields
interfere destructively outside, the pair traps radiation, and a stationary
collective state appears. The force indicator -d omega_j / dx21 oscillates
in step, giving alternating stable/unstable separations: a one-dimensional
"molecule" held together by the exchanged field.
"""
import numpy as np

from collective1d import (
    ModelParams,
    force_indicator,
    one_atom_pole,
    pair_relation_check,
    stable_points,
    sweep_poles,
    zero_decay_solve,
)

params = ModelParams()
z1 = one_atom_pole(params)

grid = np.arange(5.0, 20.0 + 1e-9, 0.05)
print(f"sweeping x21 over [{grid[0]}, {grid[-1]}] ({grid.size} points) ...")
records = sweep_poles(grid, params)

print(f"\n  {'x21':>6} {'gamma_s':>10} {'gamma_a':>10}   (gamma_1 = {z1.gamma:.5f})")
for rec in records[::20]:
    mark_s = "SUPER" if rec.z_s.gamma > 1.5 * z1.gamma else (
        "sub" if rec.z_s.gamma < 0.2 * z1.gamma else "")
    print(f"  {rec.x21:6.2f} {rec.z_s.gamma:10.6f} {rec.z_a.gamma:10.6f}   {mark_s}")

print("\nzero-decay distances predicted by the stationarity equations:")
for tag, ns in (("s", (2, 3, 4, 5)), ("a", (2, 3, 4, 5, 6))):
    for n in ns:
        sol = zero_decay_solve(tag, n, params)
        if grid[0] <= sol.x21_zero <= grid[-1]:
            print(f"  sector {tag}, n={n}: x21 = {sol.x21_zero:.4f} "
                  f"(omega_o = {sol.omega_o:.5f})")

force = force_indicator(records)
points = stable_points(force["s"])
print("\nforce-indicator roots (symmetric sector):")
for x, stable in points:
    print(f"  x21 = {x:7.3f}  {'stable' if stable else 'unstable'}")

rep = pair_relation_check(records, params)
print(f"\npair relation |z1 - (z_s + z_a)/2|: median {rep.median_deviation:.2e}, "
      f"max {rep.max_deviation:.2e} at x21 = {rep.argmax_x21:.2f}")
