"""Summing all bounces reproduces the collective pole.

The bounce expansion writes the survival amplitude as one term per field
round trip, each a high-order derivative of Delta(k)^n e^{-ikt} at the
dressed one-atom pole z_s1 (evaluated here with truncated-Taylor jets;
finite differences are hopeless at these orders). Without the causal theta
truncation the series resums, term by term, into N e^{-i z t} where z solves
k = z_s1 + Delta(k): the collective state, reconstructed entirely from
one-atom data plus round-trip factors.

The series has a finite radius: its terms grow like (|Delta(z_s1)| e x21)^n,
so beyond x21 ~ 12 (default coupling) it diverges and the module says so
rather than summing garbage.
"""
import numpy as np

from collective1d import ModelParams, bounce_term
from collective1d.bounces import BounceDecomposition, resummed

params = ModelParams()

for x21 in (1.0, 8.0):
    dec = BounceDecomposition.build(x21, params)
    print(f"x21 = {x21}: z_s1 = {dec.z_s1.value:.6f}")
    t = 1.5 * x21
    print(f"  first bounce terms at t = {t}:")
    for n in range(4):
        print(f"    f_{n} = {bounce_term(n, t, dec):+.3e}")
    rep = resummed(t, dec)
    print(f"  sum of all bounces = {rep.series_value:.10f}  ({rep.n_used + 1} terms)")
    print(f"  N e^(-i z t)       = {rep.pole_value:.10f}")
    print(f"  rel discrepancy    = {rep.rel_discrepancy:.2e}")
    print(f"  z from the pole equation: {rep.z_tilde:.8f}; "
          f"exact greens pole: {rep.z_s_greens:.8f}\n")

x21 = 29.025
dec = BounceDecomposition.build(x21, params)
growth = abs(dec.delta(dec.z_s1.value)) * np.e * x21
print(f"x21 = {x21}: term growth factor |Delta(z_s1)| e x21 = {growth:.2f} > 1")
rep = resummed(0.5 * x21, dec, allow_divergent=True)
print(f"  divergence detected after {rep.n_used + 1} terms (converged = {rep.converged})")
