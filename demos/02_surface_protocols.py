"""Contrast the two surface operating protocols.

Energy splitting (ES) divides each element's energy between the
transmission and reflection faces under a hard amplitude coupling and a
quarter-turn phase coupling. Time switching (TS) instead alternates
whole-surface modes and trades time fractions.
"""
import numpy as np

from star_isac.star_ris import (StarRisEsConfig, StarRisTsConfig,
                                es_coefficients, ts_coefficients)

print("ES protocol: amplitude split along theta (one element)")
print(f"{'theta':>8} {'|A|^2':>8} {'|B|^2':>8} {'sum':>6} {'cos(dphi)':>10}")
for theta in np.linspace(0, np.pi / 2, 7):
    cfg = StarRisEsConfig(theta=np.array([theta]), phi_b=np.array([0.8]),
                          sign=np.array([1.0]))
    a2, b2 = cfg.alpha_a_sq[0], cfg.alpha_b_sq[0]
    coupling = np.cos(cfg.phi_a[0] - cfg.phi_b[0])
    print(f"{theta:8.3f} {a2:8.4f} {b2:8.4f} {a2 + b2:6.3f} {coupling:10.1e}")

print("\nTS protocol: unit-modulus faces, time split pi_1 / pi_2")
for pi_1 in (0.0, 0.25, 0.5, 1.0):
    cfg = StarRisTsConfig(pi_1=pi_1, phi_a=np.array([0.3, 1.1]),
                          phi_b=np.array([2.0, 0.4]))
    phi_a, phi_b = ts_coefficients(cfg)
    mods = np.abs(phi_a)
    print(f"  pi_1={cfg.pi_1:.2f}  pi_2={cfg.pi_2:.2f}  "
          f"|Phi_A| elements = {np.round(mods, 12)}")

print("\nES full-transmission corner (theta = pi/2): reflection face dark")
cfg = StarRisEsConfig(theta=np.full(3, np.pi / 2), phi_b=np.zeros(3),
                      sign=np.ones(3))
phi_a, phi_b = es_coefficients(cfg)
print(f"  |Phi_A| diag = {np.abs(phi_a)}")
print(f"  |Phi_B| diag = {np.abs(phi_b)}")
