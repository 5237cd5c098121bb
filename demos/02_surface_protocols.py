"""Contrast the two surface operating protocols.

Energy splitting (ES) divides each element's energy between the
transmission and reflection faces under a hard amplitude coupling and a
quarter-turn phase coupling. Time switching (TS) instead alternates
whole-surface modes and trades time fractions.
"""
import numpy as np

from star_isac.star_ris import es_coefficients, es_power_split, ts_periods

print("ES protocol: amplitude split along theta (one element)")
print(f"{'theta':>8} {'|A|^2':>8} {'|B|^2':>8} {'sum':>6}")
for theta in np.linspace(0, np.pi / 2, 7):
    a2, b2 = es_power_split(theta)
    print(f"{theta:8.3f} {a2:8.4f} {b2:8.4f} {a2 + b2:6.3f}")

# the phase coupling does not depend on theta: read it once where both
# faces are lit (theta = pi/4), for phi_b = 0.8 and either sign
print("\nES quarter-turn coupling, theta = pi/4, phi_b = 0.8")
for sign in (1.0, -1.0):
    phi_a, phi_b = es_coefficients(np.array([np.pi / 4]), np.array([0.8]),
                                   np.array([sign]))
    dphi = np.angle(phi_a[0]) - np.angle(phi_b[0])
    print(f"  sign {sign:+.0f}: phi_A - phi_B = {dphi / (np.pi / 2):+.6f} "
          f"x pi/2, cos = {np.cos(dphi):.1e}")

print("\nTS protocol: unit-modulus faces, time split pi_1 / pi_2")
for pi_1 in (0.0, 0.25, 0.5, 1.0):
    _, (pi_2, phi_a, phi_b) = ts_periods(pi_1, np.array([0.3, 1.1]),
                                         np.array([2.0, 0.4]))
    mods = np.abs(phi_a)
    print(f"  pi_1={pi_1:.2f}  pi_2={pi_2:.2f}  "
          f"|Phi_A| elements = {np.round(mods, 12)}")

print("\nES full-transmission corner (theta = pi/2): reflection face dark")
phi_a, phi_b = es_coefficients(np.full(3, np.pi / 2), np.zeros(3),
                               np.ones(3))
print(f"  |Phi_A| diag = {np.abs(phi_a)}")
print(f"  |Phi_B| diag = {np.abs(phi_b)}")
