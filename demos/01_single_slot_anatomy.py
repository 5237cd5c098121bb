"""Walk through one environment step at desk scale.

Builds the default scenario, decodes a random raw action into a
power-feasible beamformer plus a coupled surface configuration, and
prints every quantity the reward depends on.
"""
import numpy as np

from star_isac.experiments import ScenarioConfig, build_baseline

cfg = ScenarioConfig()
env = build_baseline(cfg, seed=1)
env.reset()

print(f"scenario: L={cfg.L} antennas, N={cfg.N} elements, M={cfg.M} users")
print(f"action dim {env.action_dim} (beamformer {env._beam_len} reals "
      f"+ surface {env.ris_action_dim}), state dim {env.state_dim}")

rng = np.random.default_rng(0)
raw = rng.uniform(-1, 1, env.action_dim)
design, [(_, phi_a, phi_b)] = env.decode_action(raw)

power = np.trace(design.K @ design.K.conj().T).real
print(f"\ntransmit power {power:.4f} W of budget {env.p_max:.4f} W")
amp = np.abs(phi_a) ** 2 + np.abs(phi_b) ** 2
print(f"per-element |A|^2 + |B|^2 range: "
      f"[{amp.min():.15f}, {amp.max():.15f}]  (energy splitting)")

out = env.step(raw)
print("\nstep outcome")
print(f"  user rates        {np.round(out.lu_rates, 4)} bps/Hz (R0={env.r_min})")
print(f"  eavesdropper      {np.round(out.eve_rates, 4)} bps/Hz")
print(f"  sensing-target rx {np.round(out.st_rates, 4)} bps/Hz")
print(f"  secrecy rates     {np.round(out.secrecy_rates, 4)} "
      f"-> sum {out.sum_secrecy_rate:.4f}")
print(f"  echo SNR          {out.echo_snr:.3f} "
      f"(threshold {env.sensing.kappa_t:.3f}, "
      f"feasible={out.snr_feasible})")
print(f"  reward            {out.reward:.4f}")
