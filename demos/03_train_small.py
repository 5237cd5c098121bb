"""Train DDPG and SAC on a reduced scenario and print learning curves.

The scale here (N=8, 60 episodes) keeps the run around a minute per
algorithm on a laptop core; the default desk scale lives in
ScenarioConfig and is what the acceptance checks use.
"""
from dataclasses import replace

import numpy as np

from star_isac.experiments import (ScenarioConfig, episode_returns, run_seed,
                                   seed_summary)

cfg = ScenarioConfig(N=8, episodes=60, seeds=(0,))

for algo in ("ddpg", "sac"):
    records, episode_ms = run_seed(replace(cfg, algorithm=algo), seed=0)
    returns = episode_returns(records)
    print(f"\n{algo.upper()} — per-episode return, blocks of 10 episodes")
    for i in range(0, len(returns), 10):
        block = returns[i:i + 10]
        bar = "#" * max(int(block.mean() / 2), 0)
        print(f"  ep {i:3d}-{i + len(block) - 1:3d}  "
              f"mean {block.mean():7.2f}  {bar}")
    s = seed_summary(records)
    print(f"  first-window mean {s['first_return']:.2f} -> "
          f"final-window mean {s['final_return']:.2f}, "
          f"secrecy {s['final_secrecy']:.3f} bps/Hz, "
          f"{np.mean(episode_ms):.0f} ms/episode")
