"""How one filter step truncates the association space.

A single parent hypothesis with two alive labels and three measurements
already has dozens of valid association maps. This demo builds the log-cost
matrix for such a step and shows the exact ranked maps next to what the
seeded Gibbs sampler visits, including the weight each map would give a
child hypothesis.
"""
import math

import numpy as np

from geoglmb import (
    Gaussian,
    GlmbHypothesis,
    Label,
    SensorModel,
    MotionModel,
)
from geoglmb.filter import (
    BirthModel,
    TruncationConfig,
    build_log_cost,
    gibbs_assignments,
    ranked_assignments,
)
from geoglmb.lrfs import DEAD, UNDETECTED

la, lb = Label(1, 0), Label(1, 1)
parent = GlmbHypothesis(
    label_set=(la, lb),
    history=(((la, 1), (lb, 2)),),
    log_weight=0.0,
    densities={
        la: Gaussian([56.0, 0.0], np.diag([16.0, 1.0])),
        lb: Gaussian([22.0, 0.0], np.diag([16.0, 1.0])),
    },
)
measurements = [58.5, 24.0, 61.0]
sensor = SensorModel(sigma_m=10.0, p_detect=0.5, clutter_rate=0.5, clutter_region=(0.0, 100.0))
cost = build_log_cost(parent, BirthModel(), measurements, MotionModel(), sensor, delta=0.5)

print("rows: one per label; columns: [dead, undetected, z1, z2, z3]")
print(np.array2string(cost.values, precision=2, suppress_small=True))
print()


def describe(amap):
    parts = []
    for lbl, outcome in amap.assignment:
        what = "dead" if outcome == DEAD else "miss" if outcome == UNDETECTED else f"z{outcome}"
        parts.append(f"{lbl}->{what}")
    return ", ".join(parts)


score_of = {}
for amap in ranked_assignments(cost, 10**6):
    total = sum(
        cost.values[i, 0 if o == DEAD else 1 if o == UNDETECTED else o + 1]
        for i, (_, o) in enumerate(amap.assignment)
    )
    score_of[amap.key()] = total

print("top 8 of", len(score_of), "feasible maps (exact ranking):")
ranked = ranked_assignments(cost, 8)
best = score_of[ranked[0].key()]
for amap in ranked:
    rel = math.exp(score_of[amap.key()] - best)
    print(f"  weight x{rel:8.2e}  {describe(amap)}")

trunc = TruncationConfig(method="gibbs", gibbs_iterations=150, seed=3)
visited = gibbs_assignments(cost, trunc)
print(f"\nseeded Gibbs run (150 sweeps) visited {len(visited)} distinct maps;")
print(f"its best is the exact best: {visited and max(score_of[m.key()] for m in visited) == best}")
