"""How one filter step truncates the association space.

A single parent hypothesis with two alive labels and three measurements
already has dozens of valid association maps. This demo builds the log-cost
matrix for such a step, one row per label and one column per outcome, and
shows the exact ranked solutions (one column per row) next to what the
seeded Gibbs sampler visits, including the weight each would give a child
hypothesis.
"""
import math

import numpy as np

from geoglmb import (
    GlmbDensity,
    Label,
    SensorModel,
    MotionModel,
)
from geoglmb.assignment import gibbs_solutions, ranked_solutions
from geoglmb.filter import BirthModel, build_log_cost
from geoglmb.lrfs import DensityArrays

la, lb = Label(1, 0), Label(1, 1)
# A density of one hypothesis, weight 1, holding both labels: its state row
# points each label at its row of Gaussian means and covariances.
parent = GlmbDensity(DensityArrays(
    log_weights=np.zeros(1),
    labels=(la, lb),
    state=np.array([[0, 1]]),
    means=np.array([[56.0, 0.0], [22.0, 0.0]]),
    covs=np.array([np.diag([16.0, 1.0])] * 2),
))
measurements = [58.5, 24.0, 61.0]
sensor = SensorModel(sigma_m=10.0, p_detect=0.5, clutter_rate=0.5, clutter_region=(0.0, 100.0))
cost = build_log_cost(parent, BirthModel(), measurements, MotionModel(), sensor, delta=0.5)

print("rows: one per label; columns: [dead, undetected, z1, z2, z3]")
print(np.array2string(cost, precision=2, suppress_small=True))
print()


def describe(solution):
    """Column 0 is dead, 1 missed and c >= 2 reading z(c - 1), per label."""
    what = {0: "dead", 1: "miss"}
    return ", ".join(f"{lbl}->{what.get(c, f'z{c - 1}')}" for lbl, c in zip((la, lb), solution))


score_of = dict(ranked_solutions(cost, 10**6))

print("top 8 of", len(score_of), "feasible maps (exact ranking):")
best = max(score_of.values())
for solution, _ in ranked_solutions(cost, 8):
    rel = math.exp(score_of[solution] - best)
    print(f"  weight x{rel:8.2e}  {describe(solution)}")

visited = gibbs_solutions(cost, 150, np.random.default_rng(3))
print(f"\nseeded Gibbs run (150 sweeps) visited {len(visited)} distinct maps;")
print(f"its best is the exact best: {max(score_of[sol] for sol, _ in visited) == best}")
