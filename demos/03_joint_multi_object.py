"""All three properties as one unlabeled multi-object scene.

In joint mode the per-depth readings of LL, PI, and w are pooled into a
single shuffled measurement set, so the filter has to work out which value
belongs to which property while also coping with missed detections. The
hypothesis weights carry that association ambiguity explicitly; the readout
picks the most probable object count, then the best hypothesis of that
count.

LL and w overlap heavily on this site (both around 55 to 75 percent), which
is what makes the association genuinely ambiguous.
"""
import numpy as np

from geoglmb import (
    ExperimentConfig,
    bundled_records,
    build_report,
    cardinality_distribution,
    depth_intervals,
    run_trial,
)
from geoglmb.experiment import birth_model_for
from geoglmb.filter import run_sequence
from geoglmb.scenario import synthesize_observations

records = bundled_records("onsoy")
config = ExperimentConfig(mode="joint", p_survival=1.0, seed=12)

# peek inside the run: filter step by step, watching the hypothesis budget
scenario = synthesize_observations(
    records, config.sensor(), mode="joint", seed=12, site_name="onsoy"
)
history = run_sequence(
    depth_intervals(records),
    scenario.groups[0].readings,
    birth_model_for(records, config),
    config.motion(),
    config.sensor(),
    config.truncation(seed=12),
)
counts = [len(d.hypotheses) for d in history]
print(f"hypotheses per step: min {min(counts)}, max {max(counts)}, last {counts[-1]}")
rho = cardinality_distribution(history[-1])
print("final cardinality posterior:", np.array2string(rho, precision=4))

scenario, series = run_trial(records, config, seed=12, site_name="onsoy")
report = build_report(scenario, series)
print()
print("per-property accuracy after label-to-property matching:")
for prop, m in report.per_property.items():
    print(
        f"  {prop:>2}: estimate RMSE {m.rmse_estimate:5.2f}  "
        f"observation RMSE {m.rmse_observation:5.2f}  "
        f"({m.n_detections} detections)"
    )
print(f"mean per-depth OSPA (cutoff {report.ospa_cutoff:g}): "
      f"{np.mean(report.ospa_per_depth):.2f}")
