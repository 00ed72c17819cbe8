"""Monte Carlo comparison of the dense and sparse sites.

Runs paired-seed trial batches on both bundled sites and compares mean
estimate RMSE per property. The sparser site leaves the filter coasting on
its motion model across metre-scale gaps, so its estimates should come out
less accurate for LL and PI, while w (nearly linear in depth on both sites)
stays close.
"""
import time

from geoglmb import ExperimentConfig, compare_reports
from geoglmb.experiment import run_monte_carlo

N_TRIALS = 50

reports = {}
t0 = time.perf_counter()
for site in ("onsoy", "taipei"):
    config = ExperimentConfig(
        site=site, mode="independent", p_survival=1.0, seed=0, mc_trials=N_TRIALS
    )
    reports[site] = run_monte_carlo(config)
print(f"{2 * N_TRIALS} trials in {time.perf_counter() - t0:.1f}s\n")

print(f"mean RMSE over {N_TRIALS} paired trials:")
print("property   onsoy   taipei")
for prop in ("LL", "PI", "w"):
    o = reports["onsoy"].mc_summary[f"rmse_estimate_{prop}"]
    t = reports["taipei"].mc_summary[f"rmse_estimate_{prop}"]
    print(f"   {prop:>2}    {o['mean']:6.2f}   {t['mean']:6.2f}"
          f"   (std {o['std']:.2f} / {t['std']:.2f})")

comparison = compare_reports(reports["onsoy"], reports["taipei"])
print()
for prop, entry in comparison["per_property"].items():
    verdict = "less accurate" if entry["other_less_accurate"] else "comparable"
    print(f"{prop}: sparse site {verdict}")
