"""Fixed-seed runs must write the same bytes as the recorded reference.

Each case runs ``run_experiment`` in-process at seed 3 with two Monte Carlo
trials and compares one sha256 per output file.  ``report.json`` records
the output directory, so that field is blanked before hashing.  The digests
were recorded with numpy 2.4.6; another numpy may round differently and
change them without any change to the program.
"""
import hashlib
import json

import pytest

from geoglmb.experiment import ExperimentConfig, run_experiment

CASES = {
    f"{site}-{mode}-{method}": dict(site=site, mode=mode, trunc_method=method)
    for site in ("onsoy", "taipei")
    for mode in ("joint", "independent")
    for method in ("ranked", "gibbs")
}
CASES["taipei-joint-ranked-clutter9"] = dict(
    site="taipei", mode="joint", trunc_method="ranked", clutter_rate=9.0
)

GOLDEN = {
    "onsoy-independent-gibbs": {
        "metrics.csv": "c4002fd26f45d11f0d41fc0ef0d5441883b253be5cd958f8a0d72a602b701d81",
        "plot_LL.svg": "29911443407c83704445ab9a1393ab7acf4f5133fa25660469c5c88eb084ab19",
        "plot_PI.svg": "dc9dda8b197f1b8724dcfce199ffb91533ca78a299515cfd0a66b254a438d717",
        "plot_w.svg": "eec37b9800dd4d6be5d7b5e80045a9798f74d69c58f90a7be77c8eef8cd18c2d",
        "report.json": "ec80dad5aa3ba07d85849cbc6f6d2367db8c4da8a8a8c5c78daf4a17fd690301",
        "trials/trial_000/estimates.csv": "8c79068fb5c8078764b51373ef8ec01ab26c12d21d42435a295df024a6d64baf",
        "trials/trial_000/scenario.csv": "2074995eba524118e903acf4acd920433470317795c0c174c708c5ce5bd2c954",
        "trials/trial_001/estimates.csv": "7a9fca0797d78e3f77b98439e8519e6a402d88b11244fbc745367a30c129c735",
        "trials/trial_001/scenario.csv": "c0a535802923cb1cdf7a4aa55f1efa5ad7d4eb9e2410244fc4d5f4eabc5b8420",
    },
    "onsoy-independent-ranked": {
        "metrics.csv": "c4002fd26f45d11f0d41fc0ef0d5441883b253be5cd958f8a0d72a602b701d81",
        "plot_LL.svg": "29911443407c83704445ab9a1393ab7acf4f5133fa25660469c5c88eb084ab19",
        "plot_PI.svg": "dc9dda8b197f1b8724dcfce199ffb91533ca78a299515cfd0a66b254a438d717",
        "plot_w.svg": "eec37b9800dd4d6be5d7b5e80045a9798f74d69c58f90a7be77c8eef8cd18c2d",
        "report.json": "999f43ab7cced0e9b472860741a825a66197506689fece87a338fcbbb223ab70",
        "trials/trial_000/estimates.csv": "8c79068fb5c8078764b51373ef8ec01ab26c12d21d42435a295df024a6d64baf",
        "trials/trial_000/scenario.csv": "2074995eba524118e903acf4acd920433470317795c0c174c708c5ce5bd2c954",
        "trials/trial_001/estimates.csv": "7a9fca0797d78e3f77b98439e8519e6a402d88b11244fbc745367a30c129c735",
        "trials/trial_001/scenario.csv": "c0a535802923cb1cdf7a4aa55f1efa5ad7d4eb9e2410244fc4d5f4eabc5b8420",
    },
    "onsoy-joint-gibbs": {
        "metrics.csv": "da1df9176bc6fe1136d78ed48cc95eb7f33ac58935ca8ba5356e677a2beb5573",
        "plot_LL.svg": "40b3f2d2f631dcadc9fe33686f20152c3ac1fabab54685328bdd9c2c9250a420",
        "plot_PI.svg": "e7360af836023a8c89a6c8dc990b61560d886b08e333918c27d01b4cea95696e",
        "plot_w.svg": "279f26ebf395f61182958ececc9d4ec565fc7592aee2ae5d753a8fd984c5ff0f",
        "report.json": "bf4fd27ca97ca0f175f49c1e252d70250e58ba1d3b1b3f1fdecbd8fd8d93cbcd",
        "trials/trial_000/estimates.csv": "e62787b403ade585ab70082de3249419faa47b7aa4e62738cef2dc3d5bc4c1c0",
        "trials/trial_000/scenario.csv": "2074995eba524118e903acf4acd920433470317795c0c174c708c5ce5bd2c954",
        "trials/trial_001/estimates.csv": "0dc15f2b4e8e821b5e75d5b14c21fccecc79b9e0c8a21e41385850e0bb059e5a",
        "trials/trial_001/scenario.csv": "c0a535802923cb1cdf7a4aa55f1efa5ad7d4eb9e2410244fc4d5f4eabc5b8420",
    },
    "onsoy-joint-ranked": {
        "metrics.csv": "db4748edeb516711beb1da293778ab7a01d331be3b375b7d0bb24551a504e241",
        "plot_LL.svg": "63cc393343fd49e78abcc08a97e96672a7577bb245665621d5c578831cc50dfb",
        "plot_PI.svg": "dc9dda8b197f1b8724dcfce199ffb91533ca78a299515cfd0a66b254a438d717",
        "plot_w.svg": "fca57f40b8558485ae4b04b6943ce79862251fb67f1b744261c6045cd05a0161",
        "report.json": "88076d6f8064033caa7d2267979c2e9f3dd8f1649005bf9c3fe041b93ea577b6",
        "trials/trial_000/estimates.csv": "e467816eb03522b836419f9fabf6943971755ae1b73b0b18f206cf8b1afeecde",
        "trials/trial_000/scenario.csv": "2074995eba524118e903acf4acd920433470317795c0c174c708c5ce5bd2c954",
        "trials/trial_001/estimates.csv": "5da1b43abc335c45df7e9c3d0f0acd934c7e5ea42572f5f52373fafbfecd211e",
        "trials/trial_001/scenario.csv": "c0a535802923cb1cdf7a4aa55f1efa5ad7d4eb9e2410244fc4d5f4eabc5b8420",
    },
    "taipei-independent-gibbs": {
        "metrics.csv": "ef1f5ec1a518a8e1fca911f3593b85e9a422d7804cb77467c5ac3466d4fc2d7d",
        "plot_LL.svg": "6ac1b1858520cd7a73306287fd0dc925bcddd56e5e0fd5ab1a3b8fbb956203a9",
        "plot_PI.svg": "1cd04d6c757e9a5afdda528f0b7427ad7d0e7d4157f7e4c9af680163f85aae3c",
        "plot_w.svg": "e661145d488be904df3fa70ea40185ad58c5b52cdde37d9e2b5bf1b4f7d090c3",
        "report.json": "778b4a3f2ce87a3ab4310858d65769b8593b6a378b0c6e9eb1369b35fa48c0a0",
        "trials/trial_000/estimates.csv": "124807aee2980a1335c952e03d4d87026a342ff6b18a5e102221da7eb06b0215",
        "trials/trial_000/scenario.csv": "ab80864b364b327dfd1795d9cf7e5112de18e217cab4be507f6d05d034137b63",
        "trials/trial_001/estimates.csv": "fb84c0d91cf272478f700b20e22951284a5a7604d526c8fd3b02df10bfc4bac1",
        "trials/trial_001/scenario.csv": "1b5053aad53f82db63741f761803f9a1f034559bc22f95b5aace7932f465a070",
    },
    "taipei-independent-ranked": {
        "metrics.csv": "ef1f5ec1a518a8e1fca911f3593b85e9a422d7804cb77467c5ac3466d4fc2d7d",
        "plot_LL.svg": "6ac1b1858520cd7a73306287fd0dc925bcddd56e5e0fd5ab1a3b8fbb956203a9",
        "plot_PI.svg": "1cd04d6c757e9a5afdda528f0b7427ad7d0e7d4157f7e4c9af680163f85aae3c",
        "plot_w.svg": "e661145d488be904df3fa70ea40185ad58c5b52cdde37d9e2b5bf1b4f7d090c3",
        "report.json": "75cf0c49e7cc3a4cc73242b87a9fc35a0143949ec409e6e7ea4a6f9bfcf82c71",
        "trials/trial_000/estimates.csv": "124807aee2980a1335c952e03d4d87026a342ff6b18a5e102221da7eb06b0215",
        "trials/trial_000/scenario.csv": "ab80864b364b327dfd1795d9cf7e5112de18e217cab4be507f6d05d034137b63",
        "trials/trial_001/estimates.csv": "fb84c0d91cf272478f700b20e22951284a5a7604d526c8fd3b02df10bfc4bac1",
        "trials/trial_001/scenario.csv": "1b5053aad53f82db63741f761803f9a1f034559bc22f95b5aace7932f465a070",
    },
    "taipei-joint-gibbs": {
        "metrics.csv": "b79b44e953931b1070e9e1a24f5c38589e3d7f8bf9b7e9fe4ce141f246c621de",
        "plot_LL.svg": "8c956b94fff4fafa82f8cb5107e9dca011e0641ca5b54dc1570ef7ba1744058f",
        "plot_PI.svg": "c3f896aa2f107f92c30591ba01097e6183bec9c515aa5a0b586916e518d9569a",
        "plot_w.svg": "683660cf5b8c4281b2db6d40ecce668e92d19af476b64230b767e062ea982c63",
        "report.json": "7ea1768df2288182d65d2152114c43ce8bdb144b15151daa55b786d3d42d70dc",
        "trials/trial_000/estimates.csv": "94a0f9527873751bc215028a49d37af39e44d5ecb9d0da0bdc1063579b0e15a7",
        "trials/trial_000/scenario.csv": "ab80864b364b327dfd1795d9cf7e5112de18e217cab4be507f6d05d034137b63",
        "trials/trial_001/estimates.csv": "cc86ccd0035295b8b332aa09084eb00e2b098667bb47e78eaef05759cb9fe6af",
        "trials/trial_001/scenario.csv": "1b5053aad53f82db63741f761803f9a1f034559bc22f95b5aace7932f465a070",
    },
    "taipei-joint-ranked": {
        "metrics.csv": "52c97a5cc4ea9944a84b403ae27a6715327c8621b60a2fc6455752a3034d9c84",
        "plot_LL.svg": "e8bcd0c96d819bb5429d18ca5229c569b47c674196dc67d8b9338195bd3e9212",
        "plot_PI.svg": "7e14d8bbf6e1e9007d91b56bb68240737ac51b4b590ea54bd43e4304a05c31d7",
        "plot_w.svg": "78dcdb700c4afe7ee637358f0469eb1f7ec181bc491448fb182fae781aa9ddaa",
        "report.json": "4ba53a6111efe1ede104302996817f3ec798538b7836818df431034a012984b3",
        "trials/trial_000/estimates.csv": "a5c2cbc6623aff0e72a52c7703020e6f28c937f315b99f58e028a485c13dd977",
        "trials/trial_000/scenario.csv": "ab80864b364b327dfd1795d9cf7e5112de18e217cab4be507f6d05d034137b63",
        "trials/trial_001/estimates.csv": "7eb022662d4919dfb8925d174cb23425656c5e787da895d5bbd1c63f1460c147",
        "trials/trial_001/scenario.csv": "1b5053aad53f82db63741f761803f9a1f034559bc22f95b5aace7932f465a070",
    },
    "taipei-joint-ranked-clutter9": {
        "metrics.csv": "0a6c35b15c030c25df94c2f8261949426163362ae2519044af5ee3aae9dce2fa",
        "plot_LL.svg": "3facf80f591e3699e11693e0beeb80b3ea4a5efd937032718fdf9e03eff47d9c",
        "plot_PI.svg": "7d6c600fc8f035ec70d6430fa478bdfcf459e15d6cf76930d26609352d818c7b",
        "plot_w.svg": "1ef7fe13ae22dce53fb3f9ee5d6eeedbc39e5b89b27470c2e61d54b6ba87792d",
        "report.json": "55f2c17d66f2ee4ba85ae0bdd918d2474298e4bfb42f3a90aadab417e764f0d3",
        "trials/trial_000/estimates.csv": "87638dabdc83f59bd06dbb70313ed6cdc5f4316b264ed5b7ccc6a77606a07b2e",
        "trials/trial_000/scenario.csv": "7051d7b361ad2ba0c8766cbc6b63ce37b26493d6e46c916adc44f94283c34005",
        "trials/trial_001/estimates.csv": "87638dabdc83f59bd06dbb70313ed6cdc5f4316b264ed5b7ccc6a77606a07b2e",
        "trials/trial_001/scenario.csv": "ee8c0bec75defc0de2d0cace86e4390386e8bafdf87b0251feb9f1974db68203",
    },
}


def output_digests(out_dir, **settings) -> dict[str, str]:
    """sha256 of every file a seed-3, two-trial run writes under out_dir."""
    config = ExperimentConfig(seed=3, mc_trials=2, jobs=1, out_dir=str(out_dir), **settings)
    run_experiment(config)
    digests = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            doc = json.loads(data)
            doc["config"]["out_dir"] = ""
            data = (json.dumps(doc, indent=2, allow_nan=True, sort_keys=True) + "\n").encode()
        digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixed_seed_outputs_match_recorded_digests(case, tmp_path):
    assert output_digests(tmp_path / "out", **CASES[case]) == GOLDEN[case]
