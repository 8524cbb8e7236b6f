"""Table III — accuracy of the four top baselines (AEL/IPLoM/Spell/Drain).

Reruns the Zhu et al. comparison on the synthetic datasets with the
reimplemented baselines, printing measured accuracy next to the paper's
Table III values.

Shape targets asserted:

* Drain ranks best on average (the paper's headline finding);
* the full ordering Drain > IPLoM/AEL > Spell holds on average;
* every baseline average lands within ±0.08 of the paper's value.
"""

from repro.baselines import ALL_BASELINES
from repro.loghub import DATASET_NAMES, evaluate_baseline, load_dataset

#: Table III averages from the paper.
PAPER_AVG = {"AEL": 0.754, "IPLoM": 0.777, "Spell": 0.751, "Drain": 0.865}

#: Per-dataset values from the paper's Table III.
PAPER = {
    "HDFS": (0.998, 1.0, 1.0, 0.998),
    "Hadoop": (0.538, 0.954, 0.778, 0.948),
    "Spark": (0.905, 0.920, 0.905, 0.920),
    "Zookeeper": (0.921, 0.962, 0.964, 0.967),
    "OpenStack": (0.758, 0.871, 0.764, 0.733),
    "BGL": (0.758, 0.939, 0.787, 0.963),
    "HPC": (0.903, 0.824, 0.654, 0.887),
    "Thunderbird": (0.941, 0.663, 0.844, 0.955),
    "Windows": (0.690, 0.567, 0.989, 0.997),
    "Linux": (0.673, 0.672, 0.605, 0.690),
    "Mac": (0.764, 0.673, 0.757, 0.787),
    "Android": (0.682, 0.712, 0.919, 0.911),
    "HealthApp": (0.568, 0.822, 0.639, 0.780),
    "Apache": (1.0, 1.0, 1.0, 1.0),
    "OpenSSH": (0.538, 0.802, 0.554, 0.788),
    "Proxifier": (0.518, 0.515, 0.527, 0.527),
}

ORDER = ("AEL", "IPLoM", "Spell", "Drain")


def test_table3_baselines(table_writer):
    datasets = [load_dataset(name) for name in DATASET_NAMES]
    scores = {}
    for algo in ORDER:
        for name, dataset in zip(DATASET_NAMES, datasets):
            score = scores[(name, algo)] = evaluate_baseline(ALL_BASELINES[algo](), dataset)
            assert 0.0 <= score <= 1.0

    rows = []
    for name in DATASET_NAMES:
        row = [name]
        for i, algo in enumerate(ORDER):
            row.append(f"{scores[(name, algo)]:.3f} ({PAPER[name][i]:.3f})")
        rows.append(row)
    averages = {
        algo: sum(scores[(n, algo)] for n in DATASET_NAMES) / 16 for algo in ORDER
    }
    rows.append(
        ["Average"]
        + [f"{averages[a]:.3f} ({PAPER_AVG[a]:.3f})" for a in ORDER]
    )
    table_writer(
        "table3_baselines.md",
        ["Dataset"] + [f"{a} (paper)" for a in ORDER],
        rows,
    )

    # Drain is the best average performer — the paper's headline result
    assert max(averages, key=averages.get) == "Drain"
    # Spell trails the other three, as in the paper
    assert min(averages, key=averages.get) == "Spell"
    # absolute averages stay in the paper's neighbourhood
    for algo in ORDER:
        assert abs(averages[algo] - PAPER_AVG[algo]) < 0.08, (algo, averages[algo])
