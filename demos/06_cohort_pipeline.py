"""Time series to correlation matrices to group geometry, end to end.

Builds a small synthetic cohort on disk (two groups with different planted
correlation structure), then runs the same steps the command line exposes:
per-subject correlations, pairwise distances, group means, and a
thresholded group difference.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from corrgeo import (
    difference_report,
    factorize,
    group_means,
    load_cohort,
    load_manifest,
    orbit_dist,
    pairwise_distances,
)

cols = ["front", "parietal", "temporal", "occipital"]

rho = -0.35
centers = {
    "g1": np.where(np.eye(4) > 0, 1.0, 0.55),
    "g2": rho ** np.abs(np.subtract.outer(np.arange(4), np.arange(4))),
}

with tempfile.TemporaryDirectory(prefix="cohort_") as tmp:
    root = Path(tmp)
    subjects = []
    for i, g in enumerate(["g1"] * 3 + ["g2"] * 3):
        srng = np.random.default_rng(400 + i)
        vals = srng.standard_normal((600, 4)) @ np.linalg.cholesky(centers[g]).T
        lines = [",".join(cols)] + [",".join(f"{v:.10g}" for v in row) for row in vals]
        (root / f"sub{i}.csv").write_text("\n".join(lines) + "\n")
        subjects.append({"subject_id": f"sub{i}", "path": f"sub{i}.csv", "group": g})

    manifest_path = root / "cohort.json"
    manifest_path.write_text(json.dumps({"subjects": subjects, "k": 4}))

    manifest = load_manifest(manifest_path)
    loaded, common, dropped = load_cohort(manifest)
    print("subjects:", [s.spec.subject_id for s in loaded])
    print("shared columns:", common)

    run = pairwise_distances(manifest)
    print()
    print("pairwise distance matrix:")
    print(np.array2string(run.distances, precision=3))
    print("any stagnation:", run.any_stagnation)

    means, _ = group_means(manifest)
    for gm in means:
        own = centers[gm.group]
        other = centers["g2" if gm.group == "g1" else "g1"]
        d_own = orbit_dist(gm.report.mean, factorize(own, 4))
        d_other = orbit_dist(gm.report.mean, factorize(other, 4))
        print(f"group {gm.group}: mean is {d_own:.3f} from its planted center, "
              f"{d_other:.3f} from the other")

    diff = difference_report(means[0].corr, means[1].corr, threshold=0.3, columns=common)
    print()
    print("entries differing by more than 0.3 between the group means:")
    for a, b, delta in diff.entries:
        print(f"  {a} ~ {b}: {delta:+.3f}")
