"""Regenerate refs.json: every pool instance's outputs from the current program.

    python3 perfbench/make_refs.py

The stored references are the yardstick later changes are checked against
(distances, mean losses, log norms, rank profiles, escape intervals), so
regenerate them only when the pool itself changes, at a commit whose
outputs are trusted. Instances whose operation failed are stored as null
and reported.
"""

import json
import sys

import run
from workloads import WORKLOADS


def main():
    corrgeo = run.import_corrgeo()
    refs = {}
    for name, cls in WORKLOADS.items():
        workdir = run.make_workdir(f"refs-{name}")
        try:
            w = cls(corrgeo, workdir, seed=0)
            refs[name] = {}
            for i, inst in enumerate(w.ids):
                outcome = w.run(i)
                if outcome.failure:
                    print(f"{name} {inst}: {outcome.failure}", file=sys.stderr)
                refs[name][inst] = w.reference(outcome) if outcome.output else None
                print(f"{name} {inst}: done")
        finally:
            run.remove_workdir(workdir)
    (run.HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
