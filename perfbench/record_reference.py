"""Record the final time-series row of every workload at every seed slot.

    python3 perfbench/record_reference.py

Writes reference.json next to this script.  The committed rows were
recorded from the commit that introduced the benchmark, before any change
to the program; run.py checks each run's final row against them.  Re-record
only for a change that is meant to alter the numerical results, and say so.
"""

import csv
import json
import shutil
import sys

import run

# Loose enough for changes in the last bits of summation order carried
# through a few hundred time steps; far tighter than a changed algorithm.
TOLERANCE = {"rel": 1e-6, "abs": 1e-12}


def main() -> int:
    if not (run.SRC / "vpqmc" / "driver.py").is_file():
        print(f"error: no vpqmc source under {run.SRC}", file=sys.stderr)
        return 2
    rows = {}
    run.WORK.mkdir(exist_ok=True)
    try:
        for name, w in run.WORKLOADS.items():
            for seed in range(run.SKIP_SLOTS) if w.seeded else [0]:
                rec = run.run_once(name, w, seed, False, None, run.Deadline(run.DEADLINE_S))
                problems = [p for p in rec["problems"] if not p.startswith("no reference")]
                if problems:
                    print(f"error: {name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                with open(run.WORK / name / "timeseries.csv", newline="") as fh:
                    last = list(csv.reader(fh))[-1]
                rows.setdefault(name, {})[run.reference_key(w, seed)] = last
                print(name, seed, f"wall_s={rec['wall_s']:.3f}",
                      f"energy_drift_rel={rec['energy_drift_rel']:.6e}",
                      f"handoff_jump_rel={rec.get('handoff_jump_rel')}", flush=True)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps({"tolerance": TOLERANCE, "rows": rows},
                                        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
