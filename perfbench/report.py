"""Print every end-to-end and per-layer metric of every workload, one row each.

    python3 perfbench/report.py [--seed N]

For every workload this makes one untraced measurement (as run.py
--trace 0) and one traced measurement (as run.py --trace 1) with the same
seed, both with all output checks.  It prints CSV: a header of
``metric[unit]`` names, then one row per workload.  End-to-end metrics
carry their median, quartiles and sample count, and so do the raw times
and the host probe's job (run.RAW); failed_frac and handoff_jump_rel are
included.  A final ``#`` line holds the environment.
The exit status is 0 only if every check passed.
"""

import argparse
import csv
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not (run.SRC / "vpqmc" / "driver.py").is_file():
        print(f"error: no vpqmc source under {run.SRC}", file=sys.stderr)
        return 2

    header = ["workload", "seed", "attempted", "failed", "failed_frac[ratio]"]
    for metric, unit in run.END_TO_END + run.RAW:
        header += [f"{metric}[{unit}]", f"{metric}.q1[{unit}]", f"{metric}.q3[{unit}]",
                   f"{metric}.n"]
    header.append("handoff_jump_rel[ratio]")
    header += [f"{metric}[{unit}]" for metric, unit, _ in run.PER_LAYER]
    header.append("problems")

    out = csv.writer(sys.stdout)
    out.writerow(header)
    all_ok = True
    environment = None
    for name in run.WORKLOADS:
        line0, det0 = run.measure(name, args.seed, trace=False)
        line1, det1 = run.measure(name, args.seed, trace=True)
        attempted = line0["attempted"] + line1["attempted"]
        failed = line0["failed"] + line1["failed"]
        row = [name, args.seed, attempted, failed, failed / attempted]
        for metric, _ in run.END_TO_END + run.RAW:
            q = det0.get("samples", {}).get(metric)
            row += [q["median"], q["q1"], q["q3"], q["n"]] if q else [""] * 4
        jumps = det0.get("handoff_jump_rel")
        row.append(jumps[0] if jumps else "")
        row += [line1["metrics"].get(metric, {}).get("value", "")
                for metric, _, _ in run.PER_LAYER]
        problems = det0["problems"] + det1["problems"]
        if not line0["metrics"] or not line1["metrics"]:
            problems.append("no numbers")
        row.append("; ".join(problems))
        out.writerow(row)
        sys.stdout.flush()
        all_ok = all_ok and line0["correct"] and line1["correct"]
        environment = environment or det0.get("environment")
    print("# environment: " + json.dumps(environment))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
