"""Compare two sets of benchmark runs by the choosing-metrics rules.

``A`` is the parent (or the first of two sets of one commit), ``B`` the
change.  Per workload and end-to-end metric each side gets its median and
quartiles, and the row one verdict:

* ``unresolved`` -- either side's spread (quartile distance over median)
  exceeds the metric's bound, unless every B run beats every A run;
* ``regression`` -- B's median is worse than A's by more than the bound;
* ``gain`` -- B wins at least 9/10 of the runs paired in order (ties count
  for neither) and the medians differ by more than A's quartile distance;
* ``ok`` -- none of these.

Deterministic values (accuracy, the simulated completion p99 and the
output digest) must be identical between the sides for every seed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: values a run at a given seed must reproduce exactly
DETERMINISTIC = ("accuracy", "sim_completion_p99_ms", "digest")
GAIN_PAIR_SHARE = 0.9


def load_runs(path) -> list[dict]:
    """The untraced runs of one ``-o`` file, metrics as plain values."""
    runs = [r for r in json.loads(Path(path).read_text())["runs"] if r["trace"] == 0]
    for run in runs:
        run["metrics"] = {k: v["value"] for k, v in run["metrics"].items()}
    return runs


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "runs": len(values),
    }


def _deterministic(run: dict) -> dict:
    values = {**run["detail"], **run["metrics"]}
    return {k: values.get(k) for k in DETERMINISTIC}


def compare(a_runs: list[dict], b_runs: list[dict], catalogue: dict) -> dict:
    rows, mismatches = [], []
    workloads = sorted({r["workload"] for r in a_runs} & {r["workload"] for r in b_runs})
    for workload in workloads:
        a_set = [r for r in a_runs if r["workload"] == workload]
        b_set = [r for r in b_runs if r["workload"] == workload]
        for spec in catalogue["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            a = [r["metrics"][name] for r in a_set]
            b = [r["metrics"][name] for r in b_set]
            sa, sb = summarize(a), summarize(b)
            worse_by = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
            pairs = min(len(a), len(b))
            every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
            if max(sa["spread"], sb["spread"]) > bound and not every_b_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "regression"
            elif (
                worse_by < 0
                and wins >= GAIN_PAIR_SHARE * pairs
                and abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]
            ):
                verdict = "gain"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": spec["unit"],
                "bound": bound,
                "a": sa,
                "b": sb,
                "worse_by": worse_by,
                "wins": f"{wins}/{pairs}",
                "verdict": verdict,
            })
        for seed in sorted({r["seed"] for r in a_set} & {r["seed"] for r in b_set}):
            seen = [_deterministic(r) for r in a_set + b_set if r["seed"] == seed]
            for key in DETERMINISTIC:
                values = {json.dumps(v) for v in (s[key] for s in seen)}
                if len(values) > 1:
                    mismatches.append(f"{workload} seed {seed}: {key} differs: {sorted(values)}")
    return {"rows": rows, "deterministic_mismatches": mismatches}


def render(result: dict) -> str:
    cols = ("median", "q1", "q3")
    lines = [
        f"{'workload':<14} {'metric':<15} {'unit':<6} "
        + " ".join(f"{'A ' + c:>10}" for c in cols) + " "
        + " ".join(f"{'B ' + c:>10}" for c in cols)
        + f" {'worse':>7} {'bound':>6} {'wins':>6}  verdict"
    ]
    for row in result["rows"]:
        lines.append(
            f"{row['workload']:<14} {row['metric']:<15} {row['unit']:<6} "
            + " ".join(f"{row[side][c]:>10.5g}" for side in ("a", "b") for c in cols)
            + f" {row['worse_by']:>+7.3f} {row['bound']:>6.2f} {row['wins']:>6}  {row['verdict']}"
        )
    for mismatch in result["deterministic_mismatches"]:
        lines.append(f"deterministic mismatch: {mismatch}")
    if not result["deterministic_mismatches"]:
        lines.append("deterministic values: identical on every shared seed")
    return "\n".join(lines)


def passed(result: dict) -> bool:
    """No regression, nothing unresolved, deterministic values identical."""
    return not result["deterministic_mismatches"] and all(
        row["verdict"] in ("ok", "gain") for row in result["rows"]
    )
