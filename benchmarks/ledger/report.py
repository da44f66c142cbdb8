"""One result schema: summarise samples, print the table, compare two files.

A report is ``{schema, git_sha, python, nproc, seed, smoke, seconds,
workloads: {name: {correct, attempted, failed, problems, end_to_end,
per_layer, profile_top}}}`` with every metric as ``{value, unit, n, q1,
q3}``. It is printed, and written only where ``--out`` says — never
into the repo root.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Optional, Sequence

SCHEMA_VERSION = 1
REPO_ROOT = Path(__file__).resolve().parents[2]
CONTRACT_PATH = REPO_ROOT / "BENCHMARK.json"
#: Scratch for journals, span files and per-pass reports; inside the
#: checkout (the benchmark writes nowhere else) and gitignored.
WORK_DIR = Path(__file__).resolve().parent / ".work"


def contract() -> dict:
    return json.loads(CONTRACT_PATH.read_text())


def summarise(values: Sequence[float], unit: str) -> dict:
    """Median and quartiles of ``values`` (the sample count travels along)."""
    values = list(values)
    if not values:
        return {"value": 0.0, "unit": unit, "n": 0, "q1": 0.0, "q3": 0.0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "value": statistics.median(values),
        "unit": unit,
        "n": len(values),
        "q1": q1,
        "q3": q3,
    }


def scalar(value: float, unit: str, n: int = 1) -> dict:
    """A metric that is one measurement (a count, a total, a ratio)."""
    return {"value": value, "unit": unit, "n": n, "q1": value, "q3": value}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def new_report(seed: int, smoke: bool, seconds: float) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "smoke": smoke,
        "seconds": seconds,
        "workloads": {},
    }


def absorb(report: dict, other: dict) -> None:
    """Fold ``other``'s workload entries (one pass each) into ``report``."""
    for workload, entry in other["workloads"].items():
        mine = report["workloads"].setdefault(workload, entry)
        if mine is entry:
            continue
        mine["correct"] = mine["correct"] and entry["correct"]
        mine["attempted"] += entry["attempted"]
        mine["failed"] += entry["failed"]
        mine["problems"] += entry["problems"]
        mine["end_to_end"].update(entry["end_to_end"])
        mine["per_layer"].update(entry["per_layer"])
        mine["profile_top"] = entry["profile_top"] or mine["profile_top"]


def add_pass(report: dict, workload: str, result: dict) -> None:
    """Fold one pass (timed or traced) of ``workload`` into ``report``."""
    entry = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": list(result["problems"]),
        "end_to_end": {},
        "per_layer": {},
        "profile_top": result["profile_top"],
    }
    entry["per_layer" if result["trace"] else "end_to_end"] = result["metrics"]
    absorb(report, {"workloads": {workload: entry}})


def render(report: dict) -> str:
    lines = [
        "perf ledger  schema={schema} sha={git_sha} python={python} "
        "nproc={nproc} seed={seed} smoke={smoke}".format(**report)
    ]
    for workload, entry in report["workloads"].items():
        lines.append("")
        lines.append(
            f"== {workload}: correct={entry['correct']} "
            f"attempted={entry['attempted']} failed={entry['failed']} "
            f"failed_share={entry['failed'] / max(1, entry['attempted']):.4f}"
        )
        for problem in entry["problems"]:
            lines.append(f"   !! {problem}")
        for section in ("end_to_end", "per_layer"):
            bypassed = [n for n, m in entry[section].items() if not m["n"]]
            if bypassed:
                lines.append(f"   ({len(bypassed)} layer metrics read 0: bypassed)")
            for name, m in entry[section].items():
                if m["n"]:
                    lines.append(
                        f"   {name:<34} {m['value']:>14.4f} {m['unit']:<6}"
                        f" n={m['n']:<6} q1={m['q1']:.4f} q3={m['q3']:.4f}"
                    )
        for row in entry["profile_top"]:
            lines.append(
                f"   prof {row['module']:<36} {row['share']:.3f} of tottime"
            )
    return "\n".join(lines)


def write(report: dict, out: Optional[str]) -> None:
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=1) + "\n")


def _spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"] if metric["value"] else 0.0


def compare(base: dict, change: dict) -> tuple[str, bool]:
    """Each workload in its own row per end-to-end metric, against the
    bounds in ``BENCHMARK.json``; returns (text, any metric regressed).

    A metric whose quartile range in either input is wider than its
    bound is ``unresolved``, not ``unchanged``, unless the change's
    whole range reads better than the base's.
    """
    if base["smoke"] != change["smoke"]:
        raise ValueError("refusing to compare a smoke run with a full run")
    lines = [
        f"base   sha={base['git_sha']} seed={base['seed']}",
        f"change sha={change['git_sha']} seed={change['seed']}",
        f"{'workload':<16} {'metric':<20} {'base':>12} {'change':>12} "
        f"{'ratio':>7} {'bound':>6}  verdict",
    ]
    regressed = False
    for spec in contract()["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        lower = spec["better"] == "lower"
        for workload in base["workloads"]:
            a = base["workloads"][workload]["end_to_end"].get(name)
            b = change["workloads"].get(workload, {}).get(
                "end_to_end", {}
            ).get(name)
            if a is None or b is None or not a["value"]:
                continue
            ratio = b["value"] / a["value"]
            worse = ratio - 1.0 if lower else 1.0 - ratio
            separated = b["q3"] < a["q1"] if lower else b["q1"] > a["q3"]
            if worse > bound:
                verdict = "REGRESSED"
                regressed = True
            elif max(_spread(a), _spread(b)) > bound and not separated:
                verdict = "unresolved"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "unchanged"
            lines.append(
                f"{workload:<16} {name:<20} {a['value']:>12.4f} "
                f"{b['value']:>12.4f} {ratio:>7.3f} {bound:>6.2f}  {verdict}"
                f"  ({spec['unit']}, base {a['value']:.4f})"
            )
    return "\n".join(lines), regressed
