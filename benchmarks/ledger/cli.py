"""Command line: run one workload (or all), or compare two reports.

The last line of a single-workload run is the driver's JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics without ``--trace``, the per-layer ones with it. ``--workload
all`` runs every workload's timed and traced pass, each in its own
subprocess so ``peak_rss_mb`` belongs to one workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from . import report

SRC = report.REPO_ROOT / "src"
WORKLOADS = tuple(w["name"] for w in report.contract()["workloads"])


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="wall seconds to measure (default: run_seconds; 2 with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="run the traced pass (per-layer metrics) instead of the timed one",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="6-node corpora and 300 requests; never compared with full runs",
    )
    parser.add_argument("--out", help="write the report JSON here")
    parser.add_argument("--spans-out", help="write the traced pass's spans here")
    return parser


def _run_one(args) -> dict:
    """One pass in this process; imports are part of ``setup_s``."""
    if not SRC.is_dir():
        raise SystemExit(f"no program to measure: {SRC} is missing")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    from . import runners

    import_s = time.perf_counter() - started
    return runners.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        import_s=import_s, spans_out=args.spans_out,
    )


def _run_all(args, out: dict) -> None:
    report.WORK_DIR.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            part = report.WORK_DIR / f"{os.getpid()}-{workload}-{trace}.json"
            command = [
                sys.executable, str(Path(__file__).parent),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(part),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(
                command, cwd=report.REPO_ROOT, stdout=subprocess.DEVNULL,
                timeout=900,
            )
            if not part.exists():
                raise SystemExit(
                    f"{workload} trace={trace} exited {done.returncode}"
                )
            report.absorb(out, json.loads(part.read_text()))
            part.unlink()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        base, change = (json.loads(Path(p).read_text()) for p in argv[1:3])
        text, regressed = report.compare(base, change)
        print(text)
        return 1 if regressed else 0

    args = _parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(report.contract()["run_seconds"])
    out = report.new_report(args.seed, args.smoke, args.seconds)
    if args.workload == "all":
        _run_all(args, out)
        print(report.render(out))
        report.write(out, args.out)
        return 0 if all(w["correct"] for w in out["workloads"].values()) else 1

    result = _run_one(args)
    report.add_pass(out, args.workload, result)
    print(report.render(out))
    report.write(out, args.out)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }))
    return 0 if result["correct"] else 1
