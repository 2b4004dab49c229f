"""FairPrep benchmark: the paper's sweeps and the serving path, end to end.

    python3 perfbench/run.py --workload fig2-germancredit --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload, fresh processes
    python3 perfbench/run.py --selfcheck                      # harness self-check, smoke size

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it carries the run's context (machine, seed, pass and sample counts) and
the report in each workload's own terms (runs/s, requests/s,
percentiles). See README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

WORKLOADS = ("fig2-germancredit", "fig45-adult", "serve-adult")
#: A run that is still going after this long stops itself (the limit is 180 s).
WATCHDOG_SECONDS = 170


class Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise Overrun(f"run exceeded {WATCHDOG_SECONDS}s")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "serve-adult":
        import serving

        return serving.run(name, seed, seconds, trace, STARTED)
    import sweeps

    return sweeps.run(name, seed, seconds, trace, STARTED)


def run_all(args) -> int:
    """Each workload in a fresh process; prints a table of the reports."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {name}  (seed {args.seed}, {detail['context'].get('passes', '-')} passes)")
        shown = detail["report"] or result["metrics"]
        for metric, value in shown.items():
            text = "n/a" if value is None else f"{value['value']:.6g} {value['unit']}"
            print(f"   {metric:42s} {text}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    common.emit(combined)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the harness itself at smoke size, then exit")
    args = parser.parse_args(argv)
    try:
        common.require_source_tree()
    except common.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.selfcheck:
        import selfcheck

        return selfcheck.main()
    if args.workload == "all":
        return run_all(args)

    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (common.BenchmarkError, Overrun) as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps({"context": result["context"], "report": result["report"]},
                     sort_keys=True))
    common.emit({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})
    return 0


if __name__ == "__main__":
    sys.exit(main())
