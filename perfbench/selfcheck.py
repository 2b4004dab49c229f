"""Harness self-check at smoke size: ``python3 perfbench/run.py --selfcheck``.

1. every workload prints exactly the metric names and units that
   BENCHMARK.json lists, untraced and traced, with ``success_rate`` 1;
2. a tampered reference digest drives a sweep's ``success_rate`` below 1;
3. a tampered expected label drives the serve workload's below 1;
4. the load client refuses more connections than the machine has cores;
5. a server that never replies costs counted timeouts, not a stuck run,
   and one that is gone costs counted losses, not a crash.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time

import common

SMOKE_SECONDS = 1


def _declared():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec, {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _names_and_units(workload: str, trace: int, declared) -> str:
    command = [sys.executable, os.path.join(common.HERE, "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=300)
    if done.returncode != 0:
        return f"exited {done.returncode}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared[trace]:
        return f"metrics {printed} != declared {declared[trace]}"
    if not result["correct"] or result["failed"]:
        return f"{result['failed']} of {result['attempted']} operations failed"
    if trace == 0 and result["metrics"]["success_rate"]["value"] != 1.0:
        return "success_rate below 1 on the untampered tree"
    return ""


def main() -> int:
    import serving
    import sweeps
    from client import LoadClient

    spec, declared = _declared()
    checks = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            checks.append((f"{workload} trace={trace} names, units, success",
                           _names_and_units(workload, trace, declared)))

    tampered = sweeps.load_references()
    tampered["fig45-adult"]["1"] = "0" * 64
    result = sweeps.run("fig45-adult", 0, 0.0, False, time.perf_counter(), references=tampered)
    rate = result["metrics"]["success_rate"]["value"]
    checks.append(("tampered reference digest fails the sweep",
                   "" if rate < 1.0 and not result["correct"] else f"success_rate {rate}"))

    result = serving.run("serve-adult", 0, SMOKE_SECONDS, False, time.perf_counter(),
                         tamper_label=True)
    rate = result["metrics"]["success_rate"]["value"]
    checks.append(("tampered expected label fails serve requests",
                   "" if rate < 1.0 and not result["correct"] else f"success_rate {rate}"))

    try:
        LoadClient(1, (os.cpu_count() or 1) + 1)
        refused = "accepted more connections than cores"
    except ValueError:
        refused = ""
    checks.append(("more connections than cores refused", refused))

    with socket.socket() as silent:  # accepts connections, never replies
        silent.bind(("127.0.0.1", 0))
        silent.listen(16)
        port = silent.getsockname()[1]
        began = time.perf_counter()
        samples, timeouts, _ = LoadClient(port, 1, timeout=0.2).run(
            lambda i: (None, b"{}"), SMOKE_SECONDS
        )
        waited = time.perf_counter() - began
        checks.append(("a silent server gives counted timeouts, not a stuck run",
                       "" if timeouts and not samples and waited < SMOKE_SECONDS + 1
                       else f"{timeouts} timeouts, {len(samples)} replies in {waited:.1f}s"))
    # the port is free again: nothing listens, as after a server crash
    samples, lost, _ = LoadClient(port, 1).run(
        lambda i: (None, b"{}"), SMOKE_SECONDS
    )
    checks.append(("a dead server gives counted losses, not a crash",
                   "" if lost and not samples else f"{lost} lost, {len(samples)} replies"))

    for label, problem in checks:
        print(f"{'FAIL' if problem else 'ok  '} {label}{': ' + problem if problem else ''}")
    return 1 if any(problem for _, problem in checks) else 0
