"""Distributed grid CLI, end to end with real processes and a real kill.

A coordinator (``grid --distributed --jobs 0``) serves two external
``grid-worker`` processes; one is SIGKILLed mid-lease. The coordinator
must re-queue the dead worker's keys, the survivor must finish the grid,
and the final store must match a serial CLI run byte for byte (modulo
row order). This is the failure model the executor promises.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import repro

SRC_DIR = os.path.dirname(list(repro.__path__)[0])

GRID_ARGS = [
    "--dataset", "germancredit",
    "--size", "2000",
    "--seeds", "2",
    "--learner", "lr",
    "--no-tuning",
    "--interventions", "none", "di-remover-0.5",
]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return env


# The victim runs the real ``repro`` CLI with group execution stalled, so
# it holds its granted lease (heartbeating) until it is killed. A worker
# left to run can deliver its whole lease in the moment between printing
# the lease event and the SIGKILL landing, and then there is nothing to
# re-queue.
STALLED_WORKER = """
import sys, threading
from repro import cli
from repro.core import distributed

def stalled(plan, group):
    threading.Event().wait()
    yield from ()

distributed.iter_config_group = stalled
sys.exit(cli.main(sys.argv[1:]))
"""


def _spawn(arguments, cwd, entry=("-m", "repro")):
    return subprocess.Popen(
        [sys.executable, *entry, *arguments],
        cwd=str(cwd),
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class StreamWatcher:
    """Pump a subprocess stream in a thread; wait for marker lines."""

    def __init__(self, stream):
        self._lines = []
        self._lock = threading.Lock()
        thread = threading.Thread(target=self._pump, args=(stream,), daemon=True)
        thread.start()

    def _pump(self, stream):
        for line in stream:
            with self._lock:
                self._lines.append(line)

    def wait_for(self, needle, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                for line in self._lines:
                    if needle in line:
                        return line
            time.sleep(0.05)
        raise AssertionError(f"never saw {needle!r} in:\n{self.text()}")

    def text(self):
        with self._lock:
            return "".join(self._lines)


def _keyed_lines(path):
    with open(path) as handle:
        return {json.loads(line)["run_key"]: line for line in handle}


def test_sigkilled_worker_requeues_and_store_matches_serial(tmp_path):
    coordinator = _spawn(
        [
            "grid", *GRID_ARGS,
            "--output", "dist.jsonl",
            "--distributed",
            "--jobs", "0",
            "--bind", "127.0.0.1:0",
            "--lease-seconds", "5",
        ],
        tmp_path,
    )
    workers = []
    try:
        coordinator_log = StreamWatcher(coordinator.stderr)
        listening = coordinator_log.wait_for("coordinator listening on ")
        address = listening.rsplit(" ", 1)[-1].strip()

        victim = _spawn(
            ["grid-worker", "--connect", address, "--worker-id", "w1"],
            tmp_path,
            entry=("-c", STALLED_WORKER),
        )
        workers.append(victim)
        victim_log = StreamWatcher(victim.stderr)
        # the lease event comes before the (stalled) group: killing now
        # guarantees undelivered keys on a granted lease
        victim_log.wait_for("[w1] lease")
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=60)

        requeue_line = coordinator_log.wait_for("requeued")
        assert re.search(r"requeued \d+ keys from lease \d+", requeue_line)

        survivor = _spawn(
            ["grid-worker", "--connect", address, "--worker-id", "w2"], tmp_path
        )
        workers.append(survivor)
        assert coordinator.wait(timeout=480) == 0
        assert survivor.wait(timeout=60) == 0

        log = coordinator_log.text()
        assert "worker w1 registered" in log
        assert "worker w2 registered" in log
        assert "complete: w1" not in log
        summary = re.search(
            r"distributed summary: (\d+) worker\(s\) seen, (\d+)/(\d+) runs "
            r"merged, (\d+) keys re-queued",
            log,
        )
        assert summary, log
        seen, merged, total, requeued = map(int, summary.groups())
        assert seen == 2
        assert merged == total == 4
        assert requeued >= 1
    finally:
        for process in [coordinator, *workers]:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=30)

    serial = _spawn(["grid", *GRID_ARGS, "--output", "serial.jsonl"], tmp_path)
    _, serial_err = serial.communicate(timeout=480)
    assert serial.returncode == 0, serial_err

    distributed_lines = _keyed_lines(tmp_path / "dist.jsonl")
    serial_lines = _keyed_lines(tmp_path / "serial.jsonl")
    assert set(distributed_lines) == set(serial_lines)
    assert all(
        distributed_lines[key] == serial_lines[key] for key in serial_lines
    )
