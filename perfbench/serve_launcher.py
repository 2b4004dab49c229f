"""Run ``repro serve`` with the benchmark's layer spans installed.

    python3 perfbench/serve_launcher.py SPANS_PATH serve --registry ... 

Installs the serve-side wrappers from :mod:`tracing`, then hands the
remaining arguments to ``repro.cli.main``. On SIGTERM the recorded spans
are written to SPANS_PATH and the server shuts down through its normal
exit path.
"""

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

common.require_source_tree()

import tracing  # noqa: E402


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install(recorder, tracing.SERVE)

    def on_term(signum, frame):
        temporary = spans_path + ".tmp"
        recorder.dump(temporary)
        os.replace(temporary, spans_path)
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, on_term)
    from repro.cli import main as repro_main

    return repro_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
