"""Re-record the sweeps' reference digests into references.json.

    python3 perfbench/record_references.py

One pass per sweep workload and input seed. Run it only when a change is
meant to alter results; the digests pin the program's outputs byte for
byte, so a change that should keep results identical must not need it.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

common.require_source_tree()

import sweeps  # noqa: E402


def main() -> int:
    references = {}
    scratch = common.scratch_dir()
    try:
        for name in sweeps.SWEEPS:
            references[name] = {}
            for seed in range(common.INPUT_SEEDS):
                sweep = sweeps.Sweep(name, seed, scratch)
                sweep.set_up()
                _, results = sweep.run_pass(seed)
                references[name][str(seed)] = sweeps.digest(results)
                print(name, seed, references[name][str(seed)], file=sys.stderr, flush=True)
    finally:
        common.remove_scratch(scratch)
    path = os.path.join(HERE, "references.json")
    with open(path, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
