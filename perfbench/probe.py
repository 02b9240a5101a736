"""Set-up probe: in a fresh interpreter, time `import lioueps` and then
`parse_config` (which validates the model by building it) for one config.

    python3 perfbench/probe.py CONFIG.json     (with ./src on PYTHONPATH)

Afterwards it times the reference kernel of speed.py (after a warm-up
call), so run.py can scale the set-up time to the reference speed.
Prints {"import_s": ..., "parse_s": ..., "ref_s": ...} as one JSON line.
"""

import json
import sys
import time

with open(sys.argv[1], encoding="utf-8") as fh:
    text = fh.read()

t0 = time.perf_counter()
import lioueps  # noqa: E402,F401
t1 = time.perf_counter()
from lioueps.cli import parse_config  # noqa: E402
parse_config(text)
t2 = time.perf_counter()

import speed  # noqa: E402  (after the timing: it imports numpy and scipy)
speed.warm_up()
ref_s = speed.reference_s()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "ref_s": ref_s}))
