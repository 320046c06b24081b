"""Set-up probe, run in a fresh interpreter: import squeezedx, parse a config.

    python3 probe_setup.py <config>

Prints one JSON line: the CLOCK_MONOTONIC time at which ``parse_config``
returned (the parent subtracts its own launch time), and the import and
parse times measured in-process.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import squeezedx.cli  # noqa: E402,F401  (the import is what is timed)
imported = time.perf_counter()
from squeezedx.scenario import parse_config  # noqa: E402

parse_config(Path(sys.argv[1]).read_text())
parsed = time.perf_counter()
print(json.dumps({"ready": time.monotonic(), "import_s": imported - start,
                  "parse_s": parsed - imported}))
