"""Time one fresh process's set-up and print the seconds.

Usage: ``python3 bench/setup_probe.py DIAGRAM.json ...``

Set-up is what every CLI invocation pays before computing: importing
``moyeval.cli``, then reading, parsing and validating each diagram file.
Interpreter start-up is not counted.  The second number printed is the
calibration loop's time in the same process (the median of three), which
scales the first (see calib.py).
"""

import time

start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import _paths  # noqa: E402,F401
import moyeval.cli  # noqa: E402

for name in sys.argv[1:]:
    moyeval.cli.parse_diagram(Path(name).read_text())
elapsed = time.perf_counter() - start

from calib import calibrate  # noqa: E402

print(repr(elapsed), repr(sorted(calibrate() for _ in range(3))[1]))
