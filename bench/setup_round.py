"""One set-up round of the benchmark, in a fresh interpreter.

    python3 bench/setup_round.py INPUT.alg [INPUT.alg ...]

Imports blowuplab from ``src/`` of this checkout, then parses (with Jacobi
validation) every document named; prints the seconds that took.  ``run.py``
starts one round after each command and reports the median as ``setup_s``.
"""

import importlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
texts = [Path(p).read_text(encoding="utf-8") for p in sys.argv[1:]]
start = time.perf_counter()
importlib.import_module("blowuplab.cli")
parse = sys.modules["blowuplab.model_io"].parse_algebra
for text in texts:
    parse(text)
print(time.perf_counter() - start)
