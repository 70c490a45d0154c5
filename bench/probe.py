"""Set-up probe: time `import finalg` and then parsing every `.alg` file in
a directory, in a fresh interpreter, and print both in seconds.

Usage: python3 bench/probe.py SRC_DIR INPUT_DIR
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import finalg  # noqa: E402  (the import is what is timed)

imported = time.perf_counter()
for path in sorted(Path(sys.argv[2]).glob("*.alg")):
    finalg.parse_file(path)
print(imported - start, time.perf_counter() - imported)
