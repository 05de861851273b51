"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload serve-treelstm --seed 1 \\
        --seconds 20 --trace 0

``--workload all`` runs every workload, each in a fresh process.  The
last line of standard output is the JSON result; the exit code is 0
only when every output matched the event engine.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.hostclock import Stopwatch  # noqa: E402

STARTED = Stopwatch()

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.bench import main
    sys.exit(main(sys.argv[1:], STARTED))
