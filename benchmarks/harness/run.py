"""Entry point the benchmark contract names: ``python3 benchmarks/harness/run.py``.

Puts the checkout root (for ``benchmarks.harness``) and ``src`` (for
``repro``) on ``sys.path``, then hands over to the command line in
``cli.py``.  ``python -m benchmarks.harness`` reaches the same place.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main():
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.stderr.write("benchmark: no engine source at {0}/repro\n"
                         .format(source))
        return 2
    for path in (source, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.harness.cli import main as cli_main
    return cli_main(sys.argv[1:], root=ROOT)


if __name__ == "__main__":
    sys.exit(main())
