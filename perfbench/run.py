"""Run the benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Run from anywhere; the simulator is imported from ``src/`` next to this
directory and nowhere else, so a directory without it fails fast.
"""

import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path[:0] = [str(src), str(root)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {src}: {exc}",
              file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"perfbench: repro resolved to {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
