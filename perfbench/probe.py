"""Set-up probe, run in a fresh process: import liftchar and parse every scenario.

    python perfbench/probe.py <scenario.json>...

Prints the elapsed seconds as JSON.  Interpreter start-up is not counted.
"""

import sys
from time import perf_counter


def main(paths: list[str]) -> int:
    t0 = perf_counter()
    from liftchar.cli import parse_scenario

    for path in paths:
        parse_scenario(path)
    print(f'{{"setup_s": {perf_counter() - t0!r}}}')
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
