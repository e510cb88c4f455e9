"""One sl2prod CLI call under the benchmark tracer, for traced cli runs.

    python cliop.py SUMMARY ARG...

Times `import sl2prod.cli`, installs the tracer, runs what the `sl2prod`
console script runs with ARG... as its arguments, and writes the tracer
summary to SUMMARY.
"""

import json
import sys
import time

_t = time.perf_counter()
import sl2prod.cli  # noqa: E402  (timed import)
IMPORT_S = time.perf_counter() - _t

from tracer import Tracer  # noqa: E402


def main() -> int:
    path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    rc = sl2prod.cli.main(args)
    summary = tracer.summary()
    summary["process"] = tracer.process_costs(IMPORT_S)
    with open(path, "w") as f:
        json.dump(summary, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
