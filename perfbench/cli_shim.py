"""Traced stand-in for ``python -m dp6kit.cli``.

    python3 perfbench/cli_shim.py SPANS_OUT ITEM_ID surface count --model split --q 2

Times ``import dp6kit.cli``, installs the span wrappers, runs
``dp6kit.cli.main(argv)`` with stdout untouched and writes the spans to
SPANS_OUT when the command ends, however it ends.
"""

import sys
from time import perf_counter_ns

import tracer as tracing


def main():
    out, item, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t = perf_counter_ns()
    import dp6kit.cli
    import_ns = perf_counter_ns() - t
    tracer = tracing.install(tracing.Tracer())
    tracer.item = item
    try:
        return dp6kit.cli.main(argv)
    finally:
        tracer.dump(out, import_ns=import_ns)


if __name__ == "__main__":
    sys.exit(main())
