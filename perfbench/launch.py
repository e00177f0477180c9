"""Run the ramsey3 command line from a source checkout.

    PYTHONPATH=src python3 perfbench/launch.py <ramsey3 arguments>

The package ships no __main__ module and `python -m ramsey3.cli` returns
without doing anything, so the benchmark starts the command line through
this file, which calls ramsey3.cli.main and exits with its code.

`--probe` only imports ramsey3.cli, to time start-up.  When
PERFBENCH_TRACE_OUT names a file, the public functions are wrapped
(see spans.py) and the spans are written there on exit, together with a
cli.startup span from PERFBENCH_T_SPAWN, the parent's clock when it
started this process.
"""

import os
import sys
import time


def main() -> int:
    import ramsey3.cli

    ready = time.perf_counter()
    if sys.argv[1:] == ["--probe"]:
        return 0
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not out:
        return ramsey3.cli.main(sys.argv[1:])
    import spans

    tracer = spans.Tracer()
    tracer.record("cli.startup", float(os.environ["PERFBENCH_T_SPAWN"]), ready)
    tracer.install()
    try:
        return ramsey3.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
