"""The ``pinchlab`` console script (``pinchlab.cli:main``), with time stamps.

``run.py`` starts every CLI operation as ``python3 perfbench/entry.py ARGS``:
the import and call a console-script wrapper makes, run from the checkout's
own ``src`` (``python -m pinchlab.cli`` would add a runpy warning).  The last
line on stderr reports, on the monotonic clock, when ``pinchlab.cli`` finished
importing and when ``main`` returned.  With PERFBENCH_TRACE set, the layer
spans are installed before ``main`` and written to that path after it.
"""

import json
import os
import sys
import time


def run() -> int:
    import pinchlab.cli  # noqa: F401  (the import a console script makes)

    imported = time.monotonic()
    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        import tracing

        tracer = tracing.Tracer()
        tracer.add("cli.import", float(os.environ["PERFBENCH_LAUNCH"]), imported)
        tracer.install()
    from pinchlab.cli import main

    code = main()
    main_end = time.monotonic()
    if tracer:
        tracer.dump(trace_path)
    stamps = {"imported": imported, "main_end": main_end, "written": time.monotonic()}
    sys.stderr.write("perfbench " + json.dumps(stamps) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(run())
