"""Run one CLI job in a fresh interpreter and report its timing.

Usage: python3 perfbench/child.py SRC_DIR TRACE_FILE|- -- ARGV...

Stdout is exactly what `smsquiver.cli.main(ARGV)` prints.  The last line
of stderr is a JSON object with the in-process time of `main`, the exit
code and the peak resident set size.  With a TRACE_FILE, the layers are
traced and the spans and counters are written there when the job ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    src, trace_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR TRACE_FILE|- -- ARGV...")
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import smsquiver.cli

    if not os.path.abspath(smsquiver.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"smsquiver imported from {smsquiver.cli.__file__}, not {src}")
    tracer = None
    if trace_file != "-":
        import tracer as tracing

        tracer = tracing.install()
    start = time.perf_counter()
    try:
        code = smsquiver.cli.main(argv)
    except SystemExit as exc:  # argparse errors exit 2
        code = exc.code if isinstance(exc.code, int) else 1
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    if tracer is not None:
        with open(trace_file, "w") as fh:
            json.dump(tracer.dump(), fh)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"main_s": main_s, "code": code, "rss_kib": rss_kib}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
