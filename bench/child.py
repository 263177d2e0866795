"""One fresh interpreter per measurement; started by run.py, not by hand.

    python3 child.py setup <root> <n>
        import chbs.cli and build the n-by-n domain; print the CLOCK_MONOTONIC
        reading when done, so the parent can time from before the spawn.
    python3 child.py call <root> <argv.json>
    python3 child.py trace <root> <argv.json> <spans.csv>
        time chbs.cli.main(argv), untraced or with spans.install, between two
        timings of calibrate.kernel; print the exit code, the wall time, the
        mean kernel time and the peak RSS.

``root`` is the checkout; chbs is imported from ``root/src`` only.  The
last line of standard output is one JSON object.
"""

import json
import os
import resource
import sys
import time


def _import_chbs(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import chbs.cli
    found = os.path.dirname(os.path.abspath(chbs.__file__))
    if found != os.path.join(src, "chbs"):
        raise ImportError(f"chbs imported from {found}, not from {src}")
    return chbs.cli


def main(argv):
    mode, root = argv[0], argv[1]
    cli = _import_chbs(root)
    if mode == "setup":
        cli.build_unit_square(int(argv[2]))
        print(json.dumps({"done": time.clock_gettime(time.CLOCK_MONOTONIC)}))
        return 0
    with open(argv[2]) as fh:
        call_argv = json.load(fh)
    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    import calibrate
    calibrate.kernel()  # warm-up
    before = calibrate.kernel()
    start = time.perf_counter()
    rc = cli.main(call_argv)
    wall = time.perf_counter() - start
    after = calibrate.kernel()
    if tracer is not None:
        tracer.write(argv[3])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rc": rc, "wall_s": wall, "cal_s": 0.5 * (before + after),
                      "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
