"""Run one qfcert command the way its console script does, and time it.

Usage: python3 launch.py REPORT TRACE -- QFCERT-ARGS...

REPORT is a JSON file written when the command ends.  It holds the
monotonic time at which ``qfcert.cli`` was imported and ready.  When
TRACE is 1 it also holds the span names and counts recorded around every
call into the library, and the span columns go to REPORT.<column>.  The
exit status is the command's own.  ``time.monotonic`` is system-wide on
Linux, so the parent subtracts its launch time from ``ready``.
"""

import sys
import time

import qfcert.cli

READY = time.monotonic()


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: launch.py REPORT TRACE -- QFCERT-ARGS...")
    argv = sys.argv[4:]
    report: dict = {"ready": READY}
    rec = None
    if trace:
        import tracing

        rec = tracing.Recorder()
        report["wrapped"] = tracing.install(rec)
    try:
        if rec is None:
            return qfcert.cli.main(argv)
        with rec.span(tracing.ROOT):
            return qfcert.cli.main(argv)
    finally:
        import json

        if rec is not None:
            report["spans"] = rec.write(report_path)
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
