"""Run one qmetallic command in this fresh interpreter and report on it.

Started by run.py, one interpreter per command.  The protocol on the
interpreter's own stdin/stdout:

1. import qmetallic.cli (and install the tracer when asked), print "ready";
2. read one JSON line {"argv": [...], "out": path, "spans": path | null};
3. time cli.main(argv) with sys.stdout bound to the file `out`, from the
   call to the flush of its last byte;
4. print one JSON line {"rc", "op_s", "maxrss_kb", "error"} and exit.

The command's stderr goes wherever run.py pointed this interpreter's stderr.
"""

import json
import resource
import sys
import time
import traceback


def main() -> int:
    import qmetallic.cli as cli

    tracer = None
    if "--trace" in sys.argv[1:]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    ctl = sys.stdout
    ctl.write("ready\n")
    ctl.flush()

    req = json.loads(sys.stdin.readline())
    error = None
    with open(req["out"], "w", encoding="utf-8") as out:
        sys.stdout = out
        t0 = time.perf_counter()
        try:
            rc = cli.main(req["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc, error = None, traceback.format_exc(limit=-3)
        out.flush()
        op_s = time.perf_counter() - t0
        sys.stdout = ctl
    if tracer is not None:
        tracer.write(req["spans"])
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ctl.write(json.dumps({"rc": rc, "op_s": op_s, "maxrss_kb": maxrss_kb,
                          "error": error}) + "\n")
    ctl.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
