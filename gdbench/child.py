"""One benchmark process: import gdlab, build a workload's inputs, run one
gdlab command (optionally traced), print timestamps as one JSON line.

    python3 gdbench/child.py WORKLOAD SEED IN_DIR OUT_DIR MODE [SPANS_PATH]

MODE is `setup` (stop once the inputs are written), `run` or `trace`.
Timestamps come from time.monotonic(), the system-wide monotonic clock, so
the parent can subtract its own spawn time from them.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from gdlab import cli  # noqa: E402

import workloads  # noqa: E402


def peak_rss_mb():
    """High-water resident set of this process's own address space.  The
    rusage figure would not do: it also counts the address space the process
    was started from, i.e. the benchmark's own."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def main():
    name, seed, in_dir, out_dir, mode = sys.argv[1:6]
    wl = workloads.WORKLOADS[name]
    wl.build_inputs(int(seed), in_dir)
    t_ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"t_ready": t_ready}))
        return 0
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.install()
    t0 = time.monotonic()
    rc = cli.main(wl.argv(int(seed), in_dir, out_dir))
    t_done = time.monotonic()
    doc = {"t_ready": t_ready, "t_start": t0, "t_done": t_done, "rc": rc,
           "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        doc["layers"] = tracer.aggregate()
        tracer.save(sys.argv[6])
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
