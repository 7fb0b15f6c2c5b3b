"""One workload pass in a fresh interpreter: CLI invocations back to back.

Usage: ``python3 client.py PLAN.json`` where the plan (written by run.py)
names the source tree, the configs and the argv of each invocation.  The
client imports ``bridgeint.cli``, loads every config (that is the set-up
time), then calls ``bridgeint.cli.main`` for each invocation in turn, and
writes ``result.json`` next to the plan.  With ``"trace": true`` the calls
run under the out-of-tree tracer and the spans go into the result.

Before the first invocation and after each one, the client times a fixed
probe of path-kernel-like numpy work (``probe``), and it records the steal
time accrued during each invocation, so that run.py can bring invocation
times to a reference machine speed.
"""

import json
import os
import resource
import sys
import time
import traceback

PROBE_PATHS, PROBE_CHUNKS, PROBE_CHUNK_STEPS = 4096, 5, 120


def probe() -> float:
    """CPU seconds for a fixed amount of path-kernel-like numpy work.

    CPU time leaves out time the hypervisor steals, which run.py subtracts
    from invocation times separately.  The work is timed in chunks and the
    median chunk counts, so a brief stall does not stand for a whole pass.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    z = np.zeros((PROBE_PATHS, 3))
    acc = np.zeros(PROBE_PATHS)
    chunks = []
    for _ in range(PROBE_CHUNKS + 1):  # the first chunk warms up
        t0 = time.process_time()
        for _ in range(PROBE_CHUNK_STEPS):
            z = 0.999 * z + 0.05 * rng.standard_normal((PROBE_PATHS, 3))
            acc += np.linalg.norm(z, axis=-1) < 1.0
        chunks.append(time.process_time() - t0)
    return PROBE_CHUNKS * sorted(chunks[1:])[PROBE_CHUNKS // 2]


def steal_s() -> float:
    """Seconds the hypervisor has taken from this machine's CPUs (0 if unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from bridgeint import cli
    from bridgeint.config import load_config

    for config, command in plan["configs"]:
        load_config(config, command)
    ready = time.perf_counter()
    result = {"ready": ready, "steal_at_ready": steal_s(), "invocations": []}
    if not plan["setup_only"]:
        result["probes"] = [probe()]
        tracer = None
        if plan["trace"]:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            for i, argv in enumerate(plan["argv"]):
                if tracer is not None:
                    tracer.run_id = f"{plan['label']}/{i}"
                stolen = steal_s()
                start = time.perf_counter()
                entry = {"code": None, "error": None}
                try:
                    entry["code"] = cli.main(argv)
                except SystemExit as exc:
                    entry["code"] = exc.code
                except Exception:  # recorded as a failed operation by run.py
                    entry["error"] = traceback.format_exc(limit=8)
                entry["seconds"] = time.perf_counter() - start
                entry["steal_s"] = steal_s() - stolen
                result["invocations"].append(entry)
                result["probes"].append(probe())
        finally:
            if tracer is not None:
                tracer.uninstall()
                result["trace"] = tracer.dump()
        result["output_bytes"] = sum(
            os.path.getsize(os.path.join(out, name))
            for out in plan["outs"] for name in os.listdir(out))
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (kib + kib_children) / 1024.0
    with open(os.path.join(os.path.dirname(plan_path), "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
