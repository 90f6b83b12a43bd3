#!/usr/bin/env python3
"""Workload pins: run the gated scenarios and compare them with their goldens.

Each scenario below runs as `build/dhc_run --scenario=bench/scenarios/NAME.scn
--threads=2 --shards=1`.  Its JSON artifact must equal bench/golden/NAME.json
byte for byte, and the child's peak RSS (read from wait4) must stay within
base + max(15% of base, 32 MB).  The memory-probe pair must also show the
streaming per-node accounting saving at least 64 MB over full accounting.
Prints one line per scenario and exits 1 on any failure.

    python3 bench/check_workloads.py

After an intended change to a pinned workload, regenerate its golden with
    build/dhc_run --scenario=bench/scenarios/NAME.scn --json=bench/golden/NAME.json
"""
import filecmp
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DHC_RUN = os.path.join(ROOT, "build", "dhc_run")
# Peak-RSS bases in kB (None = not gated), as last recorded by the retired
# in-process bench harness with one simulator shard.  --shards=1 keeps that
# configuration: a one-trial scenario at --threads=2 would otherwise run two
# shards and carry about 125 MB of extra per-shard buffers.
RSS_BASE_KB = {"perf-smoke": 16384, "kmachine-sweep": None, "fault-sweep": None,
               "mem-probe-full": 906016, "mem-probe-streaming": 807792}
MIN_STREAMING_SAVING_KB = 64 * 1024


def main():
    failures, rss = 0, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, base in RSS_BASE_KB.items():
            out = os.path.join(tmp, name + ".json")
            argv = [DHC_RUN, f"--scenario={ROOT}/bench/scenarios/{name}.scn", "--threads=2",
                    "--shards=1", f"--json={out}"]
            pid = os.posix_spawn(DHC_RUN, argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
            _, status, usage = os.wait4(pid, 0)
            code, rss[name] = os.waitstatus_to_exitcode(status), usage.ru_maxrss
            golden = os.path.join(ROOT, "bench", "golden", name + ".json")
            same = code == 0 and filecmp.cmp(out, golden, shallow=False)
            bound = None if base is None else base + max(0.15 * base, 32 * 1024)
            rss_ok = bound is None or rss[name] <= bound
            print(f"{name}: exit {code}; artifact {'matches' if same else 'DIFFERS FROM'} "
                  f"golden; peak RSS {rss[name]} kB"
                  + ("" if bound is None else f" (bound {bound:.0f})" + ("" if rss_ok else " OVER")))
            failures += (not same) + (not rss_ok)
    saving = rss["mem-probe-full"] - rss["mem-probe-streaming"]
    print(f"streaming saves {saving} kB over full (need >= {MIN_STREAMING_SAVING_KB})")
    failures += saving < MIN_STREAMING_SAVING_KB
    print("workload pins: " + (f"FAILED ({failures} check(s))" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
