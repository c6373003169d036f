"""Run `python -m atomspec.cli *argv` for `measure` in gates/test_gates.py,
killed after `seconds` unless None; print [exit code or None, wall seconds,
ru_maxrss in KiB] as a JSON line, then the cell's stdout.  Start it fresh:
Linux starts a child's ru_maxrss at its spawner's peak RSS."""

import json
import resource
import subprocess
import sys
import time

if __name__ == "__main__":
    argv, seconds = json.loads(sys.argv[1])
    start = time.monotonic()
    try:
        done = subprocess.run([sys.executable, "-m", "atomspec.cli", *argv],
                              stdout=subprocess.PIPE, timeout=seconds)
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired as exc:  # killed and reaped
        code, out = None, exc.output or b""
    took = time.monotonic() - start
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sys.stdout.buffer.write(json.dumps([code, took, kb]).encode() + b"\n" + out)
