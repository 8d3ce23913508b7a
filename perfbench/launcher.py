"""Runs the benchmark's child processes, one at a time, from a process that stays small.

The kernel counts into a child's peak RSS the peak RSS of the process that
spawned it, so the benchmark loop, which holds numpy, scipy and atomslits,
cannot spawn the children whose memory it measures. `Launcher.start()` is
called before those imports; the small process it starts reads one request
per line on stdin, `{"argv": [...], "out": path, "err": path}`, runs the
child with its stdout and stderr in those files, and answers one line
`[wall_ms, peak_rss_mb, exit_code]`. Run as a script, this file is that
process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path


class Launcher:
    """The benchmark's side of the launcher process."""

    def __init__(self, proc: subprocess.Popen, scratch: Path) -> None:
        self.proc = proc
        self.scratch = scratch

    @classmethod
    def start(cls, cwd: Path, scratch: Path) -> "Launcher":
        scratch.mkdir(exist_ok=True)
        proc = subprocess.Popen([sys.executable, "-S", __file__], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, cwd=cwd, text=True)
        return cls(proc, scratch)

    def run(self, argv: list[str]) -> tuple[float, float, int, str, str]:
        """Run one child to completion: wall ms, peak RSS MB, exit code, stdout, stderr."""
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            out, err = Path(tmp, "out"), Path(tmp, "err")
            self.proc.stdin.write(json.dumps({"argv": argv, "out": str(out), "err": str(err)})
                                  + "\n")
            self.proc.stdin.flush()
            wall_ms, rss_mb, code = json.loads(self.proc.stdout.readline())
            return wall_ms, rss_mb, code, out.read_text("utf-8"), err.read_text("utf-8")

    def stop(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall_ms = (time.perf_counter() - start) * 1e3
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([wall_ms, usage.ru_maxrss / 1024, proc.returncode]), flush=True)


if __name__ == "__main__":
    serve()
