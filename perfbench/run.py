#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload unit-paper --seed 1 --seconds 20 --trace 0

The arguments are passed to the program unchanged. The Go build cache,
module cache, temporary files and the binary all live under the build
directory ($CARGO_TARGET_DIR, default .bench_build), so a run reads and
writes nothing outside the checkout. The program's last line of output is
the result object.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOTELEMETRY": "off",
        "TMPDIR": tmp,
    })
    exe = os.path.join(build, "perfbench")
    # Fall back to the official install location when go is not on PATH.
    go = shutil.which("go") or os.path.join(os.environ.get("GOROOT", "/usr/local/go"), "bin", "go")
    built = subprocess.run([go, "build", "-buildvcs=false", "-o", exe, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([exe] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
