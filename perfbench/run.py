#!/usr/bin/env python3
"""Build and run the served-system benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload history-cold --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from source into .bench_build/
(its build cache, temporary files and binary stay inside the checkout),
then run with the given arguments from the checkout root. Its standard
output, whose last line is the JSON result, passes through unchanged. The
exit code is the program's, or 1 when the build fails or the run overruns.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

BUILD_TIMEOUT_S = 850  # the first build in a checkout compiles everything
# The program stops measuring at 4 x --seconds; set-ups, sweeps and
# start-up come on top.
MEASURE_CAP = 4
SETUP_ALLOWANCE_S = 70
SHM = "/dev/shm"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOTMPDIR": os.path.join(build, "go-tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    for key in ("GOCACHE", "GOTMPDIR", "GOPATH", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    go = shutil.which("go") or "/usr/local/go/bin/go"
    binary = os.path.join(build, "perfbench", "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    data = data_dir(build)
    args = [binary, "--workdir", data] + sys.argv[1:]
    timeout = run_timeout(sys.argv[1:])
    try:
        return subprocess.run(args, cwd=root, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % timeout, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)


def run_timeout(argv):
    """Return how long the program may run, from its --seconds argument."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seconds", type=float, default=25)
    known, _ = parser.parse_known_args(argv)
    return MEASURE_CAP * max(known.seconds, 0) + SETUP_ALLOWANCE_S


def data_dir(build):
    """Return a fresh directory for the node and gateway data.

    It is on tmpfs when /dev/shm is writable: on a shared ext4 disk every
    commit's fsyncs wait on other tenants' journal traffic, which spread
    commit-mixed throughput by about a quarter from run to run. The program's
    fsync calls still run; they just do not wait for a device. Without
    /dev/shm the data stays under .bench_build/.
    """
    if os.path.isdir(SHM) and os.access(SHM, os.W_OK):
        return tempfile.mkdtemp(prefix="perfbench-", dir=SHM)
    os.makedirs(os.path.join(build, "data"), exist_ok=True)
    return tempfile.mkdtemp(prefix="perfbench-", dir=os.path.join(build, "data"))


if __name__ == "__main__":
    sys.exit(main())
