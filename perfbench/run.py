#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The Go package in this directory is built from source with every Go cache,
temporary and configuration directory under .bench_build/ in the
repository, so a run reads and writes nothing outside the checkout. The
binary's last line of standard output is the JSON result. `--workload all`
runs every workload in turn and exits non-zero if any of them failed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["dlzd-b1", "dlzd-b1024-wal", "core-mq", "tl2-mcclock"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"


def go_env():
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "go-cache"), ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache"), ("HOME", "home")]:
        path = BUILD / sub
        path.mkdir(parents=True, exist_ok=True)
        env[key] = str(path)
    env.update(GOPROXY="off", GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local", GOENV="off", GOTELEMETRY="off")
    return env


def build(env):
    try:
        subprocess.run(["go", "build", "-o", str(BINARY), "."], cwd=Path(__file__).resolve().parent,
                       env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        sys.exit(1)


def run(workload, args, env):
    """Runs one workload, echoing its output; returns (exit code, last line)."""
    cmd = [str(BINARY), "--workload", workload, "--workdir", str(BUILD / "work")] + args
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
            return 1, ""
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main():
    argv = sys.argv[1:]
    if "--workload" not in argv or argv.index("--workload") + 1 >= len(argv):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    i = argv.index("--workload")
    workload, rest = argv[i + 1], argv[:i] + argv[i + 2:]
    env = go_env()
    build(env)
    if workload != "all":
        code, _ = run(workload, rest, env)
        sys.exit(code)

    verdicts, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        code, last = run(name, rest, env)
        try:
            res = json.loads(last)
        except ValueError:
            res = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        ok = code == 0 and res["correct"]
        verdicts.append(f"verdict {name}: {'PASS' if ok else 'FAIL'} "
                        f"({res['failed']} failed of {res['attempted']} attempted)")
        total["correct"] = total["correct"] and ok
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    print("\n".join(verdicts))
    print(json.dumps(total, sort_keys=True))
    sys.exit(0 if total["correct"] else 1)


if __name__ == "__main__":
    main()
