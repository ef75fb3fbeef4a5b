#!/usr/bin/env python3
"""Build and run the Frost benchmark.

Usage: python3 frostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository. The first run
compiles the library's sources together with the benchmark harness
(frostbench/src) with sbt, offline, into .bench_build/ at the root of the
checkout; later runs reuse that build while the sources are unchanged.
The last line of standard output is the run's JSON result. Per-run result
files and trace spans are written to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
LIBRARY_SOURCES = os.path.join(ROOT, "src", "main", "scala")
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 700
HEAP = "3g"
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg, code=2):
    print(f"frostbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the paths and contents of every file the build reads."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for base in (LIBRARY_SOURCES, os.path.join(HERE, "src")):
        for dirpath, _, filenames in os.walk(base):
            files += [os.path.join(dirpath, name) for name in filenames]
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_process(cmd, limit_s, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {limit_s:.0f}s", 1)
    return proc.returncode, out


def build(digest):
    """Compile with sbt unless a build of the same sources exists; return the classpath."""
    cp_file = os.path.join(WORK, "classpath.txt")
    stamp_file = os.path.join(WORK, "source.sha256")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == digest:
                with open(cp_file) as g:
                    return g.read().strip()
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "sbt.offline" not in opts:
        env["SBT_OPTS"] = (opts + " -Dsbt.offline=true").strip()
    code, out = run_process(
        # sbt's boot and global directories live in the build directory too,
        # so building writes nothing outside the checkout.
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         f"-Dsbt.boot.directory={os.path.join(WORK, 'sbt-boot')}",
         f"-Dsbt.global.base={os.path.join(WORK, 'sbt-global')}",
         "export Runtime/fullClasspath"],
        BUILD_LIMIT_S, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(out)
        fail(f"build failed (sbt exit code {code})", 1)
    classpath = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(classpath + "\n")
    with open(stamp_file, "w") as f:
        f.write(digest + "\n")
    return classpath


def git_rev():
    try:
        # The ceiling stops git from reporting a repository that merely
        # contains this checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def add_tracing_overhead(args, result):
    """With a traced run, compare against the untraced run of the same seed, if any."""
    stem = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace")
    try:
        with open(stem + "0.json") as f:
            untraced = json.load(f)["end_to_end"]["op_ms_p50"]["value"]
    except (OSError, KeyError, ValueError):
        print("tracing overhead: no untraced run of this workload and seed to compare with")
        return
    traced = result["metrics"]["trace.op_ms_p50"]["value"]
    overhead = {"untraced_op_ms_p50": untraced, "traced_op_ms_p50": traced,
                "overhead_ms": traced - untraced, "overhead_ratio": traced / untraced - 1}
    print(f"tracing overhead: op_ms_p50 {untraced:.3f} ms untraced, {traced:.3f} ms traced "
          f"({overhead['overhead_ratio']:+.1%})")
    with open(stem + "1.json") as f:
        saved = json.load(f)
    saved["tracing_overhead"] = overhead
    with open(stem + "1.json", "w") as f:
        json.dump(saved, f)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()
    if not os.path.isdir(LIBRARY_SOURCES):
        fail(f"library sources not found at {os.path.relpath(LIBRARY_SOURCES, ROOT)}; "
             "run from a checkout of the repository")

    digest = source_digest()
    classpath = build(digest)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + [f"-Djava.io.tmpdir={tmp}", f"-Dfrostbench.work={WORK}",
              f"-Dfrostbench.rev={git_rev()}", f"-Dfrostbench.source={digest}",
              "-cp", classpath, "frostbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace])
    start = time.monotonic()
    code, out = run_process(cmd, RUN_LIMIT_S, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark exited with code {code}", code or 1)
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if args.trace == "1":
        add_tracing_overhead(args, result)
    print(f"wall time of the benchmark process: {time.monotonic() - start:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
