#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload quest-query --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The binary is built in release mode with
Cargo (into $CARGO_TARGET_DIR, default `.bench_build`), then run with the
same arguments.  The last line of standard output is the result JSON,
restricted to the metrics BENCHMARK.json lists for the mode (end-to-end
untraced, per-layer traced).  Deployments, result files and traces go
under `.perfbench/`.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    root = os.path.dirname(HERE)
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    env["PERFBENCH_GIT_REV"] = source_rev()
    try:
        proc = subprocess.run([exe] + sys.argv[1:], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    print(select(json.loads(lines[-1]), "--trace" in sys.argv and
                 sys.argv[sys.argv.index("--trace") + 1:][:1] == ["1"]))
    return 0


def select(result, traced):
    """The result line restricted to the metrics BENCHMARK.json lists for
    this mode; a listed metric the run did not report makes it incorrect."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [m["name"] for m in bench["per_layer" if traced else "end_to_end"]]
    metrics = {n: result["metrics"][n] for n in names if n in result["metrics"]}
    return json.dumps({
        "correct": bool(result["correct"]) and len(metrics) == len(names),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


if __name__ == "__main__":
    sys.exit(main())
