#!/usr/bin/env python3
"""omega-bench: build the load generator and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later calls reuse
it. Each run forks a fresh 3-node cluster, measures for --seconds, checks
the outputs, prints every metric by name with its unit, writes the full
result (with a machine fingerprint) under .bench_build/results/, and
prints as its last line one JSON object: correct, attempted, failed and
the metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
The nodes' WAL skips its fdatasync barrier, as on tmpfs (see README.md).
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("append_lowload", "append_pipelined", "read_mostly", "leader_crash")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(target):
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", bdir, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return bdir


def cache_value(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def fingerprint(bdir):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value(bdir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    sha = "none"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": cache_value(bdir, "CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "source_sha256": source_digest(),
        "kernel": platform.release(),
    }


def run_generator(bdir, args):
    run_dir = os.path.join(bdir, "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [os.path.join(bdir, "omega_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", run_dir]
    # Own process group: on a timeout the nodes it forked die with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("omega_bench did not finish in %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("omega_bench exited with %d" % proc.returncode)
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError("omega_bench printed no result")
    return json.loads(lines[-1])


def print_report(res, fp):
    print("omega-bench %s seed=%d trace=%d" % (res["workload"], res["seed"], res["trace"]))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for section in ("e2e", "layers"):
        for name, m in res[section].items():
            print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, v in res["detail"].items():
        print("  %-34s %16.6g" % (name, v))
    for c in res["checks"]:
        print("  check %-44s %s %s" % (c["name"], "ok" if c["ok"] else "FAILED", c["detail"]))
    for n in res["notes"]:
        print("  note: " + n)


def self_test():
    bdir = build("perfbench_tests")
    # The cluster test keeps its WAL directories under the build tree.
    return subprocess.run([os.path.join(bdir, "perfbench_tests")], cwd=bdir).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        bdir = build("omega_bench")
        res = run_generator(bdir, args)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log("omega-bench: %s" % e)
        return 1
    fp = fingerprint(bdir)
    res["fingerprint"] = fp
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    print_report(res, fp)
    metrics = res["layers"] if args.trace else res["e2e"]
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
