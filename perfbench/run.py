#!/usr/bin/env python3
"""The repository benchmark: certified AES one-shot and a served
edit/defect stream, end to end (--trace 0) or split by layer (--trace 1).

    python3 perfbench/run.py --workload aes-oneshot --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It builds perfbench/echo_bench.exe
with dune, drives it, checks every verdict against its known answer and
prints one JSON object as the last line of standard output.  Metric names
and units come from BENCHMARK.json; see README.md in this directory for
what each one measures.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

EXE = os.path.join("_build", "default", "perfbench", "echo_bench.exe")
WORK = ".perfbench-work"
# kept between runs in one checkout: the serve pool and its references
CACHE = ".perfbench-cache"
CHILD_TIMEOUT = 150
# set-up-only spawns per aes-oneshot run, on top of one per pipeline
AES_SETUP_SPAWNS = 100
# daemon boots per serve-edit-stream run; the last one serves the stream
SERVE_SETUPS = 5
# the stream runs past --seconds until this many verdicts have arrived,
# so a p95 always has at least ten samples beyond it
SERVE_MIN_JOBS = 200
# the stream runs in this many segments, with the host's speed sampled
# before, between and after them
SERVE_SEGMENTS = 5
# A shared host runs this one at a speed that drifts by half or more over
# minutes, as other tenants come and go.  Each run therefore also times a
# fixed calibration unit (echo_bench calibrate: OCaml work that uses
# nothing from the library) in probes of CAL_UNITS units, interleaved with
# the workload, and scales every end-to-end time by CAL_REF_S / the run's
# median unit time.  Times are thus reported in reference seconds: seconds
# on a host that runs one unit in CAL_REF_S.
CAL_UNITS = 4
CAL_REF_S = 0.15
# counters a traced aes-oneshot run must reproduce exactly.  Not
# simplify.passes: each farm domain has its own simplifier memo, so the
# count moves with how work stealing splits the VCs, and it is reported
# like a timing (the median of the traced runs).
DETERMINISTIC = [
    "refactor.steps", "certify.oracle_trials", "certify.vcs", "vcgen.vcs",
    "vcgen.nodes", "prover.attempts", "prover.steps", "implication.lemmas",
]
# queue + stages + overhead must close on every served job.  The queue
# ends at the earliest worker start the client can bound from its stage
# events; those events travel worker -> daemon -> client, and with every
# core busy proving, the daemon or the client can wait for a CPU slice
# while the worker's stage clock already runs.  That wait is the slack a
# job's overhead may read below zero.
CLOSURE_SLACK_S = 0.05


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise BenchError("run from the root of a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/echo_bench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError("dune build failed")


def run_child(args, timeout=CHILD_TIMEOUT):
    """Run echo_bench to completion; return (parsed JSON, wall seconds,
    CPU seconds, spawn time).  Children run one at a time, so the
    RUSAGE_CHILDREN delta is this child's (and its reaped descendants')."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.time()
    t0 = time.monotonic()
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE,
                         stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise BenchError("%s timed out" % args[0])
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if p.returncode != 0:
        raise BenchError("%s exited with %d" % (args[0], p.returncode))
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("%s printed no result" % args[0])
    return json.loads(lines[-1]), wall, cpu, spawned


def calibrate():
    out, _, _, _ = run_child(["calibrate", "--units", str(CAL_UNITS)])
    return out["unit_s"]


def cal_scale(units):
    """The factor that turns this run's seconds into reference seconds."""
    return CAL_REF_S / stats.median(units)


def fresh_dir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------- aes-oneshot

def aes_pipeline(i):
    run_dir = fresh_dir("aes-%d" % i)
    out, wall, cpu, spawned = run_child(["aes-run", "--run-dir", run_dir])
    shutil.rmtree(run_dir, ignore_errors=True)
    if not out["correct"]:
        log("aes-oneshot run %d: wrong answer: %s" % (i, json.dumps(out)))
    return dict(out, wall=wall, cpu=cpu, setup=out["ready"] - spawned)


def aes_setup_only():
    out, _, _, spawned = run_child(["aes-run", "--run-dir", fresh_dir("aes-setup"),
                                    "--setup-only"])
    return out["ready"] - spawned


def aes_oneshot(seconds):
    runs, units = [], []
    t_end = time.monotonic() + seconds
    while len(runs) < 3 or time.monotonic() < t_end:
        units += calibrate()
        runs.append(aes_pipeline(len(runs)))
    units += calibrate()
    setups = [r["setup"] for r in runs] + [aes_setup_only() for _ in range(AES_SETUP_SPAWNS)]
    log("aes-oneshot: %d pipelines on %d visible core(s), farm width %d; verdicts %s s;"
        " calibration unit median %.4f s of %d"
        % (len(runs), runs[0]["cores"], runs[0]["jobs"],
           " ".join("%.2f" % r["verdict_s"] for r in runs), stats.median(units), len(units)))
    failed = sum(1 for r in runs if not r["correct"])
    return aes_metrics(runs, setups, units), len(runs), failed, []


def aes_metrics(runs, setups, units):
    scale = cal_scale(units)
    wall = stats.median([r["wall"] for r in runs]) * scale
    ok = sum(1 for r in runs if r["correct"])
    return {
        "setup_s": stats.median(setups) * scale,
        "verdict_s": stats.median([r["verdict_s"] for r in runs]) * scale,
        "cpu_s": stats.median([r["cpu"] for r in runs]) * scale,
        # a run holds far fewer pipelines than a p95 needs: both
        # latencies are the median process wall time
        "latency_p50_s": wall,
        "latency_p95_s": wall,
        # one-shot runs go back to back, so the rate is one per typical run
        "jobs_per_s": 1.0 / wall,
        "peak_rss_mb": stats.median([r["vm_hwm_kb"] for r in runs]) / 1024.0,
        "ok_ratio": stats.ratio(ok, len(runs)),
    }


def aes_layers(t):
    """Per-layer metrics of one traced run."""
    sp = {name: v for name, v in t["spans"].items()}
    certify_inside = t["certify.vc_s"] + t["certify.oracle_s"]
    prove_s = sp["prove"]["s"]
    layers = {
        "refactor.s": sp["refactor"]["s"] - certify_inside,
        "refactor.alloc_mw": sp["refactor"]["alloc_mw"],
        "certify.s": certify_inside + sp["certify-gate"]["s"],
        "certify.oracle_s": t["certify.oracle_s"],
        "annotate.s": sp["annotate"]["s"],
        "vcgen.s": sp["vcgen"]["s"],
        "prove.s": prove_s,
        "prove.alloc_mw": sp["prove"]["alloc_mw"],
        "prover.busy_s": t["prover.busy_s"],
        "prover.tail_s": t["prover.tail_s"],
        "farm.efficiency": stats.ratio(t["prover.busy_s"], prove_s * t["jobs"]),
        "cache.save_s": t["cache.save_s"],
        "extract.s": sp["extract"]["s"],
        "implication.s": sp["implication"]["s"],
        "other.s": t["wall_s"] - sum(v["s"] for v in sp.values()),
    }
    layers.update(t["counts"])
    return layers


def aes_closure(t, layers):
    """Stage spans plus other.s make up the traced wall; every part is a
    real, non-negative share of it."""
    parts = ["refactor.s", "certify.s", "annotate.s", "vcgen.s", "prove.s",
             "extract.s", "implication.s", "other.s"]
    total = sum(layers[p] for p in parts)
    problems = ["%s is negative" % p for p in parts if layers[p] < 0]
    if abs(total - t["wall_s"]) > 1e-6:
        problems.append("spans sum to %.6f s, wall is %.6f s" % (total, t["wall_s"]))
    if layers["other.s"] > 0.02 * t["wall_s"]:
        problems.append("other.s is %.1f%% of the wall" % (100 * layers["other.s"] / t["wall_s"]))
    return problems


def aes_oneshot_traced():
    untraced, traced = [], []
    for i in range(2):
        untraced.append(aes_pipeline(i))
        run_dir = fresh_dir("aes-trace-%d" % i)
        out, _, _, _ = run_child(["aes-trace", "--run-dir", run_dir])
        shutil.rmtree(run_dir, ignore_errors=True)
        traced.append(out)
    problems = []
    for name in DETERMINISTIC:
        values = {t["counts"][name] for t in traced}
        if len(values) != 1:
            problems.append("%s did not repeat: %s" % (name, sorted(values)))
    per_run = [aes_layers(t) for t in traced]
    for t, layers in zip(traced, per_run):
        problems += aes_closure(t, layers)
    layers = {k: stats.median([l[k] for l in per_run]) for k in per_run[0]}
    layers["trace.overhead_s"] = (stats.median([t["wall_s"] for t in traced])
                                  - stats.median([r["verdict_s"] for r in untraced]))
    attempted = len(untraced) + len(traced)
    failed = sum(1 for r in untraced if not r["correct"]) + sum(
        1 for t in traced if not t["correct"])
    return layers, attempted, failed, problems


# ---------------------------------------------------------- serve-edit-stream

def serve_inputs(work):
    """Put the serve pool and its one-shot references into `work`.  They
    come from a process of their own, so the daemon is forked from a clean
    heap.  They depend on the program and not on the seed, so they are
    built once per executable and kept in CACHE."""
    with open(EXE, "rb") as f:
        kept = os.path.join(CACHE, "serve-inputs-%s.bin" % hashlib.sha256(f.read()).hexdigest())
    if not os.path.isfile(kept):
        pool = fresh_dir("pool")
        run_child(["serve-pool", "--work-dir", pool])
        shutil.rmtree(CACHE, ignore_errors=True)
        os.makedirs(CACHE)
        os.replace(os.path.join(pool, "inputs.bin"), kept)
    shutil.copyfile(kept, os.path.join(work, "inputs.bin"))


def serve_stream(seed, seconds, trace):
    work = fresh_dir("serve")
    serve_inputs(work)
    out, _, _, _ = run_child(["serve", "--seed", str(seed), "--seconds", str(seconds),
                              "--segments", str(SERVE_SEGMENTS), "--cal-units", str(CAL_UNITS),
                              "--min-jobs", str(SERVE_MIN_JOBS), "--setups", str(SERVE_SETUPS),
                              "--trace", "1" if trace else "0", "--work-dir", work])
    shutil.rmtree(work, ignore_errors=True)
    jobs = out["jobs"]
    if len(jobs) < SERVE_MIN_JOBS:
        raise BenchError("the stream ended after %d jobs" % len(jobs))
    shares = {}
    for j in jobs:
        shares[j["kind"]] = shares.get(j["kind"], 0) + 1
    log("serve-edit-stream: %d jobs in %d segments, %.1f s active, %d sessions, %d workers"
        " on %d visible core(s); kinds %s; set-ups %s s; calibration unit median %.4f s of %d"
        % (len(jobs), out["segments"], out["active_s"], out["sessions"], out["workers"],
           out["cores"],
           ", ".join("%s %.0f%%" % (k, 100.0 * n / len(jobs)) for k, n in sorted(shares.items())),
           " ".join("%.2f" % x for x in out["setup_s"]),
           stats.median(out["cal_unit_s"]), len(out["cal_unit_s"])))
    return out, jobs


def serve_metrics(out, jobs):
    scale = cal_scale(out["cal_unit_s"])
    lat = [j["latency_s"] * scale for j in jobs]
    ran = [j["latency_s"] * scale for j in jobs if not j["dedup"]]
    ok = sum(1 for j in jobs if j["ok"])
    return {
        "setup_s": stats.median(out["setup_s"]) * scale,
        "verdict_s": stats.median(ran),
        "cpu_s": out["cpu_s"] * scale / len(jobs),
        "latency_p50_s": stats.median(lat),
        "latency_p95_s": stats.percentile(lat, 95),
        "jobs_per_s": len(jobs) / (out["active_s"] * scale),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        "ok_ratio": stats.ratio(ok, len(jobs)),
    }


def serve_layers(out, jobs):
    ran = [j for j in jobs if not j["dedup"]]
    problems = []

    def stage(j, name):
        return j["stages"].get(name, 0.0)

    overheads, queues = [], []
    for j in ran:
        stages = sum(j["stages"].values())
        overhead = j["latency_s"] - j["queue_s"] - stages
        if j["queue_s"] < -CLOSURE_SLACK_S or overhead < -CLOSURE_SLACK_S:
            problems.append("%s: queue %.4f + stages %.4f exceed latency %.4f"
                            % (j["id"], j["queue_s"], stages, j["latency_s"]))
        queues.append(j["queue_s"])
        overheads.append(overhead)
    impact = [stage(j, "impact") for j in ran if "impact" in j["stages"]]
    prove = [stage(j, "prove") for j in ran]
    layers = {
        "serve.queue_s": stats.median(queues),
        "serve.queue_p95_s": stats.percentile(queues, 95),
        "serve.parse_s": stats.median([stage(j, "parse") for j in ran]),
        "serve.impact_s": stats.median(impact) if impact else 0.0,
        "serve.prove_s": stats.median(prove),
        "serve.prove_p95_s": stats.percentile(prove, 95),
        "serve.overhead_s": stats.median(overheads),
        "serve.dedup_ratio": stats.ratio(len(jobs) - len(ran), len(jobs)),
        "carry.ratio": stats.ratio(sum(j["carried"] for j in ran), sum(j["vcs"] for j in ran)),
        "cache.hit_ratio": stats.ratio(
            sum(j["cache_hits"] for j in ran),
            sum(j["cache_hits"] + j["cache_misses"] for j in ran)),
        "prover.reproved_vcs": stats.ratio(sum(j["reproved"] for j in ran), len(ran)),
        "prover.attempts": stats.ratio(sum(j["prover_attempts"] for j in ran), len(ran)),
        "serve.retries": out["retries"],
        "serve.worker_crashes": out["worker_crashes"],
    }
    for kind in ("edit", "defect", "resubmit", "fresh"):
        lat = [j["latency_s"] for j in jobs if j["kind"] == kind]
        layers["kind.%s.p50_s" % kind] = stats.median(lat) if lat else 0.0
    return layers, problems


def serve_edit_stream(seed, seconds, trace):
    out, jobs = serve_stream(seed, seconds, trace)
    problems = list(out["failures"])
    if trace:
        metrics, closure = serve_layers(out, jobs)
        problems += closure
    else:
        metrics = serve_metrics(out, jobs)
    failed = sum(1 for j in jobs if not j["ok"])
    return metrics, len(jobs), failed, problems


# ----------------------------------------------------------------------- main

def emit(bench, trace, values, attempted, failed, problems):
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for m in declared:
        # a layer that is not on this workload's path did no work here
        value = values.get(m["name"], 0.0) if trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for p in problems:
        log("check failed: %s" % p)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["aes-oneshot", "serve-edit-stream"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        build()
        os.makedirs(WORK, exist_ok=True)
        if args.workload == "aes-oneshot":
            # the input is the fixed AES case study; the seed has nothing to vary
            result = aes_oneshot_traced() if args.trace else aes_oneshot(args.seconds)
        else:
            result = serve_edit_stream(args.seed, args.seconds, args.trace == 1)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("benchmark failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    emit(bench, args.trace == 1, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
