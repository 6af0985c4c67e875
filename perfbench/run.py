#!/usr/bin/env python3
"""Tangle-learning benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --repeat 10 [--seed 1] [--trace 0]
    python3 perfbench/run.py --self-test

Builds the repository's libraries and the two drivers (bench.cpp, plain and
link-time traced) from source into .bench_build/, runs the workload, checks
its outputs and prints one JSON object as the last line of stdout. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from the traced driver. Exits non-zero when an output check fails or the
build fails. See README.md for the workloads, metrics and bounds.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("femnist_sync", "femnist_codec", "shakespeare_sync")

# Consensus accuracy each workload's time_to_acc_s waits for. Each sits at
# or just above chance, so nearly every pass reaches it at its first
# evaluation and the metric times the rounds and the consensus evaluation up
# to there; the median over passes ignores the few sub-seeds that start below
# it. Targets a seed crosses later (0.3 on FEMNIST, say) swing by 20-90%
# between seeds, far beyond any useful bound (README.md).
TARGET_ACCURACY = {
    "femnist_sync": 0.10,
    "femnist_codec": 0.10,
    "shakespeare_sync": 0.04,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "tx_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "time_to_acc_s": "s",
    "final_acc": "share",
    "wire_bytes_per_tx": "B",
    "ledger_bytes_per_tx": "B",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

P90_MIN_TAIL = 10  # samples a percentile needs beyond it


class CheckLog:
    """Counts operations and failed ones; a failed check also says why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def op(self, ok, message=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def ok_share(self):
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


# --- statistics ------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile; None unless P90_MIN_TAIL samples lie beyond."""
    n = len(values)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n == 0 or n - rank < P90_MIN_TAIL:
        return None
    return sorted(values)[rank - 1]


def interquartile_mean(values):
    """Mean of the values left after dropping the lowest and the highest
    quarter (rounded down)."""
    cut = len(values) // 4
    return statistics.mean(sorted(values)[cut:len(values) - cut])


def spread(values):
    """(q3 - q1) / median, the rule the bounds are checked with."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf"), q1, median, q3


# --- build -----------------------------------------------------------------

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    """Configures and builds incrementally (both are no-ops when up to date).
    Exits 2 without a result when either fails, e.g. with no sources."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (["cmake", "-S", str(HERE), "-B", str(out),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(out), "-j", jobs]):
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write(f"perfbench: build failed: {' '.join(step)}\n")
            sys.exit(2)
    return out


def run_driver(binary, workload, seed, seconds, setup_reps=3, min_passes=0):
    done = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(float(seconds)), "--setup-reps", str(setup_reps),
         "--min-passes", str(min_passes)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"perfbench: {binary.name} exited {done.returncode}")
    return json.loads(done.stdout)


# --- output checks ---------------------------------------------------------

def outputs(pass_):
    """The deterministic outputs of one pass."""
    return (pass_["evals_det"], pass_["published"], pass_["transactions"],
            pass_["wire_bytes"], pass_["ledger_bytes"])


def prepare(doc):
    for p in doc["passes"]:
        p["evals_det"] = [(e[0], e[1], e[2]) for e in p["evals"]]
    return doc


def check_run(doc, log, reference=None):
    """Per-pass checks, repeat agreement, and agreement with `reference`
    (sub-seed -> outputs) from another run of the same workload."""
    first = {}
    for p in doc["passes"]:
        log.op(True)  # the pass itself
        for _ in p["round_ms"]:
            log.op(True)
        log.op(p["error"] == "", f"pass seed {p['seed']}: a round threw")
        log.op(p["violations"] == 0,
               f"pass seed {p['seed']}: {p['violations']} ledger invariant "
               "violations")
        log.op(p["published"] > 0, f"pass seed {p['seed']}: nothing published")
        seen = first.setdefault(p["seed"], outputs(p))
        log.op(seen == outputs(p),
               f"pass seed {p['seed']}: repeat differs from the first pass")
        if reference is not None and p["seed"] in reference:
            log.op(reference[p["seed"]] == outputs(p),
                   f"pass seed {p['seed']}: traced and untraced outputs differ")
    rounds = [r for p in timed(doc) for r in p["round_ms"]]
    log.op(percentile(rounds, 0.9) is not None,
           f"only {len(rounds)} rounds: p90 needs {P90_MIN_TAIL} beyond it")
    return first


def check_lossless(codec_doc, plain_doc, log):
    """The lossless codec preset must leave the accuracy history unchanged."""
    plain = {p["seed"]: p["evals_det"] for p in plain_doc["passes"]}
    for p in codec_doc["passes"]:
        want = plain.get(p["seed"])
        if want is None:
            continue
        common = min(len(want), len(p["evals_det"]))
        log.op(want[:common] == p["evals_det"][:common],
               f"pass seed {p['seed']}: codec changed the accuracy history")


# --- metrics ---------------------------------------------------------------

def time_to_acc(pass_, target):
    for _, accuracy, _, at_s in pass_["evals"]:
        if accuracy >= target:
            return at_s
    return pass_["wall_s"]  # never reached: censored at the pass length


def timed(doc):
    """The passes that count for timing: all but the driver's warm-up."""
    return [p for p in doc["passes"] if not p["warmup"]]


def end_to_end(doc, workload, log):
    passes = timed(doc)
    rounds = [r for p in passes for r in p["round_ms"]]
    published = sum(p["published"] for p in passes)
    wall = sum(p["wall_s"] for p in passes)
    target = TARGET_ACCURACY[workload]
    # Accuracy is deterministic per sub-seed, so each counts once.
    final = {p["seed"]: p["evals"][-1][1] for p in passes}
    values = {
        "setup_s": statistics.median(doc["setup_s"]),
        "tx_per_s": published / wall,
        # check_run() already failed the run if p90 lacks its tail; the
        # fallback keeps the result printable.
        "round_ms_p50": percentile(rounds, 0.5) or statistics.median(rounds),
        "round_ms_p90": percentile(rounds, 0.9) or max(rounds),
        # Each pass times a short stretch, so a mean smooths the host's speed
        # swings (a median flips between the fast and slow passes), but a
        # sub-seed whose first evaluation stays below the target doubles its
        # pass's time. The interquartile mean keeps most of the one and
        # drops the other.
        "time_to_acc_s": interquartile_mean([time_to_acc(p, target)
                                             for p in passes]),
        "final_acc": statistics.mean(final.values()),
        "wire_bytes_per_tx": sum(p["wire_bytes"] for p in passes) / published,
        "ledger_bytes_per_tx":
            sum(p["ledger_bytes"] for p in passes) / published,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "ok_share": log.ok_share(),
    }
    return values, len(rounds)


def per_layer(traced, untraced, log):
    t = traced["trace"]
    layers = t["layers"]
    counters = traced["counters"]
    m = {}

    def layer(name, serial=False):
        m[f"{name}.calls"] = (layers[name]["calls"], "count")
        m[f"{name}.self_ms"] = (layers[name]["self_ms"], "ms")
        if serial:
            m[f"{name}.serial_ms"] = (layers[name]["serial_ms"], "ms")

    def ratio(a, b):
        return a / b if b else 0.0

    round_wall = layers["core.round"]["wall_ms"]
    layer("core.round")
    m["core.round.serial_share"] = (ratio(t["round_serial_ms"], round_wall),
                                    "share")
    m["core.round.lane_idle_ms"] = (t["lane_idle_ms"], "ms")
    layer("core.node_step")
    m["core.node_step.publish_ratio"] = (
        ratio(t["node_publishes"], layers["core.node_step"]["calls"]), "share")
    layer("core.reference", serial=True)
    layer("core.eval")
    m["core.eval.models"] = (t["eval_models"], "count")
    hits, misses = counters["eval.cache.hit"], counters["eval.cache.miss"]
    m["core.eval.cache_hit_ratio"] = (ratio(hits, hits + misses), "share")
    layer("core.evaluate")
    layer("data.train")
    m["data.train.samples"] = (counters["train.examples"], "count")
    for name in ("nn.forward", "nn.backward", "nn.optimizer"):
        layer(name)
    # Convolutions run through the GEMM kernel, so its count covers both.
    m["nn.kernel.gflop"] = (counters["nn.gemm.flops"] / 1e9, "Gflop")
    layer("tangle.walk")
    layer("tangle.cones")
    m["tangle.cones.builds"] = (counters["tangle.view_cache.miss"], "count")
    layer("tangle.codec", serial=True)
    m["tangle.codec.ratio"] = (
        ratio(counters["ledger.codec.encoded_bytes"],
              counters["ledger.codec.raw_bytes"]), "ratio")
    layer("tangle.store", serial=True)
    m["tangle.store.dedup_hits"] = (
        counters["ledger.codec.chunk_dedup_hits"]
        + counters["store.add.deduplicated"], "count")
    layer("tangle.dag")
    layer("support.sha256", serial=True)
    sha_s = layers["support.sha256"]["self_ms"] / 1e3
    m["support.sha256.mb_per_s"] = (ratio(t["sha256_bytes"] / 1e6, sha_s),
                                    "MB/s")
    m["trace.unattributed_ms"] = (t["unattributed_ms"], "ms")
    traced_tps = sum(p["published"] for p in timed(traced)) / t["wall_ms"] * 1e3
    untraced_tps = (sum(p["published"] for p in timed(untraced))
                    / sum(p["wall_s"] for p in timed(untraced)))
    m["trace.overhead_ratio"] = (ratio(traced_tps, untraced_tps), "ratio")
    m["trace.missing_wrappers"] = (t["missing_wrappers"], "count")
    # The spans must account for the run: whatever no layer claims stays
    # within 5% of the lane capacity (wall + (lanes - 1) * parallel window).
    log.op(abs(t["unattributed_ms"]) <= 0.05 * t["capacity_ms"],
           f"trace leaves {t['unattributed_ms']:.1f} ms of "
           f"{t['capacity_ms']:.1f} ms unattributed")
    return m


# --- one run ---------------------------------------------------------------

def run_once(workload, seed, seconds, trace):
    """Returns (result JSON object, human-readable lines)."""
    bins = build()
    plain, traced = bins / "tangle_bench", bins / "tangle_bench_traced"
    log = CheckLog()
    notes = []
    if not trace:
        doc = prepare(run_driver(plain, workload, seed, seconds))
        check_run(doc, log)
        if workload == "femnist_codec":
            sub_seeds = len({p["seed"] for p in doc["passes"]})
            sync = prepare(run_driver(plain, "femnist_sync", seed, 0, 1,
                                      sub_seeds))
            check_lossless(doc, sync, log)
        values, samples = end_to_end(doc, workload, log)
        notes.append(f"{workload} seed {seed}: {len(timed(doc))} timed passes "
                     f"after a warm-up, {samples} timed rounds (p90 over "
                     f"{samples} samples)")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        # Half the time each. Both start from the first sub-seed, and the
        # sub-seeds both reach are checked against each other.
        doc = prepare(run_driver(plain, workload, seed, seconds / 2, 1, 1))
        reference = check_run(doc, log)
        tdoc = prepare(run_driver(traced, workload, seed, seconds / 2, 1, 1))
        check_run(tdoc, log, reference)
        layers = per_layer(tdoc, doc, log)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        t = tdoc["trace"]
        notes.append(f"{workload} seed {seed} traced: wall "
                     f"{t['wall_ms']:.1f} ms, lanes {tdoc['lanes']}, capacity "
                     f"{t['capacity_ms']:.1f} ms, unattributed "
                     f"{t['unattributed_ms']:.2f} ms")
    notes.extend("CHECK FAILED: " + msg for msg in log.messages)
    result = {"correct": log.failed == 0, "attempted": log.attempted,
              "failed": log.failed, "metrics": metrics}
    return result, notes


# --- repeat mode -----------------------------------------------------------

def load_bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def repeat(workload, first_seed, count, seconds, trace):
    """Runs `count` seeds and prints each metric's median, quartiles and
    spread, against a third of its bound."""
    bounds = load_bounds()
    series = {}
    for seed in range(first_seed, first_seed + count):
        result, notes = run_once(workload, seed, seconds, trace)
        for line in notes:
            print(line)
        if not result["correct"]:
            raise SystemExit(f"perfbench: seed {seed} failed its checks")
        for name, metric in result["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}"
            for name, metric in result["metrics"].items()), flush=True)
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, values in series.items():
        if len(values) < 2:
            continue
        share, q1, median, q3 = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            if share > bound:
                flag = "  ABOVE BOUND"
            elif share >= bound / 3:
                flag = "  above bound/3"
        print(f"{name:28} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{share:8.4f} {bound if bound is not None else '':>6}{flag}")


# --- self-test ---------------------------------------------------------------

def self_test():
    bins = build()
    done = subprocess.run([str(bins / "spans_selftest")])
    tests = subprocess.run([sys.executable, "-m", "unittest", "-q",
                            "test_run"], cwd=HERE)
    return 0 if done.returncode == 0 and tests.returncode == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many consecutive seeds and print "
                             "median, quartiles and spread per metric")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.repeat:
        repeat(args.workload, args.seed, args.repeat, args.seconds,
               bool(args.trace))
        return 0
    result, notes = run_once(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
