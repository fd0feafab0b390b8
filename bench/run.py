"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload train-short --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/`` next to
this directory, with BLAS pinned to one thread.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` also runs one traced set-up and round and
prints the per-layer metrics instead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and the figures behind the metrics.  Exit codes: 0
result printed, 1 no operation succeeded, 2 the program could not be
imported or set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train-short", "extract-long"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny runs a few seconds, for the smoke test")
    return p.parse_args(argv)


def import_program():
    """Import synoie from this checkout's src/, or exit 2."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    try:
        import synoie
    except ImportError as exc:
        print(f"error: cannot import synoie from {SRC_DIR}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(synoie.__file__).resolve().parent.parent != SRC_DIR:
        print(f"error: synoie imported from {synoie.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


def environment(args) -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace}


class SetupFailed(Exception):
    pass


def timed_setup(wl, setup_times: list, setup_digests: set):
    """One set-up of ``wl``; its time and input digest are appended."""
    t0 = perf_counter()
    try:
        setup_digests.add(wl.setup())
    except Exception as exc:
        traceback.print_exc()
        raise SetupFailed from exc
    setup_times.append(perf_counter() - t0)


def measure(wl, run, seconds: float, setup_times: list, setup_digests: set):
    """Warm-up rounds, then whole rounds for at most ``seconds``.

    At least one round is measured; no round is started that the longest
    round so far says would end past ``seconds``.  The remaining set-ups are
    spread over the same span, so their median does not rest on one moment
    of the host.  Warm-up outputs are checked like the others but left out of
    the metrics.
    """
    warmup = [r for r in (wl.round(run) for _ in range(wl.warmup_rounds)) if r]
    rounds, longest = [], 0.0
    t0 = perf_counter()
    while True:
        start = perf_counter()
        r = wl.round(run)
        longest = max(longest, perf_counter() - start)
        if r is not None:
            rounds.append(r)
        if len(setup_times) < wl.setup_repeats and (
                perf_counter() - t0 >= seconds * len(setup_times) / wl.setup_repeats):
            timed_setup(wl, setup_times, setup_digests)
        if perf_counter() - t0 + longest > seconds:
            return warmup, rounds


def code_fingerprint() -> str:
    """Hash of the program and benchmark sources, so stored digests go stale."""
    h = hashlib.sha256()
    for path in sorted([*SRC_DIR.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.relative_to(SRC_DIR.parent).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeatable(key: str, value: str, run):
    """Compare an output digest with the one an earlier run of this code stored."""
    path = OUT_DIR / "digests.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = f"{key}/{code_fingerprint()}"
    if key in seen:
        run.check(seen[key] == value, f"{key}: output {value} differs from "
                                      f"an earlier run's {seen[key]}")
    else:
        seen[key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, path)


def best_ops(rounds) -> list[tuple]:
    """Per operation, its fastest ``(seconds, items, tokens)`` repeat.

    Every round runs the same operations.  The host's speed drifts by up to
    a factor of two over seconds, and the fastest repeat is the one it
    disturbed least.  An operation that never succeeded is left out.
    """
    best = {}
    for r in rounds:
        for i, op in enumerate(r["ops"]):
            if op is not None and (i not in best or op[0] < best[i][0]):
                best[i] = op
    return [best[i] for i in sorted(best)]


def end_to_end(rounds, setup_times, run) -> dict:
    """End-to-end metrics from each operation's fastest repeat.

    Throughput is a round's work over the sum of those times, and the
    latency percentiles are over them.
    """
    best = best_ops(rounds)
    ops = sorted(seconds for seconds, _, _ in best)
    seconds = sum(ops)

    def op_ms(q):
        if len(ops) == 1:
            return ops[0] * 1e3
        return statistics.quantiles(ops, n=100, method="inclusive")[q - 1] * 1e3

    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "items_per_s": (sum(items for _, items, _ in best) / seconds, "1/s"),
        "tokens_per_s": (sum(tokens for _, _, tokens in best) / seconds, "1/s"),
        "op_p50_ms": (op_ms(50), "ms"),
        "op_p95_ms": (op_ms(95), "ms"),
    }


def per_layer(tracer, traced_round, untraced_rounds, probe_ms) -> dict:
    """Per-layer metrics of one traced set-up and round."""
    rnd = tracer.summary({"round"})
    setup = tracer.summary({"setup"})

    def total(name, summary=rnd):
        return summary[name]["total"] if name in summary else 0.0

    def own(name):
        return rnd[name]["self"] if name in rnd else 0.0

    def calls(name):
        return rnd[name]["calls"] if name in rnd else 0

    untraced = statistics.median(r["seconds"] for r in untraced_rounds)
    quality = traced_round["quality"]
    nodes = tracer.tape_nodes
    metrics = {
        "corpus.load_s": (total("corpus.load", setup), "s"),
        "training.checkpoint_load_s": (total("training.checkpoint_load", setup), "s"),
        "graphs.build_s": (total("graphs.build"), "s"),
        "graphs.build_calls": (calls("graphs.build"), "count"),
        "encoder.encode_s": (total("encoder.encode"), "s"),
        "gcn.label_embed_s": (total("gcn.label_embed"), "s"),
        "gcn.layer_const_s": (total("gcn.layer_const"), "s"),
        "gcn.layer_dep_s": (total("gcn.layer_dep"), "s"),
        "gcn.aggregate_s": (total("gcn.aggregate"), "s"),
        "tagger.tag_logits_s": (total("tagger.tag_logits"), "s"),
        "tagger.decode_s": (total("tagger.decode"), "s"),
        "losses.ce_s": (total("losses.ce"), "s"),
        "losses.r1_s": (total("losses.r1"), "s"),
        "losses.r2_s": (total("losses.r2"), "s"),
        "losses.r3_s": (total("losses.r3"), "s"),
        "model.instance_losses_s": (total("model.instance_losses"), "s"),
        "model.instance_losses_self_s": (own("model.instance_losses"), "s"),
        "model.instance_losses_calls": (calls("model.instance_losses"), "count"),
        "model.predict_s": (total("model.predict"), "s"),
        "model.predict_self_s": (own("model.predict"), "s"),
        "model.predict_calls": (calls("model.predict"), "count"),
        "model.predict_ms.n10": (probe_ms[10], "ms"),
        "model.predict_ms.n40": (probe_ms[40], "ms"),
        "model.predict_ms.n160": (probe_ms[160], "ms"),
        "autodiff.backward_s": (total("autodiff.backward"), "s"),
        "autodiff.backward_calls": (calls("autodiff.backward"), "count"),
        "autodiff.adam_s": (total("autodiff.adam"), "s"),
        "autodiff.tape_nodes_per_instance": (sum(nodes) / len(nodes) if nodes else 0.0,
                                             "count"),
        "training.train_self_s": (own("training.train"), "s"),
        "training.dev_eval_s": (total("training.dev_eval"), "s"),
        "training.dev_eval_self_s": (own("training.dev_eval"), "s"),
        "training.extract_corpus_self_s": (own("training.extract_corpus"), "s"),
        "training.loss_final": (quality.get("training.loss_final", 0.0), "nat"),
        "evaluation.score_s": (total("evaluation.score"), "s"),
        "evaluation.exact_f1": (quality.get("evaluation.exact_f1", 0.0), "ratio"),
        "evaluation.lexical_f1": (quality.get("evaluation.lexical_f1", 0.0), "ratio"),
        "trace.round_s": (traced_round["seconds"], "s"),
        "trace.untraced_round_s": (untraced, "s"),
        "trace.overhead_pct": ((traced_round["seconds"] / untraced - 1) * 100, "%"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.failed_spans": (sum(s["errors"] for s in rnd.values()), "count"),
    }
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    from tracing import Tracer

    sizes = workloads.SIZES[args.size]
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-{args.size}-t{args.trace}"
    run = workloads.Run()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, sizes, Path(tmp))
        setup_times, setup_digests = [], set()
        try:
            timed_setup(wl, setup_times, setup_digests)
            warmup, rounds = measure(wl, run, args.seconds, setup_times, setup_digests)
        except SetupFailed:
            print("error: the workload could not be set up", file=sys.stderr)
            return 2
        run.check(len(setup_digests) == 1, "repeated set-ups gave different inputs")
        if not rounds:
            print(f"error: all {run.attempted} operations failed: {run.errors}",
                  file=sys.stderr)
            return 1
        digests = {r["digest"] for r in warmup + rounds}
        run.check(len(digests) == 1, f"repeated rounds gave different outputs {digests}")
        check_repeatable(f"{args.workload}/{args.seed}/{args.size}",
                         rounds[0]["digest"], run)
        details = {"setup_s": setup_times, "rounds": len(rounds),
                   "round_s": [r["seconds"] for r in rounds],
                   "op_best_s": [op[0] for op in best_ops(rounds)],
                   "quality": rounds[0]["quality"], "errors": run.errors,
                   "problems": run.problems}

        if args.trace:
            tracer = Tracer()
            with tracer:
                run.check(wl.setup() in setup_digests, "tracing changed the set-up")
                tracer.phase = "round"
                traced = wl.round(run)
            tracer.write(OUT_DIR / f"trace-{tag}.jsonl")
            if traced is None:
                print("error: the traced round failed", file=sys.stderr)
                return 1
            run.check(traced["digest"] == rounds[0]["digest"],
                      "tracing changed the outputs")
            probe = workloads.predict_probe(args.seed, sizes.probe_reps, Path(tmp))
            metrics = per_layer(tracer, traced, rounds, probe)
            counted = tracer.summary({"round"})
            for name, calls in traced["calls"].items():
                run.check(counted[name]["calls"] == calls,
                          f"{counted[name]['calls']} {name} calls, {calls} expected")
        else:
            metrics = end_to_end(rounds, setup_times, run)

    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {"environment": environment(args), "details": details, **result}, indent=1))
    print(json.dumps({"environment": environment(args), "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
