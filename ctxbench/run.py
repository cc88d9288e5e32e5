"""ctxforge benchmark: four workloads over retrieve, rules/reports and CAPM.

Usage (from the repository root)::

    python3 ctxbench/run.py --workload retrieve-many-queries --seed 1 --seconds 20 --trace 0
    python3 ctxbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One process runs one workload as a closed loop with a single caller.  The
inputs are generated from ``--seed`` at set-up; the program only reads the
generated files (and, for the CAPM steps, arrays handed to its public
functions).  ``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run, in which every
operation also runs once untraced so the tracing overhead is measured.  The
last stdout line is the result object; ``--workload all`` runs each workload
in a fresh process, one after the other.  See README.md for what each
workload stresses and how the metrics map onto each other.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned to one before numpy loads: within nproc anywhere,
# and the BLAS-bound CAPM steps do not compete for a second core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Input sizes.  Each workload makes one kind of work large and runs the
# others at a small fixed size, so every metric exists on every workload
# while a different layer dominates each.
FUSION_MANY = dict(items=1500, dim=64, queries=50, k=4, top_n=50)
FUSION_WIDE = dict(items=1500, dim=256, queries=6, k=32, top_n=1000)
FUSION_SMALL = dict(items=300, dim=32, queries=5, k=4, top_n=50)
RULES_MAIN = dict(scenes=3000, short=3, long=3, long_clauses=24)
RULES_SMALL = dict(scenes=300, short=2, long=1, long_clauses=8)
REPORTS_MAIN = dict(models=12)
REPORTS_SMALL = dict(models=2)

# round: ops of each kind per round, spread evenly through it; untraced runs
# repeat whole rounds until --seconds is used up, the traced run makes
# TRACE_ROUNDS of them and then one gradcheck.  load: the workload's main
# input, which each ``setup`` op loads once and whose load time is setup_s.
WORKLOADS = {
    "retrieve-many-queries": dict(
        fusion=FUSION_MANY, rules=RULES_SMALL, reports=REPORTS_SMALL, load="store",
        round={"fusion": 2, "setup": 2, "rules": 8, "reports": 8, "step": 12}),
    "retrieve-wide-pool": dict(
        fusion=FUSION_WIDE, rules=RULES_SMALL, reports=REPORTS_SMALL, load="store",
        round={"fusion": 3, "setup": 1, "rules": 6, "reports": 6, "step": 8}),
    "rules-and-reports": dict(
        fusion=FUSION_SMALL, rules=RULES_MAIN, reports=REPORTS_MAIN, load="metadata",
        round={"rules": 3, "reports": 8, "setup": 8, "fusion": 8, "step": 16}),
    "capm": dict(
        fusion=FUSION_SMALL, rules=RULES_SMALL, reports=REPORTS_SMALL, load="params",
        round={"step": 60, "setup": 20, "fusion": 8, "rules": 10, "reports": 10}),
}
TRACE_ROUNDS = 2
KIND_ORDER = ("setup", "fusion", "rules", "reports", "step", "gradcheck")
# A gradcheck at CLI defaults takes ~3 s, so only two or three fit in an
# untraced run and their median spread by 13-36% across seeds: no end-to-end
# metric could rest on it.  It runs once in the traced run, for the
# capm.gradient_check.* layer metrics.


def round_order(counts: dict[str, int]) -> list[str]:
    """One round's ops with each kind's ops spread evenly through it."""
    slots = sorted(((i + 0.5) / c, n, kind) for n, (kind, c) in enumerate(counts.items()) for i in range(c))
    return [kind for _, _, kind in slots]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``ctxforge.cli.main`` in-process; returns (exit code, stdout, stderr)."""
    from ctxforge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Session:
    """One workload in one process: inputs, operations, samples and checks."""

    def __init__(self, workload: str, seed: int, workdir: str, tracer=None) -> None:
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[str, object] = {}  # first timed output of each kind
        # op intervals (perf_counter start, end), untraced and traced
        self.intervals: dict[str, list[tuple[float, float]]] = {k: [] for k in KIND_ORDER}
        self.traced: dict[str, list[tuple[float, float]]] = {k: [] for k in KIND_ORDER}

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        from ctxforge import capm

        spec, seed, wd = self.spec, self.seed, self.workdir
        self.fusion = inputs.make_fusion(wd, seed, "main", **spec["fusion"])
        self.rules = inputs.make_rules(wd, seed, "main", **spec["rules"])
        self.reports = inputs.make_reports(wd, seed, "main", **spec["reports"])
        self.capm_in = inputs.make_capm(wd, seed)
        self.hyper = capm.CapmHyper(**self.capm_in.hyper_kwargs)
        params = capm.random_params(self.hyper, inputs.stream(seed, "capm-params"))
        capm.save_params(params, self.hyper, self.capm_in.params_file)
        self.params, _ = capm.load_params(self.capm_in.params_file)

    # -- operations ---------------------------------------------------------

    def _cli(self, argv: list[str]) -> tuple[int, str, str]:
        self.attempted += 1
        try:
            code, out, err = run_cli(argv)
        except Exception:  # an escaped exception is a failed operation, not a crash
            code, out, err = -1, "", traceback.format_exc()
        if checks.check_cli(code, err):  # non-zero exit or a traceback
            self.failed += 1
        return code, out, err

    def _load(self):
        """Load the workload's main input, as a command does before its work;
        returns the number of records loaded."""
        from ctxforge import capm, records

        self.attempted += 1
        try:
            kind = self.spec["load"]
            if kind == "store":
                return len(records.load_embeddings(self.fusion.store, normalize=True))
            if kind == "metadata":
                return len(records.load_metadata(self.rules.metadata))
            return len(capm.load_params(self.capm_in.params_file)[0].as_dict())
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None

    def _op(self, kind: str):
        if kind == "setup":
            return [self._load()]
        if kind == "fusion":
            return [self._cli(self.fusion.argv)]
        if kind == "rules":
            return [self._cli(case.argv) for case in self.rules.rules]
        if kind == "reports":
            return [self._cli(argv) for argv in self.reports.argvs.values()]
        if kind == "gradcheck":
            return [self._cli(self.capm_in.gradcheck_argv)]
        return [self._step()]

    def _step(self):
        from ctxforge import capm

        c = self.capm_in
        self.attempted += 1
        try:
            y_prime, trace = capm.capm_forward(c.demos, c.h, c.y, self.params, self.hyper)
            grads = capm.capm_backward(trace, c.grad_out, self.params, self.hyper)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        return (y_prime.tobytes(), *(grads.params[n].tobytes() for n in sorted(grads.params)),
                grads.d_h.tobytes(), grads.d_y.tobytes(), *(t.tobytes() for t in grads.d_tokens))

    def units_per_op(self, kind: str) -> int:
        return {"fusion": len(self.fusion.query_idx), "rules": len(self.rules.rules),
                "reports": self.reports.rows_per_round, "step": 1}[kind]

    def _same_as_reference(self, kind: str, result) -> None:
        """Outputs must be byte-identical across repeats within a run: CLI exit
        code and stdout, a step's output and gradients, or the number of
        records a load returns."""
        if kind in ("step", "setup"):
            if result is None:  # a failed step or load is counted in ``failed``
                return
        else:
            result = [r[:2] for r in result]
        if kind not in self.reference:
            self.reference[kind] = result
        elif result != self.reference[kind]:
            self.errors.append(f"{kind}: output differs between repeats")

    def timed(self, kind: str, rec=None) -> None:
        """One op, timed; with a recorder, traced inside an ``op.<kind>`` span."""
        gc.collect()  # garbage of the previous op is not this op's cost
        t0 = time.perf_counter()
        result = rec.span(f"op.{kind}", self._op, kind) if rec else self._op(kind)
        t1 = time.perf_counter()
        (self.traced if rec else self.intervals)[kind].append((t0, t1))
        self._same_as_reference(kind, result[0] if kind in ("step", "setup") else result)

    # -- measurement plans ---------------------------------------------------

    def measure(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` have passed, and at least two, so
        that every kind has a timed op after its first."""
        order = round_order(self.spec["round"])
        deadline = time.perf_counter() + seconds
        for rounds in itertools.count(1):
            for kind in order:
                self.timed(kind)
            if rounds >= 2 and time.perf_counter() >= deadline:
                return

    def measure_traced(self, rec) -> None:
        """A fixed number of rounds and one gradcheck, so the counts repeat
        exactly; each op runs once traced and once untraced, and the
        difference of the two passes is the tracing overhead."""
        order = round_order(self.spec["round"]) * TRACE_ROUNDS + ["gradcheck"]
        for run_id, kind in enumerate(order, start=1):
            # alternate which pass goes first, so neither gains from the other's warm caches
            for traced in (False, True) if run_id % 2 else (True, False):
                if traced:
                    self.tracer.install()
                    rec.run_id = run_id
                    self.timed(kind, rec)
                    self.tracer.uninstall()
                else:
                    self.timed(kind)

    # -- checks --------------------------------------------------------------

    def check(self) -> list[str]:
        from ctxforge import capm, intent

        errors = list(self.errors)
        if self.failed:
            errors.append(f"{self.failed} of {self.attempted} operations failed")
        ref = self.reference
        fref = checks.fusion_reference(self.fusion)
        self.ties = len(fref.ties)
        errors += checks.check_fusion(ref["fusion"][0][1], self.fusion, fref)
        for case, (_, out) in zip(self.rules.rules, ref["rules"]):
            expected = checks.expected_matches(case, self.rules.scenes)
            errors += checks.check_rule(out, case, expected, intent.parse_rule, intent.pretty_print)
        expected = checks.reports_reference(self.reports)
        for name, (_, out) in zip(self.reports.argvs, ref["reports"]):
            errors += checks.check_report(name, out, expected[name])
        if "gradcheck" in ref:
            errors += checks.check_gradcheck(ref["gradcheck"][0][1])

        c, hyper, params = self.capm_in, self.hyper, self.params
        rng = inputs.stream(self.seed, "capm-checks")
        y_prime, trace = capm.capm_forward(c.demos, c.h, c.y, params, hyper)
        perm = rng.permutation(len(c.demos))
        y_perm, _ = capm.capm_forward([c.demos[i] for i in perm], c.h, c.y, params, hyper)
        errors += checks.check_capm_order(y_prime, y_perm)
        fresh = capm.init_params(hyper, rng)
        y_init, _ = capm.capm_forward(c.demos, c.h, c.y, fresh, hyper)
        errors += checks.check_capm_init(y_init, c.y, hyper.b2_init)
        fd, analytic = capm_directional(capm, c, params, hyper, trace, rng)
        errors += checks.check_capm_direction(fd, analytic)
        return errors


def capm_directional(capm, c, params, hyper, trace, rng):
    """Finite difference of ``sum(grad_out * y')`` along one random direction
    over every parameter and input, and the analytic directional derivative.

    The direction has norm ~700, so a plain central difference at ``eps``
    carries an O(eps^2) truncation error of up to ~4e-6 relative on some
    seeds.  Richardson extrapolation of the central differences at ``eps``
    and ``eps / 2`` cancels that term; what is left, mostly rounding, stayed
    below 6e-7 relative over 240 seeds."""
    eps = 1e-6

    grads = capm.capm_backward(trace, c.grad_out, params, hyper)
    p = params.as_dict()
    v_p = {n: rng.standard_normal(a.shape) for n, a in p.items()}
    v_h, v_y = rng.standard_normal(c.h.shape), rng.standard_normal(c.y.shape)
    v_t = [rng.standard_normal(t.shape) for t, _ in c.demos]

    def f(step):
        moved = capm.CapmParams(**{n: a + step * v_p[n] for n, a in p.items()})
        demos = [(t + step * v, s) for (t, s), v in zip(c.demos, v_t)]
        out, _ = capm.capm_forward(demos, c.h + step * v_h, c.y + step * v_y, moved, hyper)
        return float((c.grad_out * out).sum())

    def central(h):
        return (f(h) - f(-h)) / (2.0 * h)

    fd = (4.0 * central(eps / 2.0) - central(eps)) / 3.0
    analytic = sum(float((grads.params[n] * v_p[n]).sum()) for n in p)
    analytic += float((grads.d_h * v_h).sum()) + float((grads.d_y * v_y).sum())
    analytic += sum(float((g * v).sum()) for g, v in zip(grads.d_tokens, v_t))
    return fd, analytic


# ---------------------------------------------------------------------------
# results


def environment() -> dict:
    import numpy as np
    import scipy
    from ctxforge import fusion

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "greedy_backend": getattr(fusion, "KERNEL_BACKEND", None),
    }


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(s: Session, peak_rss_mb: float) -> dict[str, float]:
    # The first op of each kind pays first-call imports and cold caches, so
    # it is left out.  Rates are work done over time busy, not 1 / median: a
    # shared host can switch for seconds at a time between two speeds up to
    # 1.8x apart, and the median of such a mix jumps from one speed to the
    # other as the fast share of a run crosses a half; the total moves in
    # proportion to that share.
    busy = {k: [t1 - t0 for t0, t1 in v[1:]] for k, v in s.intervals.items() if v}

    def rate(kind: str) -> float:
        return s.units_per_op(kind) * len(busy[kind]) / sum(busy[kind])

    return {
        "setup_s": statistics.median(busy["setup"]),
        "peak_rss_mb": peak_rss_mb,
        "retrieve.queries_per_s": rate("fusion"),
        "rules.per_s": rate("rules"),
        "reports.rows_per_s": rate("reports"),
        "capm.steps_per_s": rate("step"),
    }


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    e2e_units, layer_units = declared_metrics()
    workdir = os.path.join(HERE, "_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    outdir = os.path.join(HERE, "_out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    rec = tracing.Recorder()
    tracer = tracing.Tracer(rec) if args.trace else None
    try:
        session = Session(args.workload, args.seed, workdir, tracer)
        if tracer:
            tracer.install()
            rec.span("op.setup", session.setup)
            tracer.uninstall()
        else:
            session.setup()
        if tracer:
            session.measure_traced(rec)
        else:
            session.measure(args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = session.check()
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    extra: dict = {}
    if args.trace:
        values, shares = tracing.summarize(rec)
        # each op ran traced and untraced back to back: the median ratio of the
        # pairs, applied to the untraced total, is robust to host-speed swings
        pairs = [(u1 - u0, t1 - t0) for k in KIND_ORDER
                 for (u0, u1), (t0, t1) in zip(session.intervals[k], session.traced[k])]
        untraced = sum(t1 - t0 for v in session.intervals.values() for t0, t1 in v)
        values["trace.overhead_s"] = (statistics.median(t / u for u, t in pairs) - 1.0) * untraced
        units = layer_units
        extra["layer_shares"] = shares
        extra["untraced_s"] = untraced
        rec.write_spans(os.path.join(outdir, f"spans-{args.workload}-s{args.seed}.jsonl"))
    else:
        values = end_to_end(session, peak)
        units = e2e_units
    if set(values) != set(units):
        raise SystemExit(f"metric names drifted from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    result = {
        "correct": not errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "errors": errors, "near_ties": session.ties,
              "intervals": session.intervals,
              **extra,
              **result}
    with open(os.path.join(outdir, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"env: {json.dumps(env)}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if args.trace:
        print("layer self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in extra["layer_shares"].items()),
              file=sys.stderr)
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            if not lines:
                continue
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ctxforge", "__init__.py")):
        print(f"ctxbench: no ctxforge sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
