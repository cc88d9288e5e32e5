"""Self-test: every output check passes on a real output and fails on a
corrupted copy of it.  Small inputs keep it to a few seconds::

    python3 -m pytest -q ctxbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from run import run_cli  # noqa: E402

from ctxforge import capm, intent  # noqa: E402


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return str(tmp_path_factory.mktemp("ctxbench"))


def _ok(argv):
    code, out, err = run_cli(argv)
    assert checks.check_cli(code, err) == [], err
    return out


def _rewrite(out: str, edit) -> str:
    rows = [json.loads(line) for line in out.splitlines()]
    edit(rows)
    return "".join(json.dumps(r) + "\n" for r in rows)


def test_fusion_check_catches_swapped_dropped_and_query_shots(work):
    fin = inputs.make_fusion(work, 7, "t", items=120, dim=16, queries=3, k=4, top_n=30)
    out = _ok(fin.argv)
    ref = checks.fusion_reference(fin)
    assert not ref.ties
    assert checks.check_fusion(out, fin, ref) == []
    qid = fin.ids[fin.query_idx[0]]
    chosen = {s["id"] for s in json.loads(out.splitlines()[0])["shots"]}
    outsider = next(i for i in fin.ids if i not in chosen and i != qid)

    def swapped(rows):
        rows[0]["shots"][1]["id"] = outsider

    def reordered(rows):
        shots = rows[0]["shots"]
        shots[0], shots[1] = shots[1], shots[0]

    def dropped(rows):
        rows[0]["shots"].pop()

    def query_as_shot(rows):
        rows[0]["shots"][-1]["id"] = qid

    for edit in (swapped, reordered, dropped, query_as_shot):
        assert checks.check_fusion(_rewrite(out, edit), fin, ref), edit.__name__


def test_rule_check_catches_shifted_matches(work):
    rin = inputs.make_rules(work, 7, "t", scenes=200, short=2, long=1, long_clauses=4)
    outs = [_ok(case.argv) for case in rin.rules]
    expected = [checks.expected_matches(case, rin.scenes) for case in rin.rules]
    for case, out, exp in zip(rin.rules, outs, expected):
        assert checks.check_rule(out, case, exp, intent.parse_rule, intent.pretty_print) == []
    j = max(range(len(outs)), key=lambda i: len(expected[i]))
    assert len(expected[j]) >= 2

    def shifted(rows):
        shots = rows[0]["shots"]
        rows[0]["shots"] = shots[1:] + shots[:1]

    def one_short(rows):
        rows[0]["shots"].pop(0)

    for edit in (shifted, one_short):
        bad = _rewrite(outs[j], edit)
        assert checks.check_rule(bad, rin.rules[j], expected[j], intent.parse_rule, intent.pretty_print)


def test_report_check_catches_a_perturbed_value(work):
    rin = inputs.make_reports(work, 7, "t", models=1)
    expected = checks.reports_reference(rin)
    for name, argv in rin.argvs.items():
        out = _ok(argv)
        assert checks.check_report(name, out, expected[name]) == [], name
        first = json.loads(out.splitlines()[0])
        key = next(k for k, v in first.items() if isinstance(v, float))

        def perturbed(rows, key=key):
            rows[0][key] *= 1 + 1e-6

        assert checks.check_report(name, _rewrite(out, perturbed), expected[name]), name


def test_capm_checks_catch_order_dependence_and_bad_gradients():
    hyper = capm.CapmHyper(d_b=8, d_p=4, K=2, r=2, heads=2)
    rng = np.random.default_rng(3)
    params = capm.random_params(hyper, rng)
    demos = [(rng.standard_normal((4, 8)), ["user"] * 2 + ["assistant"] * 2) for _ in range(3)]
    h, y = rng.standard_normal((5, 8)), rng.standard_normal((5, 8))
    out, _ = capm.capm_forward(demos, h, y, params, hyper)
    out_perm, _ = capm.capm_forward(demos[::-1], h, y, params, hyper)
    assert checks.check_capm_order(out, out_perm) == []
    # an output that moved with demo order
    assert checks.check_capm_order(out, out_perm + 1e-6 * np.arange(out.size).reshape(out.shape))

    fresh = capm.init_params(hyper, rng)
    out_init, _ = capm.capm_forward(demos, h, y, fresh, hyper)
    assert checks.check_capm_init(out_init, y, hyper.b2_init) == []
    assert checks.check_capm_init(np.nextafter(out_init, np.inf), y, hyper.b2_init)

    assert checks.check_capm_direction(1.0, 1.0 + 1e-9) == []
    assert checks.check_capm_direction(1.0, 1.0 + 1e-4)


def test_gradcheck_check_reads_the_verdict():
    out = _ok(["capm", "gradcheck", "--d-b", "6", "--d-p", "4", "--K", "1", "--r", "1"])
    assert checks.check_gradcheck(out) == []
    assert checks.check_gradcheck(out.replace('"PASS"', '"FAIL"'))


def test_self_time_subtracts_children_and_nested_same_name_counts_once():
    rec = tracing.Recorder()
    # perf_counter readings: main, compute, inner compute (in/out), compute out, rank (in/out), main out
    clock = iter([0.0, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 6.0])

    def fake(name, children=()):
        def fn():
            for child in children:
                child()
        return lambda: rec.call(name, fn, (), {})

    orig = tracing.time.perf_counter
    tracing.time.perf_counter = lambda: next(clock)
    try:
        inner = fake("metrics.compute")
        fake("cli.main", [fake("metrics.compute", [inner]), fake("fusion.rank_top_n")])()
    finally:
        tracing.time.perf_counter = orig
    values, _ = tracing.summarize(rec)
    assert values["metrics.compute.s"] == 2.0  # the nested call is inside the outer one
    assert values["cli.self_s"] == 3.5  # 6 s minus 2 s of compute and 0.5 s of ranking
    assert values["fusion.rank_top_n.calls"] == 1

