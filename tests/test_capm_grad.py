"""Finite-difference verification of the hand-written backward pass."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from ctxforge.capm import (
    _STAGES, PARAM_FIELDS, CapmHyper, CapmTrace, _resume, capm_backward, capm_forward,
    gradient_check, random_params,
)

HYPER = CapmHyper(d_b=12, d_p=8, K=2, r=2, heads=2)


def setup(seed, n_demos=2, t_len=5, l_len=6, hyper=HYPER):
    rng = np.random.default_rng(seed)
    params = random_params(hyper, rng)
    h = rng.standard_normal((t_len, hyper.d_b))
    y = rng.standard_normal((t_len, hyper.d_b))
    demos = []
    for _ in range(n_demos):
        segs = ["user"] * (l_len // 2) + ["assistant"] * (l_len - l_len // 2)
        demos.append((rng.standard_normal((l_len, hyper.d_b)), segs))
    grad_out = rng.standard_normal(y.shape)
    return params, demos, h, y, grad_out


def test_all_tensors_match_central_differences():
    params, demos, h, y, grad_out = setup(7)
    report = gradient_check(params, HYPER, demos, h, y, grad_out)
    assert report.passed, (
        f"max_rel_err={report.max_rel_err:.3e}; "
        f"worst={max(report.per_tensor, key=report.per_tensor.get)}"
    )
    assert report.max_rel_err < 1e-4
    # the report covers every parameter tensor plus h, y, and each demo's tokens
    assert len(report.per_tensor) == 34 + 2 + len(demos)

    # demos of lengths 3, 6 and 9 with interleaved segments: the forward pads
    # them into one batch, the backward slices each d_tokens back to its demo
    hyper = CapmHyper(d_b=6, d_p=4, K=2, r=1, heads=2)
    params, _, h, y, grad_out = setup(8, n_demos=0, t_len=3, hyper=hyper)
    rng = np.random.default_rng(8)
    segments = [["assistant", "user", "assistant"], ["user", "assistant"] * 3,
                ["assistant", "user", "user"] * 3]
    demos = [(rng.standard_normal((len(segs), hyper.d_b)), segs) for segs in segments]
    _, trace = capm_forward(demos, h, y, params, hyper)
    grads = capm_backward(trace, grad_out, params, hyper)
    assert [d.shape for d in grads.d_tokens] == [tokens.shape for tokens, _ in demos]
    report = gradient_check(params, hyper, demos, h, y, grad_out)
    assert report.passed, report.per_tensor


def test_single_demo_and_single_probe_config():
    hyper = CapmHyper(d_b=6, d_p=4, K=1, r=1, heads=1)
    params, demos, h, y, grad_out = setup(3, n_demos=1, t_len=2, l_len=3, hyper=hyper)
    report = gradient_check(params, hyper, demos, h, y, grad_out, tolerance=1e-4)
    assert report.passed, report.per_tensor


def test_zero_demo_config():
    rng = np.random.default_rng(5)
    params = random_params(HYPER, rng)
    h = rng.standard_normal((3, HYPER.d_b))
    y = rng.standard_normal((3, HYPER.d_b))
    grad_out = rng.standard_normal(y.shape)
    report = gradient_check(params, HYPER, [], h, y, grad_out)
    assert report.passed


def test_default_upstream_gradient_is_ones():
    params, demos, h, y, _ = setup(9)
    _, trace = capm_forward(demos, h, y, params, HYPER)
    grads = capm_backward(trace, np.ones_like(y), params, HYPER)
    report = gradient_check(params, HYPER, demos, h, y)  # grad_out defaults to ones
    assert report.passed
    np.testing.assert_allclose(grads.d_y, trace.m, atol=1e-15)  # dy = ones * m


def test_gradcheck_flags_a_broken_gradient(monkeypatch):
    import ctxforge.capm as capm_module

    params, demos, h, y, grad_out = setup(11)
    original = capm_module.capm_backward

    def broken(trace, g, p, hyp):
        grads = original(trace, g, p, hyp)
        grads.params["psi"] = grads.params["psi"] * 1.05
        return grads

    monkeypatch.setattr(capm_module, "capm_backward", broken)
    report = capm_module.gradient_check(params, HYPER, demos, h, y, grad_out)
    assert not report.passed
    assert report.per_tensor["psi"] > 1e-3


# ---------------------------------------------------------------------------
# the stage list that the forward, the backward and the gradient check share


@pytest.mark.parametrize("lengths", [(3, 6, 9), ()], ids=["demos-3-6-9", "no-demos"])
def test_resumed_objective_equals_full_forward(lengths):
    hyper = CapmHyper(d_b=6, d_p=4, K=2, r=1, heads=2)
    params, _, h, y, grad_out = setup(12, n_demos=0, t_len=3, hyper=hyper)
    rng = np.random.default_rng(12)
    demos = [(rng.standard_normal((n, hyper.d_b)), ["assistant", "user", "user"] * (n // 3))
             for n in lengths]
    _, trace = capm_forward(demos, h, y, params, hyper)
    # a trace whose backward released its caches resumes just the same
    _, spent = capm_forward(demos, h, y, params, hyper)
    capm_backward(spent, grad_out, params, hyper)
    assert spent.caches == {}
    work = params.copy()
    inputs = {"h": h.copy(), "y": y.copy(), "demos": [(t.copy(), s) for t, s in demos]}
    bases = [dict(vars(t), **inputs) for t in (trace, spent)]
    tensors = [(getattr(work, name), name) for name in PARAM_FIELDS]
    tensors += [(inputs["h"], "h"), (inputs["y"], "y")] + [(t, "demos") for t, _ in inputs["demos"]]
    assert len(tensors) == len(PARAM_FIELDS) + 2 + len(lengths)
    for arr, name in tensors:
        flat = arr.ravel()
        for i in sorted({0, flat.size // 2, flat.size - 1}):
            orig = flat[i]
            for moved in (orig + 1e-5, orig - 1e-5):
                flat[i] = moved
                full, _ = capm_forward(inputs["demos"], inputs["h"], inputs["y"], work, hyper)
                for base in bases:
                    resumed = _resume(base, name, work, hyper)
                    assert float((grad_out * resumed).sum()) == float((grad_out * full).sum()), (
                        name, i)
                    assert np.array_equal(resumed, full), (name, i)
            flat[i] = orig


def test_each_parameter_is_read_by_exactly_one_stage():
    names = [name for stage in _STAGES for name in stage.params(HYPER)]
    assert len(names) == len(set(names))
    assert tuple(names) == PARAM_FIELDS


def test_each_stage_reads_only_inputs_and_earlier_writes():
    known = {"demos", "h", "y"}
    for stage in _STAGES:
        assert set(stage.reads) <= known, stage.name
        known |= set(stage.writes)
    # every value past the inputs fills the trace field of its name
    assert known - {"demos"} == {f.name for f in fields(CapmTrace)} - {"caches"}
