"""Context-modulation pipeline: stage semantics, invariants, serialization."""

from __future__ import annotations

import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf, expit

from ctxforge import capm
from ctxforge.capm import (
    CapmHyper,
    CapmParams,
    STAGE_ORDER,
    capm_backward,
    capm_forward,
    forward_diagnostics,
    init_params,
    load_params,
    random_params,
    save_params,
)
from ctxforge.errors import ValidationError
from ctxforge.records import read_vector_block

HYPER = CapmHyper(d_b=12, d_p=8, K=2, r=2, heads=2)

SIGMOID_4 = 0.9820137900379085


def make_inputs(rng, hyper=HYPER, t_len=5, n_demos=2, l_len=6):
    h = rng.standard_normal((t_len, hyper.d_b))
    y = rng.standard_normal((t_len, hyper.d_b))
    demos = []
    for _ in range(n_demos):
        segs = ["user"] * (l_len // 2) + ["assistant"] * (l_len - l_len // 2)
        demos.append((rng.standard_normal((l_len, hyper.d_b)), segs))
    return demos, h, y


# ---------------------------------------------------------------------------
# monolithic oracle: the whole forward pass as one flat function, written with
# scalar loops instead of einsum so a shared blind spot is unlikely


def oracle_forward(demos, h, y, p, hyper):
    def gelu(x):
        return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))

    def layernorm(row, gain, bias):
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        return (row - mu) / math.sqrt(var + 1e-6) * gain + bias

    def attention(q_rows, kv_rows, wq, wk, wv, wo, heads, mask=None):
        d = q_rows.shape[1]
        dh = d // heads
        q = q_rows @ wq
        k = kv_rows @ wk
        v = kv_rows @ wv
        out_rows = []
        for i in range(q_rows.shape[0]):
            concat = []
            for head in range(heads):
                sl = slice(head * dh, (head + 1) * dh)
                logits = []
                for j in range(kv_rows.shape[0]):
                    if mask is not None and not mask[i, j]:
                        logits.append(-np.inf)
                    else:
                        logits.append(float(q[i, sl] @ k[j, sl]) / math.sqrt(dh))
                logits = np.array(logits)
                w = np.exp(logits - logits[np.isfinite(logits)].max())
                w[~np.isfinite(logits)] = 0.0
                w = w / w.sum()
                concat.append(sum(w[j] * v[j, sl] for j in range(kv_rows.shape[0])))
            out_rows.append(np.concatenate(concat))
        return np.array(out_rows) @ wo

    # stage 1+2 per demo
    slots_all, z_list = [], []
    for tokens, segments in demos:
        xp = np.asarray(tokens) @ p["w_in"]
        n_q = hyper.K + 2
        mask = np.ones((n_q, len(segments)), dtype=bool)
        for j, s in enumerate(segments):
            mask[0, j] = s == "user"
            mask[1, j] = s == "assistant"
        slot_rows = attention(
            p["queries"], xp, p["enc_wq"], p["enc_wk"], p["enc_wv"], p["enc_wo"], hyper.heads, mask
        )
        c_in, c_out, context = slot_rows[0], slot_rows[1], slot_rows[2:]
        slots_all.append((c_in, c_out, context))
        cn = np.array(
            [row / math.sqrt((row * row).mean() + 1e-6) * p["rms_gain"] for row in context]
        )
        g = cn.mean(axis=0)
        cat = np.concatenate([c_in, c_out, c_out - c_in, c_in * c_out])
        phi = layernorm(cat, p["phi_ln_gain"], p["phi_ln_bias"])
        out = gelu(phi @ p["hcoef_w1"] + p["hcoef_b1"]) @ p["hcoef_w2"] + p["hcoef_b2"]
        rdp = hyper.r * hyper.d_p
        u = out[:rdp].reshape(hyper.r, hyper.d_p)
        v = out[rdp : 2 * rdp].reshape(hyper.r, hyper.d_p)
        alpha = out[2 * rdp :]
        z = g.copy()
        for kk in range(hyper.r):
            a_k = p["u_base"][kk] * u[kk]
            b_k = p["v_base"][kk] * v[kk]
            z = z + hyper.eta * alpha[kk] * float(b_k @ g) * a_k
        z_list.append(z)

    # stage 3
    zs = np.array(z_list)
    ln_rows = np.array([layernorm(r, p["int_ln_gain"], p["int_ln_bias"]) for r in zs])
    z_hat = zs + attention(
        ln_rows, ln_rows, p["int_wq"], p["int_wk"], p["int_wv"], p["int_wo"], hyper.heads
    )

    # stage 4: bank + route
    rows, kinds = [], []
    for i, (c_in, c_out, context) in enumerate(slots_all):
        rows.append(z_hat[i]); kinds.append(0)
        rows.append(c_in); kinds.append(1)
        rows.append(c_out); kinds.append(2)
        for kk in range(hyper.K):
            rows.append(context[kk]); kinds.append(3)
    bank = []
    for row, kind in zip(rows, kinds):
        cal = row * p["cal_scale"][kind] + p["cal_shift"][kind]
        bank.append(cal / np.linalg.norm(cal))
    bank = np.array(bank)

    z_pool = z_hat.mean(axis=0)
    tval = (gelu(z_pool @ p["tau_w1"] + p["tau_b1"]) @ p["tau_w2"] + p["tau_b2"]).item()
    tau = hyper.tau_min + (hyper.tau_max - hyper.tau_min) / (1.0 + math.exp(-tval))
    context_rows = []
    for t in range(h.shape[0]):
        q = h[t] @ p["psi"]
        q = q / np.linalg.norm(q)
        logits = bank @ q / tau
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        context_rows.append(w @ bank)
    context = np.array(context_rows)

    # stage 5: gate
    y_prime = np.empty_like(y)
    for t in range(h.shape[0]):
        xg = np.concatenate([layernorm(h[t], p["gate_ln_gain"], p["gate_ln_bias"]), context[t]])
        hid = gelu(xg @ p["gate_w1"] + p["gate_b1"])
        m = 1.0 / (1.0 + np.exp(-(hid @ p["gate_w2"] + p["gate_b2"])))
        y_prime[t] = y[t] * m
    return y_prime


# demos of lengths 3, 6 and 9 whose segments interleave: the batched forward
# pads them to one length and masks the padding
INTERLEAVED = [
    ["assistant", "user", "assistant"],
    ["user", "assistant"] * 3,
    ["assistant", "user", "user"] * 3,
]


def test_full_pipeline_matches_monolithic_oracle():
    rng = np.random.default_rng(123)
    params = random_params(HYPER, rng)
    demos, h, y = make_inputs(rng, n_demos=3)
    unequal = [(rng.standard_normal((len(segs), HYPER.d_b)), segs) for segs in INTERLEAVED]
    for demo_set in (demos, unequal):
        y_impl, _ = capm_forward(demo_set, h, y, params, HYPER)
        y_oracle = oracle_forward(demo_set, h, y, params.as_dict(), HYPER)
        np.testing.assert_allclose(y_impl, y_oracle, atol=1e-9)


# ---------------------------------------------------------------------------
# initialization identity


class TestInitIdentity:
    def test_output_is_sigmoid_b2_times_y(self):
        rng = np.random.default_rng(0)
        params = init_params(HYPER, rng)
        demos, h, y = make_inputs(rng)
        y_prime, trace = capm_forward(demos, h, y, params, HYPER)
        np.testing.assert_allclose(y_prime, expit(4.0) * y, atol=1e-6)
        assert trace.m == pytest.approx(SIGMOID_4, abs=1e-12)

    def test_identical_across_demo_sets(self):
        rng = np.random.default_rng(1)
        params = init_params(HYPER, rng)
        demos_a, h, y = make_inputs(rng, n_demos=1)
        demos_b, _, _ = make_inputs(rng, n_demos=4, l_len=8)
        out_a, _ = capm_forward(demos_a, h, y, params, HYPER)
        out_b, _ = capm_forward(demos_b, h, y, params, HYPER)
        np.testing.assert_allclose(out_a, out_b, atol=1e-12)

    def test_zero_demos_same_at_init(self):
        rng = np.random.default_rng(2)
        params = init_params(HYPER, rng)
        demos, h, y = make_inputs(rng)
        out_k, _ = capm_forward(demos, h, y, params, HYPER)
        out_0, trace_0 = capm_forward([], h, y, params, HYPER)
        np.testing.assert_allclose(out_k, out_0, atol=1e-12)
        assert trace_0.tau is None
        assert trace_0.weights.shape == (h.shape[0], 0)
        np.testing.assert_array_equal(trace_0.context, 0.0)


# ---------------------------------------------------------------------------
# stage behavior, read from the trace of the composed forward


def encode(tokens, segments, params):
    """One demo's slot rows: ``c_in``, ``c_out``, then the ``K`` context rows."""
    h = np.random.default_rng(0).standard_normal((2, HYPER.d_b))
    _, trace = capm_forward([(tokens, segments)], h, h, params, HYPER)
    return trace.slots[0]


class TestEncode:
    def test_assistant_tokens_never_reach_c_in(self):
        rng = np.random.default_rng(3)
        params = random_params(HYPER, rng)
        tokens = rng.standard_normal((6, HYPER.d_b))
        segs = ["user"] * 3 + ["assistant"] * 3
        base = encode(tokens, segs, params)
        mutated = tokens.copy()
        mutated[3:] = rng.standard_normal((3, HYPER.d_b))
        changed = encode(mutated, segs, params)
        np.testing.assert_array_equal(base[0], changed[0])  # c_in, exact
        assert not np.allclose(base[1], changed[1])

    def test_user_tokens_never_reach_c_out(self):
        rng = np.random.default_rng(4)
        params = random_params(HYPER, rng)
        tokens = rng.standard_normal((5, HYPER.d_b))
        segs = ["user", "user", "assistant", "assistant", "assistant"]
        base = encode(tokens, segs, params)
        mutated = tokens.copy()
        mutated[:2] = rng.standard_normal((2, HYPER.d_b))
        changed = encode(mutated, segs, params)
        np.testing.assert_array_equal(base[1], changed[1])  # c_out, exact
        assert not np.allclose(base[0], changed[0])

    def test_context_probes_see_everything(self):
        rng = np.random.default_rng(5)
        params = random_params(HYPER, rng)
        tokens = rng.standard_normal((4, HYPER.d_b))
        segs = ["user", "user", "assistant", "assistant"]
        base = encode(tokens, segs, params)
        mutated = tokens.copy()
        mutated[0] += 1.0
        assert not np.allclose(base[2:], encode(mutated, segs, params)[2:])

    def test_single_segment_demo_rejected(self):
        rng = np.random.default_rng(6)
        params = random_params(HYPER, rng)
        tokens = rng.standard_normal((3, HYPER.d_b))
        with pytest.raises(ValidationError, match="zero tokens"):
            encode(tokens, ["user", "user", "user"], params)

    def test_unknown_label_rejected(self):
        rng = np.random.default_rng(6)
        params = random_params(HYPER, rng)
        tokens = rng.standard_normal((2, HYPER.d_b))
        with pytest.raises(ValidationError, match="segments"):
            encode(tokens, ["user", "system"], params)


class TestModulate:
    def test_equals_materialized_dense_operator(self):
        rng = np.random.default_rng(7)
        params = random_params(HYPER, rng)
        demos, h, y = make_inputs(rng, n_demos=1)
        _, trace = capm_forward(demos, h, y, params, HYPER)
        c_in, c_out, context = trace.slots[0, 0], trace.slots[0, 1], trace.slots[0, 2:]
        z = trace.z[0]

        # materialize: z = g + eta * A^T diag(alpha) B g with A, B from the head
        cn = context / np.sqrt((context**2).mean(axis=1, keepdims=True) + 1e-6)
        g = (cn * params.rms_gain).mean(axis=0)
        cat = np.concatenate([c_in, c_out, c_out - c_in, c_in * c_out])
        mu, var = cat.mean(), cat.var()
        phi = (cat - mu) / np.sqrt(var + 1e-6) * params.phi_ln_gain + params.phi_ln_bias
        pre = phi @ params.hcoef_w1 + params.hcoef_b1
        hid = 0.5 * pre * (1.0 + erf(pre / np.sqrt(2.0)))
        out = hid @ params.hcoef_w2 + params.hcoef_b2
        rdp = HYPER.r * HYPER.d_p
        a = params.u_base * out[:rdp].reshape(HYPER.r, HYPER.d_p)
        b = params.v_base * out[rdp : 2 * rdp].reshape(HYPER.r, HYPER.d_p)
        alpha = out[2 * rdp :]
        dense = HYPER.eta * a.T @ np.diag(alpha) @ b  # (d_p, d_p) operator
        np.testing.assert_allclose(z, g + dense @ g, atol=1e-9)


class TestInteract:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        params = random_params(HYPER, rng)
        demos, h, y = make_inputs(rng, n_demos=5)
        perm = rng.permutation(5)
        _, trace = capm_forward(demos, h, y, params, HYPER)
        _, trace_perm = capm_forward([demos[i] for i in perm], h, y, params, HYPER)
        np.testing.assert_allclose(trace_perm.z_hat, trace.z_hat[perm], atol=1e-12)


class TestBankAndRoute:
    def test_bank_rows_unit_norm_and_layout(self):
        rng = np.random.default_rng(9)
        params = random_params(HYPER, rng)
        demos, h, y = make_inputs(rng, n_demos=3)
        _, trace = capm_forward(demos, h, y, params, HYPER)
        bank = trace.bank
        assert bank.shape == (3 * (HYPER.K + 3), HYPER.d_p)
        np.testing.assert_allclose(np.linalg.norm(bank, axis=1), 1.0, atol=1e-12)

    def test_bank_empty_for_zero_demos(self):
        rng = np.random.default_rng(9)
        params = random_params(HYPER, rng)
        _, h, y = make_inputs(rng)
        _, trace = capm_forward([], h, y, params, HYPER)
        assert trace.bank.shape == (0, HYPER.d_p)

    def test_routing_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            params = random_params(HYPER, rng)
            demos, h, y = make_inputs(rng, n_demos=int(rng.integers(1, 5)))
            _, trace = capm_forward(demos, h, y, params, HYPER)
            np.testing.assert_allclose(trace.weights.sum(axis=1), 1.0, atol=1e-6)

    def test_tau_strictly_inside_bounds(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            params = random_params(HYPER, rng)
            demos, h, y = make_inputs(rng, n_demos=int(rng.integers(1, 4)))
            _, trace = capm_forward(demos, h, y, params, HYPER)
            assert HYPER.tau_min < trace.tau < HYPER.tau_max

    def test_context_rows_live_in_bank_hull(self):
        rng = np.random.default_rng(12)
        params = random_params(HYPER, rng)
        demos, h, y = make_inputs(rng, n_demos=2)
        _, trace = capm_forward(demos, h, y, params, HYPER)
        # every context row is a convex combination of bank rows
        recon = trace.weights @ trace.bank
        np.testing.assert_allclose(trace.context, recon, atol=1e-12)


class TestGate:
    def test_gate_is_elementwise_and_bounded(self):
        rng = np.random.default_rng(13)
        params = random_params(HYPER, rng)
        demos, h, y = make_inputs(rng)
        y_prime, trace = capm_forward(demos, h, y, params, HYPER)
        assert np.all((trace.m > 0.0) & (trace.m < 1.0))
        np.testing.assert_allclose(y_prime, y * trace.m, atol=1e-15)


# ---------------------------------------------------------------------------
# global invariants


class TestDemoOrderInvariance:
    def test_output_invariant_under_demo_permutation(self):
        rng = np.random.default_rng(15)
        for trial in range(100):
            hyper = CapmHyper(
                d_b=int(rng.integers(4, 13)),
                d_p=2 * int(rng.integers(2, 5)),
                K=int(rng.integers(1, 4)),
                r=int(rng.integers(1, 3)),
                heads=2,
            )
            params = random_params(hyper, rng)
            n = int(rng.integers(2, 5))
            demos, h, y = make_inputs(rng, hyper=hyper, t_len=3, n_demos=n, l_len=4)
            perm = rng.permutation(n)
            out, _ = capm_forward(demos, h, y, params, hyper)
            out_perm, _ = capm_forward([demos[i] for i in perm], h, y, params, hyper)
            np.testing.assert_allclose(out_perm, out, atol=1e-9)


class TestBackwardSpotChecks:
    def test_b2_gradient_at_init_matches_hand_chain_rule(self):
        rng = np.random.default_rng(16)
        params = init_params(HYPER, rng)
        demos, h, y = make_inputs(rng)
        y_prime, trace = capm_forward(demos, h, y, params, HYPER)
        grads = capm_backward(trace, np.ones_like(y), params, HYPER)
        # with W2 = 0: m = sigmoid(b2), so d(sum Y')/db2_j = sigma'(b2_j) * sum_t Y_tj
        expected = expit(4.0) * (1.0 - expit(4.0)) * y.sum(axis=0)
        np.testing.assert_allclose(grads.gate_b2, expected, atol=1e-12)

    def test_zero_upstream_gradient_zeroes_everything(self):
        rng = np.random.default_rng(17)
        params = random_params(HYPER, rng)
        demos, h, y = make_inputs(rng)
        _, trace = capm_forward(demos, h, y, params, HYPER)
        grads = capm_backward(trace, np.zeros_like(y), params, HYPER)
        for name, arr in grads.params.items():
            np.testing.assert_array_equal(arr, 0.0, err_msg=name)
        np.testing.assert_array_equal(grads.d_h, 0.0)
        np.testing.assert_array_equal(grads.d_y, 0.0)
        for d_tok in grads.d_tokens:
            np.testing.assert_array_equal(d_tok, 0.0)


# ---------------------------------------------------------------------------
# a trace feeds one backward, which frees each stage's cache as it goes

# the benchmark's CAPM step: 16 demos of 32 tokens over 256 backbone tokens
BENCH_HYPER = CapmHyper(d_b=256, d_p=64, K=4, r=4, heads=4)
BENCH_SIZES = dict(t_len=256, n_demos=16, l_len=32)


class TestOneBackwardPerTrace:
    @pytest.mark.parametrize("n_demos", [2, 0])
    def test_backward_releases_the_caches_and_refuses_a_second_call(self, n_demos):
        rng = np.random.default_rng(21)
        params = random_params(HYPER, rng)
        demos, h, y = make_inputs(rng, n_demos=n_demos)
        _, trace = capm_forward(demos, h, y, params, HYPER)
        grads = capm_backward(trace, np.ones_like(y), params, HYPER)
        assert trace.caches == {}
        assert len(grads.d_tokens) == n_demos
        with pytest.raises(ValidationError) as info:
            capm_backward(trace, np.ones_like(y), params, HYPER)
        assert str(info.value) == (
            "capm_backward: the trace already fed a backward, which released its "
            "caches; run capm_forward again"
        )

    def test_stage_states_diagnostics_and_gradcheck_work_after_the_backward(self):
        rng = np.random.default_rng(22)
        params = random_params(HYPER, rng)
        demos, h, y = make_inputs(rng)
        _, t0 = capm_forward([], h, y, params, HYPER)
        _, tk = capm_forward(demos, h, y, params, HYPER)
        states = {stage: a.copy() for stage, a in tk.stage_states().items()}
        stats = forward_diagnostics(t0, tk)
        for trace in (t0, tk):
            capm_backward(trace, np.ones_like(y), params, HYPER)
        for stage, a in tk.stage_states().items():
            assert np.array_equal(a, states[stage]), stage
        assert forward_diagnostics(t0, tk) == stats
        # gradient_check resumes its perturbed forwards from a spent trace
        tiny = CapmHyper(d_b=6, d_p=4, K=1, r=1, heads=1)
        params = random_params(tiny, rng)
        demos, h, y = make_inputs(rng, hyper=tiny, t_len=2, n_demos=1, l_len=3)
        assert capm.gradient_check(params, tiny, demos, h, y).passed

    def test_little_is_held_after_the_backward_at_the_bench_shape(self):
        rng = np.random.default_rng(23)
        params = random_params(BENCH_HYPER, rng)
        demos, h, y = make_inputs(rng, hyper=BENCH_HYPER, **BENCH_SIZES)
        grad_out = rng.standard_normal(y.shape)
        _, trace = capm_forward(demos, h, y, params, BENCH_HYPER)  # first calls allocate once
        capm_backward(trace, grad_out, params, BENCH_HYPER)
        del trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, trace = capm_forward(demos, h, y, params, BENCH_HYPER)
            grads = capm_backward(trace, grad_out, params, BENCH_HYPER)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the trace's states and the gradients; with every stage cache kept, 9.3 MB
        assert held < 6 * 2**20, held / 2**20
        assert grads.d_h.shape == h.shape


# the allocating forms that the in-place backward rewrites replaced: the
# reference the rewrites must match bit for bit


def ln_backward_allocating(dout, cache):
    xhat, inv, gain = cache
    d = xhat.shape[-1]
    dgain = (dout * xhat).reshape(-1, d).sum(axis=0)
    dbias = dout.reshape(-1, d).sum(axis=0)
    dxhat = dout * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


def gate_backward_allocating(dyp, cache, params, grads):
    ln_cache, xg, pre1, hid, m, y, d_b = cache
    dy = dyp * m
    dm = dyp * y
    dpre2 = dm * m * (1.0 - m)
    grads["gate_w2"] += hid.T @ dpre2
    grads["gate_b2"] += dpre2.sum(axis=0)
    dhid = dpre2 @ params.gate_w2.T
    dpre1 = dhid * capm._gelu_grad(pre1)
    grads["gate_w1"] += xg.T @ dpre1
    grads["gate_b1"] += dpre1.sum(axis=0)
    dxg = dpre1 @ params.gate_w1.T
    dh, dgain, dbias = ln_backward_allocating(dxg[:, :d_b], ln_cache)
    grads["gate_ln_gain"] += dgain
    grads["gate_ln_bias"] += dbias
    return dh, dxg[:, d_b:], dy


@pytest.mark.parametrize(
    "hyper, t_len", [(BENCH_HYPER, BENCH_SIZES["t_len"]), (HYPER, 5)], ids=["bench", "cli-default"]
)
class TestInPlaceBackwardKeepsBits:
    def test_layernorm_backward(self, hyper, t_len):
        rng = np.random.default_rng(24)
        x, dout = rng.standard_normal((2, t_len, hyper.d_b))
        gain, bias = 1.0 + 0.2 * rng.standard_normal((2, hyper.d_b))
        _, cache = capm._ln_forward(x, gain, bias)
        for got, want in zip(capm._ln_backward(dout, cache), ln_backward_allocating(dout, cache)):
            assert np.array_equal(got, want)

    def test_gate_backward(self, hyper, t_len):
        rng = np.random.default_rng(25)
        params = random_params(hyper, rng)
        h, y, dyp = rng.standard_normal((3, t_len, hyper.d_b))
        context = rng.standard_normal((t_len, hyper.d_p))
        _, cache = capm._gate_forward(h, context, y, params, hyper)
        grads, want_grads = ({n: np.zeros_like(a) for n, a in params.as_dict().items()}
                             for _ in range(2))
        got = capm._gate_backward(dyp, cache, params, grads, hyper)
        want = gate_backward_allocating(dyp, cache, params, want_grads)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert g.base is None  # no view keeps a larger temporary alive
        for name in grads:
            assert np.array_equal(grads[name], want_grads[name]), name


# ---------------------------------------------------------------------------
# diagnostics


class TestDiagnostics:
    def test_identical_traces_shift_zero(self):
        rng = np.random.default_rng(18)
        params = random_params(HYPER, rng)
        demos, h, y = make_inputs(rng)
        _, trace = capm_forward(demos, h, y, params, HYPER)
        stats = forward_diagnostics(trace, trace)
        for stage in STAGE_ORDER:
            assert stats[stage].representation_shift == 0.0

    def test_init_output_shift_zero(self):
        rng = np.random.default_rng(19)
        params = init_params(HYPER, rng)
        demos, h, y = make_inputs(rng)
        _, t0 = capm_forward([], h, y, params, HYPER)
        _, tk = capm_forward(demos, h, y, params, HYPER)
        stats = forward_diagnostics(t0, tk)
        assert stats["output"].representation_shift == pytest.approx(0.0, abs=1e-12)
        assert stats["context"].representation_shift > 0.0

    def test_stats_match_direct_recomputation(self):
        rng = np.random.default_rng(20)
        params = random_params(HYPER, rng)
        demos, h, y = make_inputs(rng)
        _, t0 = capm_forward([], h, y, params, HYPER)
        _, tk = capm_forward(demos, h, y, params, HYPER)
        stats = forward_diagnostics(t0, tk)
        states0, statesk = t0.stage_states(), tk.stage_states()
        for stage in STAGE_ORDER:
            norms = [float(np.linalg.norm(r)) for r in statesk[stage]]
            assert stats[stage].mean_norm == pytest.approx(sum(norms) / len(norms), abs=1e-9)
            dists = [
                float(np.linalg.norm(a - b)) for a, b in zip(statesk[stage], states0[stage])
            ]
            assert stats[stage].representation_shift == pytest.approx(
                sum(dists) / len(dists), abs=1e-9
            )


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_round_trip_within_f32(self, tmp_path):
        rng = np.random.default_rng(21)
        params = random_params(HYPER, rng)
        path = tmp_path / "params.capm"
        save_params(params, HYPER, path)
        loaded, hyper2 = load_params(path)
        assert hyper2 == HYPER
        for name, arr in params.as_dict().items():
            np.testing.assert_allclose(loaded.as_dict()[name], arr, rtol=1e-6, atol=1e-6)

    def test_second_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(22)
        params = random_params(HYPER, rng)
        p1 = tmp_path / "a.capm"
        p2 = tmp_path / "b.capm"
        save_params(params, HYPER, p1)
        loaded, _ = load_params(p1)
        save_params(loaded, HYPER, p2)
        again, _ = load_params(p2)
        for name, arr in loaded.as_dict().items():
            np.testing.assert_array_equal(again.as_dict()[name], arr, err_msg=name)

    def test_forward_agrees_after_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        params = random_params(HYPER, rng)
        demos, h, y = make_inputs(rng)
        path = tmp_path / "p.capm"
        save_params(params, HYPER, path)
        loaded, _ = load_params(path)
        out_a, _ = capm_forward(demos, h, y, params, HYPER)
        out_b, _ = capm_forward(demos, h, y, loaded, HYPER)
        np.testing.assert_allclose(out_a, out_b, rtol=1e-5, atol=1e-5)

    def test_truncated_file_rejected(self, tmp_path):
        # cut at every byte: always a ValidationError, never struct's or numpy's
        tiny = CapmHyper(d_b=2, d_p=2, K=1, r=1, heads=1)
        path = tmp_path / "p.capm"
        save_params(random_params(tiny, np.random.default_rng(24)), tiny, path)
        blob = path.read_bytes()
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(ValidationError):
                load_params(path)

    def test_value_beyond_float32_writes_no_file(self, tmp_path):
        params = init_params(HYPER, np.random.default_rng(26))
        params.gate_w1[3, 1] = -1e39
        path = tmp_path / "p.capm"
        with pytest.raises(ValidationError) as info:
            save_params(params, HYPER, path)
        assert str(info.value) == (
            f"{path}: tensor 'gate_w1' cannot be saved: record 'gate_w1 20x8': "
            f"values[{3 * 8 + 1}]: -1e+39 is outside the float32 range"
        )
        assert not path.exists()

    @settings(max_examples=30, deadline=None)
    @given(d_b=st.integers(1, 4), heads=st.integers(1, 3), head_width=st.integers(1, 3),
           K=st.integers(1, 3), r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_tensors_are_saved_and_loaded_in_field_order_with_their_shapes(
            self, d_b, heads, head_width, K, r, seed):
        hyper = CapmHyper(d_b=d_b, d_p=heads * head_width, K=K, r=r, heads=heads)
        shapes = list(capm.expected_shapes(hyper).items())
        assert tuple(name for name, _ in shapes) == capm.PARAM_FIELDS
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "p.capm")
            save_params(random_params(hyper, np.random.default_rng(seed)), hyper, path)
            with open(path, "rb") as fh:
                fh.readline()  # the manifest
                ids = [read_vector_block(fh)[0] for _ in capm.PARAM_FIELDS]
                assert fh.read() == b""
            loaded, _ = load_params(path)
        assert ids == [[f"{name} {'x'.join(map(str, shape))}"] for name, shape in shapes]
        assert [(name, arr.shape) for name, arr in loaded.as_dict().items()] == shapes

    def test_manifest_value_too_large_for_float_rejected(self, tmp_path):
        path = tmp_path / "p.capm"
        save_params(random_params(HYPER, np.random.default_rng(25)), HYPER, path)
        blob = path.read_bytes()
        assert blob.count(b'"eta": 0.1,') == 1
        path.write_bytes(blob.replace(b'"eta": 0.1,', b'"eta": ' + str(10**400).encode() + b","))
        with pytest.raises(ValidationError, match=f"{path}: manifest: eta must be a finite number"):
            load_params(path)


class TestParams:
    def test_a_missing_tensor_is_a_type_error(self):
        arrays = init_params(HYPER, np.random.default_rng(27)).as_dict()
        del arrays["tau_b2"]
        with pytest.raises(TypeError, match="'tau_b2'"):
            CapmParams(**arrays)

    def test_an_unknown_tensor_is_a_type_error(self):
        arrays = init_params(HYPER, np.random.default_rng(28)).as_dict()
        with pytest.raises(TypeError, match="'tau_b3'"):
            CapmParams(**arrays, tau_b3=np.zeros(1))

    def test_copy_holds_equal_tensors_in_new_arrays(self):
        params = random_params(HYPER, np.random.default_rng(29))
        copied = params.copy()
        assert list(copied.as_dict()) == list(capm.PARAM_FIELDS)
        for name, arr in params.as_dict().items():
            assert getattr(copied, name) is not arr
            np.testing.assert_array_equal(getattr(copied, name), arr)


# ---------------------------------------------------------------------------
# hyper validation


class TestHyper:
    def test_heads_must_divide_d_p(self):
        with pytest.raises(ValidationError):
            CapmHyper(d_b=8, d_p=6, K=2, r=2, heads=4)

    def test_tau_bounds_ordered(self):
        with pytest.raises(ValidationError):
            CapmHyper(d_b=8, d_p=8, K=2, r=2, tau_min=2.0, tau_max=0.5)

    @pytest.mark.parametrize("name", ["eta", "tau_min", "tau_max", "b2_init"])
    @pytest.mark.parametrize("value", [True, 10**400, math.nan, math.inf, "0.1"],
                             ids=["bool", "huge-int", "nan", "inf", "string"])
    def test_schedule_must_be_a_finite_number(self, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be a finite number, got "):
            CapmHyper(d_b=8, d_p=8, K=2, r=2, **{name: value})

    def test_coef_width(self):
        assert HYPER.coef_width == 2 * 2 * 8 + 2

    @pytest.mark.parametrize(
        "sizes, message",
        [({"d_b": 10**21}, "d_b must be an integer in [1, 9223372036854775807], got 10"),
         ({"d_b": 2**62}, "sizes too large: param w_in would have shape (4611686018427387904, 8)")],
        ids=["above-intp", "tensor-bytes-above-intp"],
    )
    def test_sizes_numpy_cannot_address_rejected(self, sizes, message):
        with pytest.raises(ValidationError) as info:
            CapmHyper(**{"d_b": 8, "d_p": 8, "K": 2, "r": 2, **sizes})
        assert str(info.value).startswith(message)


# ---------------------------------------------------------------------------
# package surface


def test_every_export_resolves_and_param_order_is_the_shape_order():
    import importlib

    import ctxforge

    assert len(set(ctxforge.__all__)) == len(ctxforge.__all__)
    assert set(ctxforge.__all__) <= set(dir(ctxforge))
    exported = {"__version__"}
    for module_name, names in ctxforge._EXPORTS.items():
        module = importlib.import_module(f"ctxforge.{module_name}")
        assert getattr(ctxforge, module_name) is module
        for name in names:
            obj = getattr(module, name)
            assert getattr(ctxforge, name) is obj, name
            # the defining module, not one that imported the name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
        exported.update(names)
    assert exported == set(ctxforge.__all__)
    namespace: dict = {}
    exec("from ctxforge import *", namespace)
    for name in ctxforge.__all__:
        assert namespace[name] is getattr(ctxforge, name), name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ctxforge.no_such_name
    # save_params and load_params write and read tensors in this order
    assert capm.PARAM_FIELDS == tuple(capm.expected_shapes(HYPER))
