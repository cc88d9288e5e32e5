"""Context-adaptive modulation: encode demos, build a prototype bank, route
per-token context, and gate an attention output.

``capm_forward`` is the one way in.  It runs the pipeline below over ``N``
demonstrations and a ``T``-token backbone segment and returns the output with
a ``CapmTrace`` that holds every stage's result.  Demos may differ in length:
each is checked, then all are zero-padded into one ``(N, L_max, d_b)`` batch
with a token mask, and every demo-side stage runs once over that batch
(padded tokens get exactly zero attention weight).

1. Encode (``trace.slots``) — segment-masked cross-attention reads each
   demo's tokens into ``K + 2`` slots: an input summary ``c_in`` (user tokens
   only), an output summary ``c_out`` (assistant tokens only), and ``K``
   unmasked context probes ``C``.
2. Modulate (``trace.z``) — compresses the slots into one latent token::

       g     = Mean(RMSNorm(C))
       phi   = LN([c_in; c_out; c_out - c_in; c_in * c_out])
       u,v,a = H_coef(phi)                      (two affine layers, GELU)
       z     = g + eta * sum_k a_k (U_k*u_k) <V_k*v_k, g>

3. Interact (``trace.z_hat``) — one pre-norm self-attention block (residual,
   no positional encoding) mixes the ``N`` latent tokens.
4. Bank and route (``trace.bank``, ``trace.tau``, ``trace.weights``,
   ``trace.context``) — per-slot-kind affine calibration then row-wise l2
   normalization, demo-major / slot-kind-minor; backbone tokens are scored
   against the bank at a learned temperature
   ``tau = tau_min + (tau_max - tau_min) * sigmoid(MLP(mean(z_hat)))`` and
   softmax-mix bank rows into per-token context ``C_t``.
5. Gate (``trace.m``) — ``m = sigmoid(W2 GELU(W1 [LayerNorm(h); C_t] + b1) + b2)``
   multiplies the attention output ``Y`` elementwise.  ``W2`` is zero at
   initialization and ``b2`` starts at a positive constant, so a fresh module
   is a near-identity: ``Y' = sigmoid(b2) * Y`` regardless of demos.

Everything is float64 numpy.  ``capm_backward`` computes exact reverse-mode
gradients for every parameter and for the inputs ``h``, ``y``, and the demo
tokens; ``gradient_check`` verifies them against central finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any, Sequence

import numpy as np
from scipy.special import erf, expit

from .errors import NumericGuardError, ValidationError
from .records import is_finite_number, pack_vector_block, read_vector_block

SEGMENT_LABELS = ("user", "assistant")

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-6

# slot kinds index the calibration table rows
_KIND_Z, _KIND_C_IN, _KIND_C_OUT, _KIND_CONTEXT = 0, 1, 2, 3
SLOT_KINDS = ("z", "c_in", "c_out", "context")

STAGE_ORDER = ("hidden", "attention_out", "context", "output")

# numpy's bound on any dimension and on any array's size in bytes
_MAX_SIZE = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class CapmHyper:
    """Shape and schedule constants; ``d_b`` is backbone width, ``d_p`` probe width."""

    d_b: int
    d_p: int
    K: int
    r: int
    eta: float = 0.1
    tau_min: float = 0.05
    tau_max: float = 2.0
    b2_init: float = 4.0
    heads: int = 2

    def __post_init__(self) -> None:
        for name in ("d_b", "d_p", "K", "r", "heads"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= _MAX_SIZE:
                raise ValidationError(f"{name} must be an integer in [1, {_MAX_SIZE}], got {v!r}")
        if self.d_p % self.heads != 0:
            raise ValidationError(
                f"heads must be a divisor of d_p ({self.d_p}), got {self.heads!r}"
            )
        for name in ("eta", "tau_min", "tau_max", "b2_init"):
            v = getattr(self, name)
            if not is_finite_number(v):
                raise ValidationError(f"{name} must be a finite number, got {v!r}")
        if not 0 < self.tau_min < self.tau_max:
            raise ValidationError(
                f"tau_min must be > 0 and < tau_max ({self.tau_max!r}), got {self.tau_min!r}"
            )
        for name, shape in expected_shapes(self).items():
            if math.prod(shape) * 8 > _MAX_SIZE:  # float64 bytes
                raise ValidationError(f"sizes too large: param {name} would have shape {shape}")

    @property
    def coef_width(self) -> int:
        return 2 * self.r * self.d_p + self.r


@dataclass(eq=False)
class CapmParams:
    w_in: np.ndarray
    queries: np.ndarray
    enc_wq: np.ndarray
    enc_wk: np.ndarray
    enc_wv: np.ndarray
    enc_wo: np.ndarray
    rms_gain: np.ndarray
    phi_ln_gain: np.ndarray
    phi_ln_bias: np.ndarray
    hcoef_w1: np.ndarray
    hcoef_b1: np.ndarray
    hcoef_w2: np.ndarray
    hcoef_b2: np.ndarray
    u_base: np.ndarray
    v_base: np.ndarray
    int_ln_gain: np.ndarray
    int_ln_bias: np.ndarray
    int_wq: np.ndarray
    int_wk: np.ndarray
    int_wv: np.ndarray
    int_wo: np.ndarray
    cal_scale: np.ndarray
    cal_shift: np.ndarray
    psi: np.ndarray
    tau_w1: np.ndarray
    tau_b1: np.ndarray
    tau_w2: np.ndarray
    tau_b2: np.ndarray
    gate_ln_gain: np.ndarray
    gate_ln_bias: np.ndarray
    gate_w1: np.ndarray
    gate_b1: np.ndarray
    gate_w2: np.ndarray
    gate_b2: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    def copy(self) -> "CapmParams":
        return CapmParams(**{k: v.copy() for k, v in self.as_dict().items()})


# parameter tensors, in serialization order
PARAM_FIELDS = tuple(f.name for f in fields(CapmParams))


def expected_shapes(hyper: CapmHyper) -> dict[str, tuple[int, ...]]:
    d_b, d_p, k, r = hyper.d_b, hyper.d_p, hyper.K, hyper.r
    return {
        "w_in": (d_b, d_p),
        "queries": (k + 2, d_p),
        "enc_wq": (d_p, d_p),
        "enc_wk": (d_p, d_p),
        "enc_wv": (d_p, d_p),
        "enc_wo": (d_p, d_p),
        "rms_gain": (d_p,),
        "phi_ln_gain": (4 * d_p,),
        "phi_ln_bias": (4 * d_p,),
        "hcoef_w1": (4 * d_p, 2 * d_p),
        "hcoef_b1": (2 * d_p,),
        "hcoef_w2": (2 * d_p, hyper.coef_width),
        "hcoef_b2": (hyper.coef_width,),
        "u_base": (r, d_p),
        "v_base": (r, d_p),
        "int_ln_gain": (d_p,),
        "int_ln_bias": (d_p,),
        "int_wq": (d_p, d_p),
        "int_wk": (d_p, d_p),
        "int_wv": (d_p, d_p),
        "int_wo": (d_p, d_p),
        "cal_scale": (4, d_p),
        "cal_shift": (4, d_p),
        "psi": (d_b, d_p),
        "tau_w1": (d_p, d_p),
        "tau_b1": (d_p,),
        "tau_w2": (d_p, 1),
        "tau_b2": (1,),
        "gate_ln_gain": (d_b,),
        "gate_ln_bias": (d_b,),
        "gate_w1": (d_b + d_p, d_p),
        "gate_b1": (d_p,),
        "gate_w2": (d_p, d_b),
        "gate_b2": (d_b,),
    }


def validate_params(params: CapmParams, hyper: CapmHyper) -> None:
    for name, shape in expected_shapes(hyper).items():
        arr = getattr(params, name)
        if arr.shape != shape:
            raise ValidationError(f"param {name}: expected shape {shape}, got {arr.shape}")


def init_params(hyper: CapmHyper, rng: np.random.Generator) -> CapmParams:
    """Fresh parameters: small random weights, identity norms and calibration,
    ``gate_w2 = 0`` and ``gate_b2 = b2_init`` so the gate starts near-open."""
    shapes = expected_shapes(hyper)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if name.endswith("_gain") or name == "cal_scale":
            arrays[name] = np.ones(shape)
        elif name.endswith("_bias") or name.endswith("_b1") or name in ("hcoef_b2", "tau_b2", "cal_shift"):
            arrays[name] = np.zeros(shape)
        elif name == "gate_w2":
            arrays[name] = np.zeros(shape)
        elif name == "gate_b2":
            arrays[name] = np.full(shape, hyper.b2_init)
        else:
            arrays[name] = 0.05 * rng.standard_normal(shape)
    return CapmParams(**arrays)


def random_params(hyper: CapmHyper, rng: np.random.Generator) -> CapmParams:
    """Trained-like parameters: everything perturbed, nothing at its init value.

    The gate bias is drawn near zero rather than near ``b2_init`` so the gate
    sits in its responsive range; a saturated sigmoid attenuates every
    upstream gradient by ~50x, which starves finite-difference comparisons of
    precision without exercising anything new.
    """
    shapes = expected_shapes(hyper)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if name.endswith("_gain") or name == "cal_scale":
            arrays[name] = 1.0 + 0.2 * rng.standard_normal(shape)
        else:
            arrays[name] = 0.3 * rng.standard_normal(shape)
    return CapmParams(**arrays)


@dataclass(eq=False)
class CapmTrace:
    """Forward intermediates: public state per stage plus backward caches."""

    h: np.ndarray
    y: np.ndarray
    slots: np.ndarray  # (N, K + 2, d_p): c_in, c_out, then the K context rows
    z: np.ndarray  # (N, d_p)
    z_hat: np.ndarray  # (N, d_p)
    bank: np.ndarray  # (S, d_p)
    tau: float | None
    weights: np.ndarray  # (T, S)
    context: np.ndarray  # (T, d_p)
    m: np.ndarray  # (T, d_b)
    y_prime: np.ndarray  # (T, d_b)
    caches: dict[str, Any]

    def stage_states(self) -> dict[str, np.ndarray]:
        return {
            "hidden": self.h,
            "attention_out": self.y,
            "context": self.context,
            "output": self.y_prime,
        }


@dataclass(eq=False)
class CapmGrads:
    """Gradients for every parameter tensor plus the inputs."""

    params: dict[str, np.ndarray]
    d_h: np.ndarray
    d_y: np.ndarray
    d_tokens: list[np.ndarray]

    def __getattr__(self, name: str) -> Any:
        try:
            return self.__dict__["params"][name]
        except KeyError:
            raise AttributeError(name) from None


# ---------------------------------------------------------------------------
# primitive layers (forward, cache) / (grad_out, cache) -> grads


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x * _SQRT1_2))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x * _SQRT1_2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _softmax_last(x: np.ndarray) -> np.ndarray:
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(dout: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p * (dout - np.sum(dout * p, axis=-1, keepdims=True))


def _ln_forward(x, gain, bias, eps=_LN_EPS):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv, gain)


def _ln_backward(dout, cache):
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


def _rms_forward(x, gain, eps=_LN_EPS):
    ms = (x * x).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)
    xhat = x * inv
    return xhat * gain, (x, xhat, inv, gain)


def _rms_backward(dout, cache):
    x, xhat, inv, gain = cache
    d = x.shape[-1]
    dgain = (dout * xhat).reshape(-1, d).sum(axis=0)
    dxhat = dout * gain
    s = (dxhat * x).sum(axis=-1, keepdims=True)
    dx = dxhat * inv - x * s * inv**3 / d
    return dx, dgain


def _l2rows_forward(x, zero_msg):
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericGuardError(zero_msg)
    return x / norms, (x, norms)


def _l2rows_backward(dout, cache):
    x, norms = cache
    dot = (dout * x).sum(axis=-1, keepdims=True)
    return dout / norms - x * dot / norms**3


def _heads(x, heads):
    """``(B, n, d)`` rows -> ``(B, heads, n, d // heads)`` per-head view."""
    b, n, d = x.shape
    return x.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, heads, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, heads * dh)


def _flat(x):
    return x.reshape(-1, x.shape[-1])


def _mha_forward(q_rows, kv_rows, wq, wk, wv, wo, heads, mask=None):
    """Batched multi-head scaled dot-product attention over ``(B, m, d)``
    query rows and ``(B, l, d)`` key/value rows.  ``mask[b, i, j]`` true
    means query row ``i`` of batch ``b`` may attend key ``j``; masked scores
    become -inf, so the masked positions get exactly zero weight."""
    scale = 1.0 / math.sqrt(q_rows.shape[-1] // heads)
    qh = _heads(q_rows @ wq, heads)
    kh = _heads(kv_rows @ wk, heads)
    vh = _heads(kv_rows @ wv, heads)
    scores = np.einsum("bhmd,bhld->bhml", qh, kh) * scale
    if mask is not None:
        scores = np.where(mask[:, None], scores, -np.inf)
    p = _softmax_last(scores)
    concat = _merge_heads(np.einsum("bhml,bhld->bhmd", p, vh))
    out = concat @ wo
    cache = (q_rows, kv_rows, wq, wk, wv, wo, qh, kh, vh, p, concat, scale)
    return out, cache


def _mha_backward(dout, cache):
    q_rows, kv_rows, wq, wk, wv, wo, qh, kh, vh, p, concat, scale = cache
    dwo = _flat(concat).T @ _flat(dout)
    doh = _heads(dout @ wo.T, qh.shape[1])
    dp = np.einsum("bhmd,bhld->bhml", doh, vh)
    dvh = np.einsum("bhml,bhmd->bhld", p, doh)
    ds = _softmax_backward(dp, p)
    dq = _merge_heads(np.einsum("bhml,bhld->bhmd", ds, kh) * scale)
    dk = _merge_heads(np.einsum("bhml,bhmd->bhld", ds, qh) * scale)
    dv = _merge_heads(dvh)
    dq_rows = dq @ wq.T
    dkv_rows = dk @ wk.T + dv @ wv.T
    dwq = _flat(q_rows).T @ _flat(dq)
    dwk = _flat(kv_rows).T @ _flat(dk)
    dwv = _flat(kv_rows).T @ _flat(dv)
    return dq_rows, dkv_rows, dwq, dwk, dwv, dwo


# ---------------------------------------------------------------------------
# stage forwards/backwards


def _check_demo(tokens, segments, hyper: CapmHyper) -> tuple[np.ndarray, np.ndarray]:
    tok = np.asarray(tokens, dtype=np.float64)
    if tok.ndim != 2 or tok.shape[1] != hyper.d_b:
        raise ValidationError(f"demo tokens: expected (L, {hyper.d_b}) array, got {tok.shape}")
    if tok.shape[0] != len(segments):
        raise ValidationError(
            f"demo segments: {len(segments)} labels for {tok.shape[0]} tokens"
        )
    for i, s in enumerate(segments):
        if s not in SEGMENT_LABELS:
            raise ValidationError(f"segments[{i}]: {s!r} is not one of {SEGMENT_LABELS}")
    is_user = np.array([s == "user" for s in segments], dtype=bool)
    if not is_user.any() or is_user.all():
        raise ValidationError("demo segments: a segment with zero tokens")
    return tok, is_user


def _stack_demos(demos, hyper: CapmHyper):
    """Check each demo, then zero-pad them into one ``(N, L_max, d_b)`` batch.

    Returns the tokens plus two ``(N, L_max)`` masks: ``valid`` marks real
    tokens, ``user`` marks the user-segment ones."""
    checked = [_check_demo(tokens, segments, hyper) for tokens, segments in demos]
    lengths = np.array([len(is_user) for _, is_user in checked])
    valid = np.arange(lengths.max()) < lengths[:, None]
    tokens = np.zeros(valid.shape + (hyper.d_b,))
    user = np.zeros(valid.shape, dtype=bool)
    tokens[valid] = np.concatenate([tok for tok, _ in checked])
    user[valid] = np.concatenate([is_user for _, is_user in checked])
    return tokens, valid, user


def _encode_forward(tokens, valid, user, params: CapmParams, hyper: CapmHyper):
    """``(N, L, d_b)`` padded demos -> ``(N, K + 2, d_p)`` slots."""
    mask = np.repeat(valid[:, None], hyper.K + 2, axis=1)
    mask[:, 0] &= user  # c_in reads the user segment only
    mask[:, 1] &= ~user  # c_out reads the assistant segment only
    queries = np.broadcast_to(params.queries, (len(tokens),) + params.queries.shape)
    slots, mha_cache = _mha_forward(
        queries, tokens @ params.w_in,
        params.enc_wq, params.enc_wk, params.enc_wv, params.enc_wo, hyper.heads, mask,
    )
    return slots, (tokens, mha_cache)


def _encode_backward(d_slots, cache, params: CapmParams, grads: dict[str, np.ndarray]):
    tokens, mha_cache = cache
    dq_rows, dxp, dwq, dwk, dwv, dwo = _mha_backward(d_slots, mha_cache)
    grads["queries"] += dq_rows.sum(axis=0)
    grads["enc_wq"] += dwq
    grads["enc_wk"] += dwk
    grads["enc_wv"] += dwv
    grads["enc_wo"] += dwo
    grads["w_in"] += _flat(tokens).T @ _flat(dxp)
    return dxp @ params.w_in.T  # d tokens, zero on padding


def _modulate_forward(slots, params: CapmParams, hyper: CapmHyper):
    """``(N, K + 2, d_p)`` slots -> ``(N, d_p)`` latent tokens."""
    c_in, c_out, context = slots[:, 0], slots[:, 1], slots[:, 2:]
    cn, rms_cache = _rms_forward(context, params.rms_gain)
    g = cn.mean(axis=1)
    cat = np.concatenate([c_in, c_out, c_out - c_in, c_in * c_out], axis=1)
    phi, ln_cache = _ln_forward(cat, params.phi_ln_gain, params.phi_ln_bias)
    pre1 = phi @ params.hcoef_w1 + params.hcoef_b1
    hid = _gelu(pre1)
    out = hid @ params.hcoef_w2 + params.hcoef_b2
    n, rdp = len(slots), hyper.r * hyper.d_p
    u = out[:, :rdp].reshape(n, hyper.r, hyper.d_p)
    v = out[:, rdp : 2 * rdp].reshape(n, hyper.r, hyper.d_p)
    alpha = out[:, 2 * rdp :]
    a = params.u_base * u
    b = params.v_base * v
    s = np.einsum("nrd,nd->nr", b, g)
    z = g + hyper.eta * np.einsum("nr,nrd->nd", alpha * s, a)
    cache = (slots, rms_cache, ln_cache, phi, pre1, hid, u, v, alpha, a, b, s, g)
    return z, cache


def _modulate_backward(dz, cache, params: CapmParams, grads, hyper: CapmHyper):
    slots, rms_cache, ln_cache, phi, pre1, hid, u, v, alpha, a, b, s, g = cache
    eta = hyper.eta
    da = eta * (alpha * s)[:, :, None] * dz[:, None, :]
    d_as = eta * np.einsum("nrd,nd->nr", a, dz)  # gradient of (alpha_k * s_k)
    dalpha = d_as * s
    ds = d_as * alpha
    db = ds[:, :, None] * g[:, None, :]
    dg = dz + np.einsum("nr,nrd->nd", ds, b)
    grads["u_base"] += (da * u).sum(axis=0)
    du = da * params.u_base
    grads["v_base"] += (db * v).sum(axis=0)
    dv = db * params.v_base
    n = len(dz)
    dout = np.concatenate([du.reshape(n, -1), dv.reshape(n, -1), dalpha], axis=1)
    grads["hcoef_w2"] += hid.T @ dout
    grads["hcoef_b2"] += dout.sum(axis=0)
    dhid = dout @ params.hcoef_w2.T
    dpre1 = dhid * _gelu_grad(pre1)
    grads["hcoef_w1"] += phi.T @ dpre1
    grads["hcoef_b1"] += dpre1.sum(axis=0)
    dphi = dpre1 @ params.hcoef_w1.T
    dcat, dgain, dbias = _ln_backward(dphi, ln_cache)
    grads["phi_ln_gain"] += dgain
    grads["phi_ln_bias"] += dbias
    d1, d2, d3, d4 = np.split(dcat, 4, axis=1)
    d_slots = np.empty_like(slots)
    d_slots[:, 0] = d1 - d3 + d4 * slots[:, 1]
    d_slots[:, 1] = d2 + d3 + d4 * slots[:, 0]
    dcn = np.broadcast_to(dg[:, None] / hyper.K, d_slots[:, 2:].shape)
    d_slots[:, 2:], drms_gain = _rms_backward(dcn, rms_cache)
    grads["rms_gain"] += drms_gain
    return d_slots


def _interact_forward(z_rows, params: CapmParams, hyper: CapmHyper):
    ln, ln_cache = _ln_forward(z_rows, params.int_ln_gain, params.int_ln_bias)
    attn, mha_cache = _mha_forward(
        ln[None], ln[None], params.int_wq, params.int_wk, params.int_wv, params.int_wo,
        hyper.heads,
    )
    return z_rows + attn[0], (ln_cache, mha_cache)


def _interact_backward(dzhat, cache, params: CapmParams, grads):
    ln_cache, mha_cache = cache
    dq_rows, dkv_rows, dwq, dwk, dwv, dwo = _mha_backward(dzhat[None], mha_cache)
    grads["int_wq"] += dwq
    grads["int_wk"] += dwk
    grads["int_wv"] += dwv
    grads["int_wo"] += dwo
    dz, dgain, dbias = _ln_backward(dq_rows[0] + dkv_rows[0], ln_cache)
    grads["int_ln_gain"] += dgain
    grads["int_ln_bias"] += dbias
    return dzhat + dz


def _bank_forward(z_hat, slots, params: CapmParams, hyper: CapmHyper):
    """Rows ``[z_hat[i], c_in, c_out, context...]`` per demo, calibrated by
    slot kind, l2-normalized, flattened demo-major to ``(N * (K + 3), d_p)``."""
    raw = np.concatenate([z_hat[:, None], slots], axis=1)
    kind = np.array([_KIND_Z, _KIND_C_IN, _KIND_C_OUT] + [_KIND_CONTEXT] * hyper.K)
    cal = raw * params.cal_scale[kind] + params.cal_shift[kind]
    bank, l2_cache = _l2rows_forward(cal, "bank: zero-norm row after calibration")
    return bank.reshape(-1, hyper.d_p), (raw, kind, l2_cache)


def _bank_backward(dbank, cache, params: CapmParams, grads):
    raw, kind, l2_cache = cache
    dcal = _l2rows_backward(dbank.reshape(raw.shape), l2_cache)
    np.add.at(grads["cal_scale"], kind, (dcal * raw).sum(axis=0))
    np.add.at(grads["cal_shift"], kind, dcal.sum(axis=0))
    draw = dcal * params.cal_scale[kind]
    return draw[:, 0], draw[:, 1:]  # d z_hat, d slots


def _route_forward(h, bank, z_hat, params: CapmParams, hyper: CapmHyper):
    z_pool = z_hat.mean(axis=0)
    pre_t1 = z_pool @ params.tau_w1 + params.tau_b1
    t1 = _gelu(pre_t1)
    tval = (t1 @ params.tau_w2 + params.tau_b2).item()
    sig = float(expit(tval))
    tau = hyper.tau_min + (hyper.tau_max - hyper.tau_min) * sig
    qhat, l2_cache = _l2rows_forward(h @ params.psi, "route: zero-norm query projection")
    scores = qhat @ bank.T / tau
    weights = _softmax_last(scores)
    context = weights @ bank
    cache = (h, bank, z_hat.shape[0], z_pool, pre_t1, t1, sig, tau, l2_cache, qhat, scores, weights)
    return (context, tau, weights), cache


def _route_backward(dcontext, cache, params: CapmParams, grads, hyper: CapmHyper):
    h, bank, n_demos, z_pool, pre_t1, t1, sig, tau, l2_cache, qhat, scores, weights = cache
    dweights = dcontext @ bank.T
    dbank = weights.T @ dcontext
    dscores = _softmax_backward(dweights, weights)
    dqhat = dscores @ bank / tau
    dbank += dscores.T @ qhat / tau
    dtau = -float((dscores * scores).sum()) / tau
    dq = _l2rows_backward(dqhat, l2_cache)
    grads["psi"] += h.T @ dq
    dh = dq @ params.psi.T
    # temperature chain: tau = tau_min + (tau_max - tau_min) * sigmoid(tval)
    dtval = dtau * (hyper.tau_max - hyper.tau_min) * sig * (1.0 - sig)
    grads["tau_b2"] += np.array([dtval])
    grads["tau_w2"] += t1[:, None] * dtval
    dt1 = params.tau_w2[:, 0] * dtval
    dpre_t1 = dt1 * _gelu_grad(pre_t1)
    grads["tau_w1"] += np.outer(z_pool, dpre_t1)
    grads["tau_b1"] += dpre_t1
    dz_pool = dpre_t1 @ params.tau_w1.T
    d_zhat = np.tile(dz_pool / n_demos, (n_demos, 1))
    return dh, dbank, d_zhat


def _gate_forward(h, context, y, params: CapmParams):
    lnh, ln_cache = _ln_forward(h, params.gate_ln_gain, params.gate_ln_bias)
    xg = np.concatenate([lnh, context], axis=1)
    pre1 = xg @ params.gate_w1 + params.gate_b1
    hid = _gelu(pre1)
    pre2 = hid @ params.gate_w2 + params.gate_b2
    m = expit(pre2)
    y_prime = y * m
    return y_prime, m, (ln_cache, xg, pre1, hid, m, y, h.shape[1])


def _gate_backward(dyp, cache, params: CapmParams, grads):
    ln_cache, xg, pre1, hid, m, y, d_b = cache
    dy = dyp * m
    dm = dyp * y
    dpre2 = dm * m * (1.0 - m)
    grads["gate_w2"] += hid.T @ dpre2
    grads["gate_b2"] += dpre2.sum(axis=0)
    dhid = dpre2 @ params.gate_w2.T
    dpre1 = dhid * _gelu_grad(pre1)
    grads["gate_w1"] += xg.T @ dpre1
    grads["gate_b1"] += dpre1.sum(axis=0)
    dxg = dpre1 @ params.gate_w1.T
    dlnh = dxg[:, :d_b]
    dcontext = dxg[:, d_b:]
    dh, dgain, dbias = _ln_backward(dlnh, ln_cache)
    grads["gate_ln_gain"] += dgain
    grads["gate_ln_bias"] += dbias
    return dh, dcontext, dy


# ---------------------------------------------------------------------------
# composed forward / backward


def capm_forward(
    demos: Sequence[tuple[Any, Sequence[str]]],
    h: np.ndarray,
    y: np.ndarray,
    params: CapmParams,
    hyper: CapmHyper,
) -> tuple[np.ndarray, CapmTrace]:
    """Run the full pipeline; returns ``(y_prime, trace)``.

    ``demos`` is a sequence of ``(tokens, segments)`` pairs.  With zero demos
    the bank is empty and every context row is the zero vector, so the output
    reduces to the gate acting on ``[LayerNorm(h); 0]``.
    """
    hv = np.asarray(h, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if hv.ndim != 2 or hv.shape[1] != hyper.d_b:
        raise ValidationError(f"capm_forward: expected (T, {hyper.d_b}) hidden states, got {hv.shape}")
    if yv.shape != hv.shape:
        raise ValidationError(
            f"capm_forward: h and y must share shape, got {hv.shape} vs {yv.shape}"
        )
    t_len = hv.shape[0]

    if len(demos) > 0:
        tokens, valid, user = _stack_demos(demos, hyper)
        slots, enc_cache = _encode_forward(tokens, valid, user, params, hyper)
        z_rows, mod_cache = _modulate_forward(slots, params, hyper)
        z_hat, int_cache = _interact_forward(z_rows, params, hyper)
        bank, bank_cache = _bank_forward(z_hat, slots, params, hyper)
        (context, tau, weights), route_cache = _route_forward(hv, bank, z_hat, params, hyper)
        lengths = valid.sum(axis=1)
    else:
        enc_cache = mod_cache = int_cache = bank_cache = route_cache = None
        slots = np.zeros((0, hyper.K + 2, hyper.d_p))
        z_rows = np.zeros((0, hyper.d_p))
        z_hat = np.zeros((0, hyper.d_p))
        bank = np.zeros((0, hyper.d_p))
        context = np.zeros((t_len, hyper.d_p))
        tau = None
        weights = np.zeros((t_len, 0))
        lengths = []

    y_prime, m, gate_cache = _gate_forward(hv, context, yv, params)
    trace = CapmTrace(
        h=hv,
        y=yv,
        slots=slots,
        z=z_rows,
        z_hat=z_hat,
        bank=bank,
        tau=tau,
        weights=weights,
        context=context,
        m=m,
        y_prime=y_prime,
        caches={
            "enc": enc_cache,
            "mod": mod_cache,
            "int": int_cache,
            "bank": bank_cache,
            "route": route_cache,
            "gate": gate_cache,
            "lengths": lengths,
        },
    )
    return y_prime, trace


def capm_backward(
    trace: CapmTrace, grad_y_prime: np.ndarray, params: CapmParams, hyper: CapmHyper
) -> CapmGrads:
    """Exact reverse-mode gradients of the composed forward.

    ``params`` must be the object the trace was produced with.  Returns
    gradients for every parameter tensor plus ``d_h``, ``d_y`` and one
    ``d_tokens`` array per demo.
    """
    g = np.asarray(grad_y_prime, dtype=np.float64)
    if g.shape != trace.y_prime.shape:
        raise ValidationError(
            f"capm_backward: grad shape {g.shape} does not match output {trace.y_prime.shape}"
        )
    grads = {name: np.zeros_like(arr) for name, arr in params.as_dict().items()}
    caches = trace.caches

    dh, dcontext, dy = _gate_backward(g, caches["gate"], params, grads)
    d_tokens: list[np.ndarray] = []
    if len(caches["lengths"]):
        dh2, dbank, d_zhat = _route_backward(dcontext, caches["route"], params, grads, hyper)
        dh += dh2
        d_zhat2, d_slots = _bank_backward(dbank, caches["bank"], params, grads)
        dz = _interact_backward(d_zhat + d_zhat2, caches["int"], params, grads)
        d_slots += _modulate_backward(dz, caches["mod"], params, grads, hyper)
        d_tok = _encode_backward(d_slots, caches["enc"], params, grads)
        d_tokens = [d_tok[i, :length] for i, length in enumerate(caches["lengths"])]
    return CapmGrads(params=grads, d_h=dh, d_y=dy, d_tokens=d_tokens)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class StageStats:
    """Mean row norm at a stage plus the k-shot vs 0-shot row distance."""

    mean_norm: float
    representation_shift: float


def forward_diagnostics(trace_zero: CapmTrace, trace_k: CapmTrace) -> dict[str, StageStats]:
    """Per-stage statistics comparing a k-shot trace against its 0-shot twin.

    Stages: ``hidden`` (the incoming hidden states, whose mean row norm is
    the hidden-state norm), ``attention_out`` (the raw attention output),
    ``context`` (routed context rows), and ``output`` (the gated contribution
    handed back to the residual stream, whose mean row norm is the residual
    contribution norm).  ``mean_norm`` is taken from the k-shot trace;
    ``representation_shift`` is the mean row-wise Euclidean distance between
    the two traces at the same stage.  Both traces must come from the same
    inputs, differing only in demo count.
    """
    states_zero = trace_zero.stage_states()
    states_k = trace_k.stage_states()
    out: dict[str, StageStats] = {}
    for stage in STAGE_ORDER:
        a = states_k[stage]
        b = states_zero[stage]
        if a.shape != b.shape:
            raise ValidationError(
                f"forward_diagnostics: stage {stage!r} shape mismatch {a.shape} vs {b.shape}"
            )
        mean_norm = float(np.linalg.norm(a, axis=1).mean())
        shift = float(np.linalg.norm(a - b, axis=1).mean())
        out[stage] = StageStats(mean_norm=mean_norm, representation_shift=shift)
    return out


# ---------------------------------------------------------------------------
# serialization (manifest line + one container block per tensor)


def save_params(params: CapmParams, hyper: CapmHyper, path: str) -> None:
    """Write hyperparameters and every tensor to ``path``.

    Layout: one JSON manifest line, then one binary vector block per tensor
    in ``PARAM_FIELDS`` order, whose one record ``"<name> <shape>"`` holds
    the row-major flattening as float32 (so a round trip is exact only to
    float32 resolution).  A finite value beyond float32 raises
    ``ValidationError`` naming the tensor, and no file is written.
    """
    manifest = {
        "format": "capm-params",
        "version": 1,
        "hyper": {f.name: getattr(hyper, f.name) for f in fields(CapmHyper)},
    }
    parts = [(json.dumps(manifest, sort_keys=True) + "\n").encode("utf-8")]
    for name in PARAM_FIELDS:
        arr = np.asarray(getattr(params, name), dtype=np.float64)
        shape = "x".join(str(s) for s in arr.shape)
        try:
            parts.append(pack_vector_block([f"{name} {shape}"], arr.reshape(1, -1)))
        except ValidationError as exc:
            raise ValidationError(f"{path}: tensor {name!r} cannot be saved: {exc}") from None
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_params(path: str) -> tuple[CapmParams, CapmHyper]:
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            manifest = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ValidationError(f"{path}: bad parameter manifest line") from None
        if not isinstance(manifest, dict) or manifest.get("format") != "capm-params":
            raise ValidationError(f"{path}: not a parameter file")
        if manifest.get("version") != 1:
            raise ValidationError(f"{path}: unsupported version {manifest.get('version')!r}")
        try:
            hyper = CapmHyper(**manifest["hyper"])
        except (TypeError, KeyError):
            raise ValidationError(f"{path}: bad hyperparameter manifest") from None
        except ValidationError as exc:
            raise ValidationError(f"{path}: manifest: {exc}") from None
        arrays: dict[str, np.ndarray] = {}
        for name in PARAM_FIELDS:
            try:
                ids, rows = read_vector_block(fh)
            except ValidationError as exc:
                raise ValidationError(f"{path}: tensor {name!r}: {exc}") from None
            if len(ids) != 1:
                raise ValidationError(f"{path}: tensor block for {name} must hold one record")
            head, _, shape_s = ids[0].partition(" ")
            if head != name:
                raise ValidationError(f"{path}: expected tensor {name!r}, found {head!r}")
            dims = shape_s.split("x") if shape_s else []
            if not all(d.isdecimal() for d in dims):
                raise ValidationError(f"{path}: tensor {name!r} has a bad shape {shape_s!r}")
            shape = tuple(int(d) for d in dims)
            if rows.shape[1] != math.prod(shape):
                raise ValidationError(f"{path}: tensor {name!r} size does not match its shape")
            arrays[name] = rows[0].reshape(shape)
        if fh.read(1):
            raise ValidationError(f"{path}: trailing bytes after final tensor")
    params = CapmParams(**arrays)
    validate_params(params, hyper)
    return params, hyper


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    per_tensor: dict[str, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def gradient_check(
    params: CapmParams,
    hyper: CapmHyper,
    demos: Sequence[tuple[Any, Sequence[str]]],
    h: np.ndarray,
    y: np.ndarray,
    grad_out: np.ndarray | None = None,
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare ``capm_backward`` against central finite differences.

    The scalar objective is ``sum(grad_out * y_prime)``; every parameter
    tensor plus ``h``, ``y``, and each demo's tokens is perturbed
    coordinate-wise with the central two-point stencil.  Per tensor the
    normwise relative error ``||a - n|| / max(||a||, ||n||)`` is reported;
    per-coordinate ratios are meaningless where the true gradient sits below
    the ~1e-10 noise floor of the difference quotient itself.
    """
    hv = np.asarray(h, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if grad_out is None:
        grad_out = np.ones_like(yv)
    g = np.asarray(grad_out, dtype=np.float64)

    demo_list = [(np.asarray(t, dtype=np.float64), list(s)) for t, s in demos]
    y_prime, trace = capm_forward(demo_list, hv, yv, params, hyper)
    analytic = capm_backward(trace, g, params, hyper)

    work = {name: arr.copy() for name, arr in params.as_dict().items()}
    h_work = hv.copy()
    y_work = yv.copy()
    tok_work = [t.copy() for t, _ in demo_list]

    def objective() -> float:
        p = CapmParams(**work)
        ds = [(tok_work[i], demo_list[i][1]) for i in range(len(demo_list))]
        out, _ = capm_forward(ds, h_work, y_work, p, hyper)
        return float((g * out).sum())

    def numeric_grad(arr: np.ndarray) -> np.ndarray:
        num = np.zeros_like(arr)
        flat = arr.ravel()
        nflat = num.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = objective()
            flat[i] = orig - step
            f_minus = objective()
            flat[i] = orig
            nflat[i] = (f_plus - f_minus) / (2.0 * step)
        return num

    def rel_err(a: np.ndarray, n: np.ndarray) -> float:
        if a.size == 0:
            return 0.0
        denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(n)), 1e-12)
        return float(np.linalg.norm(a - n)) / denom

    per_tensor: dict[str, float] = {}
    for name in PARAM_FIELDS:
        per_tensor[name] = rel_err(analytic.params[name], numeric_grad(work[name]))
    per_tensor["h"] = rel_err(analytic.d_h, numeric_grad(h_work))
    per_tensor["y"] = rel_err(analytic.d_y, numeric_grad(y_work))
    for i in range(len(demo_list)):
        per_tensor[f"tokens[{i}]"] = rel_err(analytic.d_tokens[i], numeric_grad(tok_work[i]))

    max_rel_err = max(per_tensor.values())
    return GradCheckReport(max_rel_err=max_rel_err, per_tensor=per_tensor, tolerance=tolerance)
