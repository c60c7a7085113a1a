"""Straight-line scalar re-implementations used as independent oracles.

Everything here is written with explicit Python loops and math.* calls,
no vectorization and no imports from the package's numeric paths, so a
bug in the fast implementation cannot hide in its own oracle. The
optimizer references at the end are the exception: they keep the plain
numpy expressions the in-place optimizer step must match bit for bit.
"""

import math

import numpy as np


def scalar_matmul(a, b):
    m, k = len(a), len(a[0])
    n = len(b[0])
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            s = 0.0
            for r in range(k):
                s += a[i][r] * b[r][j]
            out[i][j] = s
    return np.array(out)


def scalar_softmax_row(scores):
    mx = max(scores)
    exps = [math.exp(s - mx) for s in scores]
    z = sum(exps)
    return [e / z for e in exps]


def scalar_layer_norm(row, gain, bias, eps=1e-5):
    d = len(row)
    mean = sum(row) / d
    var = sum((v - mean) ** 2 for v in row) / d
    inv = 1.0 / math.sqrt(var + eps)
    return [gain[j] * (row[j] - mean) * inv + bias[j] for j in range(d)]


def scalar_mha(e, wq, wk, wv, wo, n_heads, denominator, mask=None):
    """Head h reads/writes column block [h*f, (h+1)*f) of the packed
    projection matrices; returns (output, attention[h][t][u])."""
    tokens, d = len(e), len(e[0])
    f = d // n_heads
    attn = [[[0.0] * tokens for _ in range(tokens)] for _ in range(n_heads)]
    merged = [[0.0] * d for _ in range(tokens)]
    for h in range(n_heads):
        q = [[sum(e[t][p] * wq[p][h * f + j] for p in range(d))
              for j in range(f)] for t in range(tokens)]
        k = [[sum(e[t][p] * wk[p][h * f + j] for p in range(d))
              for j in range(f)] for t in range(tokens)]
        v = [[sum(e[t][p] * wv[p][h * f + j] for p in range(d))
              for j in range(f)] for t in range(tokens)]
        for t in range(tokens):
            scores = []
            for u in range(tokens):
                s = sum(q[t][j] * k[u][j] for j in range(f)) / denominator
                if mask is not None:
                    s += mask[t][u]
                scores.append(s)
            weights = scalar_softmax_row(scores)
            attn[h][t] = weights
            for j in range(f):
                merged[t][h * f + j] = sum(weights[u] * v[u][j]
                                           for u in range(tokens))
    out = [[sum(merged[t][p] * wo[p][c] for p in range(d)) for c in range(d)]
           for t in range(tokens)]
    return np.array(out), np.array(attn)


def scalar_positional(pos, c, d):
    i2 = 2 * (c // 2)
    angle = pos / (10000.0 ** (i2 / d))
    return math.sin(angle) if c % 2 == 0 else math.cos(angle)


def scalar_channel(x, weights, d, n_heads, denominator, n_layers,
                   causal, spatial):
    """Whole-channel reference: encode, positional encoding, pre-norm
    blocks (masked attention + ReLU feed-forward), decode.

    ``weights`` maps the channel-local names used by the model layout
    ('encoder.weight', 'block0.attn.wq', ...) to plain nested lists or
    arrays. The spatial variant transposes in and out.
    """
    x = [list(row) for row in (np.asarray(x).T if spatial else np.asarray(x))]
    tokens = len(x)
    enc_w, enc_b = weights["encoder.weight"], weights["encoder.bias"]
    in_dim = len(enc_w)
    e = [[sum(x[t][p] * enc_w[p][c] for p in range(in_dim)) + enc_b[c]
          + scalar_positional(t, c, d) for c in range(d)] for t in range(tokens)]
    mask = None
    if causal:
        mask = [[0.0 if u <= t else -1e9 for u in range(tokens)]
                for t in range(tokens)]
    for layer in range(n_layers):
        b = f"block{layer}"
        h = [scalar_layer_norm(e[t], weights[f"{b}.ln1.gain"],
                               weights[f"{b}.ln1.bias"]) for t in range(tokens)]
        a, _ = scalar_mha(h, weights[f"{b}.attn.wq"], weights[f"{b}.attn.wk"],
                          weights[f"{b}.attn.wv"], weights[f"{b}.attn.wo"],
                          n_heads, denominator, mask)
        e = [[e[t][c] + a[t][c] for c in range(d)] for t in range(tokens)]
        h = [scalar_layer_norm(e[t], weights[f"{b}.ln2.gain"],
                               weights[f"{b}.ln2.bias"]) for t in range(tokens)]
        w1, b1 = weights[f"{b}.ffn.w1"], weights[f"{b}.ffn.b1"]
        w2, b2 = weights[f"{b}.ffn.w2"], weights[f"{b}.ffn.b2"]
        ff = len(b1)
        for t in range(tokens):
            hidden = [max(0.0, sum(h[t][c] * w1[c][j] for c in range(d)) + b1[j])
                      for j in range(ff)]
            for c in range(d):
                e[t][c] += sum(hidden[j] * w2[j][c] for j in range(ff)) + b2[c]
    dec_w, dec_b = weights["decoder.weight"], weights["decoder.bias"]
    out_dim = len(dec_b)
    out = [[sum(e[t][c] * dec_w[c][o] for c in range(d)) + dec_b[o]
            for o in range(out_dim)] for t in range(tokens)]
    out = np.array(out)
    return out.T if spatial else out


def channel_weight_arrays(params):
    """Strip a ChannelParams dataclass into the plain-array dict the
    scalar oracle consumes."""
    out = {"encoder.weight": params.enc_w.data, "encoder.bias": params.enc_b.data,
           "decoder.weight": params.dec_w.data, "decoder.bias": params.dec_b.data}
    for i, blk in enumerate(params.blocks):
        b = f"block{i}"
        out[f"{b}.ln1.gain"] = blk.ln1_gain.data
        out[f"{b}.ln1.bias"] = blk.ln1_bias.data
        out[f"{b}.ln2.gain"] = blk.ln2_gain.data
        out[f"{b}.ln2.bias"] = blk.ln2_bias.data
        out[f"{b}.attn.wq"] = blk.attn.wq.data
        out[f"{b}.attn.wk"] = blk.attn.wk.data
        out[f"{b}.attn.wv"] = blk.attn.wv.data
        out[f"{b}.attn.wo"] = blk.attn.wo.data
        out[f"{b}.ffn.w1"] = blk.ffn.w1.data
        out[f"{b}.ffn.b1"] = blk.ffn.b1.data
        out[f"{b}.ffn.w2"] = blk.ffn.w2.data
        out[f"{b}.ffn.b2"] = blk.ffn.b2.data
    return out


def scalar_rodrigues(v, small_angle=0.0):
    """Term-by-term Rodrigues formula: R = I + a*K + b*K^2 with a, b
    evaluated directly, or from their Taylor expansions below
    ``small_angle`` (default: no Taylor guard; callers avoid tiny
    angles)."""
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    theta2 = vx * vx + vy * vy + vz * vz
    theta = math.sqrt(theta2)
    eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    if theta == 0.0:
        return np.array(eye)
    k = [[0.0, -vz, vy], [vz, 0.0, -vx], [-vy, vx, 0.0]]
    if theta < small_angle:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / (theta * theta)
    k2 = [[sum(k[i][r] * k[r][j] for r in range(3)) for j in range(3)]
          for i in range(3)]
    return np.array([[eye[i][j] + a * k[i][j] + b * k2[i][j]
                      for j in range(3)] for i in range(3)])


def scalar_zyx_euler(r):
    """Intrinsic Z-Y-X (yaw, pitch, roll) read entry by entry from a 3x3
    rotation; at |R[2][0]| >= 1 - 1e-10 roll is pinned to 0 and the free
    angle goes to yaw."""
    s = -r[2][0]
    if abs(s) >= 1.0 - 1e-10:
        pitch = math.copysign(math.pi / 2.0, s)
        yaw = math.atan2(-r[0][1], r[0][2] if s > 0 else -r[0][2])
        return yaw, pitch, 0.0
    pitch = math.asin(max(-1.0, min(1.0, s)))
    return math.atan2(r[1][0], r[0][0]), pitch, math.atan2(r[2][1], r[2][2])


def scalar_wrap_angle(x):
    return -(((-x + math.pi) % (2.0 * math.pi)) - math.pi)


def scalar_euler_mse(target, pred, exclude=(), translation=()):
    """The frame-by-frame, group-by-group Euler-MSE loop: each rotation
    group goes through ``scalar_rodrigues`` (Taylor guard below 1e-8) and
    ``scalar_zyx_euler``, differences are wrapped and squared; translation
    groups are scored raw and excluded groups skipped."""
    out = []
    for t_row, p_row in zip(target, pred):
        acc = 0.0
        for g in range(len(t_row) // 3):
            cols = (3 * g, 3 * g + 1, 3 * g + 2)
            if any(c in exclude for c in cols):
                continue
            tv = [float(t_row[c]) for c in cols]
            pv = [float(p_row[c]) for c in cols]
            if any(c in translation for c in cols):
                d = [a - b for a, b in zip(tv, pv)]
            else:
                et = scalar_zyx_euler(scalar_rodrigues(tv, small_angle=1e-8))
                ep = scalar_zyx_euler(scalar_rodrigues(pv, small_angle=1e-8))
                d = [scalar_wrap_angle(a - b) for a, b in zip(et, ep)]
            acc += sum(x * x for x in d)
        out.append(acc)
    return np.array(out)


def scalar_recover_autoregressive(corrupted, observed, n_prefix, forecast):
    """The autoregressive sweep cell by cell. Occluded cells before a
    column's first observation take that observation; then, 2 frames at a
    time from the first to the last frame with an occluded cell,
    ``forecast`` (history -> future frames) runs on the reconstruction so
    far, front-padded with its first row to ``n_prefix`` frames, and only
    the occluded cells of those frames take its values."""
    recon = [[float(v) for v in row] for row in corrupted]
    n_frames, n_params = len(recon), len(recon[0])
    occluded = [[not observed[t][p] for p in range(n_params)] for t in range(n_frames)]
    occ_frames = [t for t in range(n_frames) if any(occluded[t])]
    if not occ_frames:
        return np.array(recon)
    for p in range(n_params):
        seen = [t for t in range(n_frames) if observed[t][p]]
        if seen:
            for t in range(seen[0]):
                recon[t][p] = recon[seen[0]][p]
    for pos in range(occ_frames[0], occ_frames[-1] + 1, 2):
        hist = recon[:pos] if pos > 0 else recon[:1]
        hist = [hist[0]] * (n_prefix - len(hist)) + hist
        future = forecast(np.array(hist))
        for t in range(pos, min(pos + 2, n_frames)):
            for p in range(n_params):
                if occluded[t][p]:
                    recon[t][p] = float(future[t - pos][p])
    return np.array(recon)


def reference_clip_gradients(params, max_norm):
    """Global-norm clip with a fresh array per square (the reference for
    ``clip_gradients``); ``params`` maps names to objects with ``grad``."""
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(sq)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


def reference_adam_step(params, m, v, t, lr, b1, b2, eps):
    """One bias-corrected adaptive-moment update at step ``t`` (1-based),
    written as whole-array expressions (the reference for ``adam_step``).
    Raises ValueError naming the first parameter with a non-finite
    gradient, after updating the ones before it."""
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros(p.data.shape)
        if not np.all(np.isfinite(g)):
            raise ValueError(name)
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        p.data -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
