"""Independent numpy re-implementations the output checks compare against.

Inputs (datasets, holdouts, splits, corruption) come from bihpo.data, whose
seeded streams are part of the library's contract. Everything downstream of
the data -- inner gradient descent, reverse accumulation, conjugate
gradients, the one-step online hypergradient and Adam -- is written out here
again, batched over members or splits, and shares no code with the library.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from bihpo.data import (
    Dataset,
    SplitPlan,
    carve_holdout,
    corrupt_labels,
    derive_seed,
    gen_linear,
    gen_multiclass,
    make_splits,
    subset,
)

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CG_TOL = 1e-12


class Adam:
    def __init__(self, alpha: float):
        self.alpha, self.m, self.v, self.t = alpha, 0.0, 0.0, 0

    def step(self, lam, g):
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * g
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = self.m / (1.0 - ADAM_BETA1 ** self.t)
        v_hat = self.v / (1.0 - ADAM_BETA2 ** self.t)
        return lam - self.alpha * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _stack_views(ds, splits):
    Xt = np.stack([ds.X[s.train_idx] for s in splits])
    yt = np.stack([ds.y[s.train_idx] for s in splits])
    Xv = np.stack([ds.X[s.val_idx] for s in splits])
    yv = np.stack([ds.y[s.val_idx] for s in splits])
    return Xt, yt, Xv, yv


def members_curve(p: dict):
    """Variance-vs-U points and log-log slope of ensemble_variance_curve (ridge, ITD)."""
    n_members = sum(p["U_list"]) * p["R"]
    data, splits = [], []
    for c in range(n_members):
        ds, _ = gen_linear(p["n"], p["d"], p["noise_sigma"],
                           seed=derive_seed(p["curve_seed"], 2 * c), beta_seed=p["beta_seed"])
        plan = SplitPlan(U=1, gamma=p["gamma"], master_seed=derive_seed(p["curve_seed"], 2 * c + 1))
        data.append(ds)
        splits.append(make_splits(ds.n, plan)[0])
    Xt = np.stack([ds.X[s.train_idx] for ds, s in zip(data, splits)])
    yt = np.stack([ds.y[s.train_idx] for ds, s in zip(data, splits)])
    Xv = np.stack([ds.X[s.val_idx] for ds, s in zip(data, splits)])
    yv = np.stack([ds.y[s.val_idx] for ds, s in zip(data, splits)])

    # inner loss (1/m)||X theta - y||^2 + lam ||theta||^2, lam = exp(u)
    lam = p["lambda_eff"]
    alpha, K = p["alpha_in"], p["K"]
    A = np.einsum("bmi,bmj->bij", Xt, Xt) / Xt.shape[1]
    b = np.einsum("bmi,bm->bi", Xt, yt) / Xt.shape[1]
    thetas = [np.zeros((n_members, p["d"]))]
    for _ in range(K):
        th = thetas[-1]
        thetas.append(th - alpha * (2.0 * (np.einsum("bij,bj->bi", A, th) - b) + 2.0 * lam * th))
    resid = np.einsum("bmi,bi->bm", Xv, thetas[-1]) - yv
    a = (2.0 / Xv.shape[1]) * np.einsum("bm,bmi->bi", resid, Xv)
    g = np.zeros(n_members)
    for k in range(K - 1, -1, -1):
        g -= alpha * 2.0 * lam * np.einsum("bi,bi->b", thetas[k], a)
        a = a - alpha * (2.0 * np.einsum("bij,bj->bi", A, a) + 2.0 * lam * a)

    points, start = [], 0
    for U in p["U_list"]:
        block = g[start:start + U * p["R"]].reshape(p["R"], U)
        start += U * p["R"]
        means = block.mean(axis=1)
        points.append((U, float(np.mean((means - means.mean()) ** 2))))
    slope = float(np.polyfit(np.log([u for u, _ in points]), np.log([v for _, v in points]), 1)[0])
    return points, slope


def _pool_and_holdout(ds, data_cfg):
    if data_cfg["test_fraction"] > 0:
        pool_idx, test_idx = carve_holdout(ds.n, data_cfg["test_fraction"], data_cfg["test_seed"])
        return subset(ds, pool_idx), test_idx
    return ds, None


def tune_final_lambda(cfg: dict) -> float:
    """Final raw lambda of `bihpo tune`: logistic_l2, ehg, AID_CG, Adam, theta0 = 0."""
    s = cfg["data"]["synthetic"]
    raw, _ = gen_multiclass(s["n"], s["d"], 2, s["noise_sigma"], seed=s["seed"],
                            beta_seed=s["beta_seed"])
    ds = Dataset(X=raw.X, y=2.0 * raw.y - 1.0, task="binary")
    pool, _ = _pool_and_holdout(ds, cfg["data"])
    sp = cfg["split"]
    splits = make_splits(pool.n, SplitPlan(U=sp["U"], gamma=sp["gamma"],
                                           master_seed=sp["master_seed"]))
    Xt, yt, Xv, yv = _stack_views(pool, splits)
    U, m, d = Xt.shape
    me, st = cfg["method"], cfg["strategy"]
    alpha, K, Z = me["alpha_in"], me["K"], me["Z"]

    def data_grad(th, X, y):
        return -np.einsum("bmi,bm->bi", X, y * expit(-y * np.einsum("bmi,bi->bm", X, th))) / X.shape[1]

    u = float(st["lambda0"])
    opt = Adam(st["outer"]["alpha_out"])
    for _ in range(st["T"]):
        lam = math.exp(u)
        th = np.zeros((U, d))
        for _ in range(K):
            th = th - alpha * (data_grad(th, Xt, yt) + 2.0 * lam * th)
        yz = yt * np.einsum("bmi,bi->bm", Xt, th)
        w = expit(yz) * expit(-yz)
        rhs = data_grad(th, Xv, yv)
        v = np.zeros((U, d))
        for i in range(U):  # conjugate gradients per split, each with its own stop
            X, wi = Xt[i], w[i]
            target = CG_TOL * max(1.0, float(np.linalg.norm(rhs[i])))
            r = rhs[i].copy()
            rs = float(r @ r)
            pdir = r.copy()
            for _ in range(Z):
                if math.sqrt(rs) <= target:
                    break
                Ap = X.T @ (wi * (X @ pdir)) / m + 2.0 * lam * pdir
                step = rs / float(pdir @ Ap)
                v[i] = v[i] + step * pdir
                r = r - step * Ap
                rs_new = float(r @ r)
                pdir = r + (rs_new / rs) * pdir
                rs = rs_new
        g = -2.0 * lam * np.einsum("bi,bi->b", th, v)
        u = float(opt.step(u, float(np.mean(g))))
    return u


def _softmax(Z):
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True)


def clean_weights(cfg: dict) -> list[float]:
    """Final raw per-row weights of `bihpo clean`: hyperclean_softmax, OEHG, Adam."""
    s = cfg["data"]["synthetic"]
    k = s["classes"]
    ds, _ = gen_multiclass(s["n"], s["d"], k, s["noise_sigma"], seed=s["seed"],
                           beta_seed=s["beta_seed"])
    pool, _ = _pool_and_holdout(ds, cfg["data"])
    sp = cfg["split"]
    split = make_splits(pool.n, SplitPlan(U=1, gamma=sp["gamma"], master_seed=sp["master_seed"]))[0]
    corrupted, _ = corrupt_labels(pool, cfg["data"]["corrupt"]["p"], cfg["data"]["corrupt"]["seed"])
    Xt, yt = pool.X[split.train_idx], corrupted.y[split.train_idx].astype(np.int64)
    Xv, yv = pool.X[split.val_idx], pool.y[split.val_idx].astype(np.int64)
    Yt, Yv = np.eye(k)[yt], np.eye(k)[yv]
    m, d = Xt.shape
    st = cfg["strategy"]
    alpha = cfg["method"]["alpha_in"]

    u = np.zeros(m)
    shadow = np.zeros((d, k))
    opt = Adam(st["outer"]["alpha_out"])
    for _ in range(st["T"]):
        R = _softmax(Xt @ shadow) - Yt
        theta_prime = shadow - alpha * (Xt.T @ (R * expit(u)[:, None])) / m
        a = (Xv.T @ (_softmax(Xv @ theta_prime) - Yv)) / Xv.shape[0]
        g = -alpha * expit(u) * expit(-u) * np.sum(R * (Xt @ a), axis=1) / m
        shadow = theta_prime
        u = opt.step(u, g)
    return [float(x) for x in u]
