"""Numbered end-to-end acceptance checks for the whole toolkit.

One test per criterion, in order, each emitting a single
"[criterion NN] PASS/FAIL" line (printed unbuffered so the suite output
doubles as a checklist).  Every threshold is pinned and every seed is fixed;
a failure here means a contract of the library changed, not that a die
rolled badly.
"""

import json

import numpy as np

from bsskit import (
    AdaptConfig,
    CubicScore,
    Cumulant4Tensor,
    DegenerateSpectra,
    Diverged,
    MixingModel,
    OneUnitState,
    SourceSpec,
    adaptive_update,
    amuse,
    batch_update_direction,
    deflate_extract,
    deterministic_cm,
    estimate_cum4,
    fastica_step,
    generate_sources,
    global_system,
    jacobi_diagonalize,
    jade,
    jade_rotation,
    kruskal_check,
    kurtosis,
    lift_convolutive,
    make_score,
    mix,
    psi4_contrast,
    rank1_init,
    run_separation,
    separation_index,
    stability_check,
    tucker_transform,
    unimodal_equalizer,
    universal_criterion,
    whiten,
)
from bsskit.cli import main


def _verdict(capsys, n, ok, detail=""):
    with capsys.disabled():
        extra = f"  ({detail})" if detail and not ok else ""
        print(f"\n[criterion {n:02d}] {'PASS' if ok else 'FAIL'}{extra}", flush=True)
    assert ok, detail or f"criterion {n:02d} failed"


def _random_mixing(n, seed):
    return np.random.default_rng(seed).standard_normal((n, n))


def _random_orthogonal(n, seed):
    M = np.random.default_rng(seed).standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    return Q * np.sign(np.diag(R))


def _diag_tensor(c4s):
    n = len(c4s)
    V = np.zeros((n, n, n, n))
    for i, c in enumerate(c4s):
        V[i, i, i, i] = c
    return Cumulant4Tensor(V)


def _index_after(separator_rows, H):
    return separation_index(global_system(separator_rows, H).matrix)


# ------------------------------------------------------------ 1: dimensions


def test_criterion_01_block_toeplitz_dimensions(capsys):
    taps = np.random.default_rng(0).standard_normal((30, 4, 2))  # order-29 MIMO
    theta = lift_convolutive(taps, 20)
    _verdict(capsys, 1, theta.shape == (80, 98), f"got {theta.shape}")


# ------------------------------------------------------------ 2: kurtosis


def test_criterion_02_kurtosis_suite(capsys):
    targets = {"bpsk": -2.0, "uniform": -1.2, "laplace": 3.0, "gaussian": 0.0}
    worst = 0.0
    for k, (kind, target) in enumerate(targets.items()):
        A = generate_sources([SourceSpec(kind, seed=50 + k)], 100_000)
        worst = max(worst, abs(kurtosis(A.data[0]) - target))
    _verdict(capsys, 2, worst < 0.1, f"worst deviation {worst:.3f}")


# ------------------------------------------- 3: orthogonal norm invariance


def test_criterion_03_tensor_norm_invariance(capsys):
    worst_norm, worst_mass = 0.0, 0.0
    for i in range(50):
        n = 2 + i % 3
        raw = np.random.default_rng(3000 + i).standard_normal((n, n, n, n))
        C0 = Cumulant4Tensor(raw)  # symmetrized on construction
        C1 = tucker_transform(C0, _random_orthogonal(n, 3100 + i))
        worst_norm = max(worst_norm, abs(np.linalg.norm(C1.values) - np.linalg.norm(C0.values)))
        d0, o0 = psi4_contrast(C0)
        d1, o1 = psi4_contrast(C1)
        worst_mass = max(worst_mass, abs((d1 + o1) - (d0 + o0)))
    _verdict(capsys, 3, worst_norm < 1e-10 and worst_mass < 1e-8,
             f"norm dev {worst_norm:.2e}, mass dev {worst_mass:.2e}")


# --------------------------------------------------------- 4: multilinearity


def test_criterion_04_multilinearity_against_estimator(capsys):
    specs = [SourceSpec("bpsk", seed=1), SourceSpec("uniform", seed=2),
             SourceSpec("laplace", seed=3)]
    A = generate_sources(specs, 100_000)
    H = _random_mixing(3, 500)
    U = mix(MixingModel("static", matrix=H), A)
    predicted = tucker_transform(_diag_tensor([-2.0, -1.2, 3.0]), H).values
    estimated = estimate_cum4(U).values
    # per-entry Monte Carlo standard error from 20 disjoint blocks
    X = U.data
    blocks = np.stack([estimate_cum4(X[:, b * 5000:(b + 1) * 5000]).values for b in range(20)])
    se = np.maximum(blocks.std(axis=0, ddof=1) / np.sqrt(20), 1e-12)
    z = float((np.abs(estimated - predicted) / se).max())
    _verdict(capsys, 4, z < 3.0, f"max |error|/SE = {z:.2f}")


# ------------------------------------------------------------------ 5: AMUSE


def test_criterion_05_amuse_temporal_separation(capsys):
    hits = 0
    for s in range(20):
        A = generate_sources([SourceSpec("ar1", ar_coefficient=0.9, seed=5 * s + 1),
                              SourceSpec("ar1", ar_coefficient=0.1, seed=5 * s + 2)], 50_000)
        H = _random_mixing(2, 400 + s)
        sep = amuse(mix(MixingModel("static", matrix=H), A))
        hits += _index_after(sep.matrix, H) < -20.0
    degenerate = 0
    for s in range(20):
        A = generate_sources([SourceSpec("bpsk", seed=7 * s + 1),
                              SourceSpec("bpsk", seed=7 * s + 2)], 20_000)
        try:
            amuse(mix(MixingModel("static", matrix=_random_mixing(2, 600 + s)), A))
        except DegenerateSpectra:
            degenerate += 1
    _verdict(capsys, 5, hits >= 18 and degenerate == 20,
             f"ar1 hits {hits}/20, white rejections {degenerate}/20")


# ------------------------------------------------- 6: adaptive equivariance


def test_criterion_06_relative_gradient_separation(capsys):
    hits = 0
    worst = 0.0
    for s in range(20):
        A = generate_sources([SourceSpec("bpsk", seed=3 * s + k) for k in range(3)], 20_000)
        H = np.random.default_rng(1000 + s).standard_normal((3, 3))
        U = mix(MixingModel("static", matrix=H), A)
        whitener, Z = whiten(U)
        scores = [make_score("cubic") for _ in range(3)]
        sep, _ = run_separation(Z, scores, AdaptConfig(step_size=0.005, max_iterations=2))
        idx = _index_after(sep.matrix @ whitener.matrix, H)
        worst = max(worst, idx)
        hits += idx < -15.0
    # per-step equivariance: updating G then forming GH equals updating GH
    eq_dev = 0.0
    for i in range(10):
        rng = np.random.default_rng(4000 + i)
        H = rng.standard_normal((3, 3))
        G = np.linalg.inv(H) + 0.1 * rng.standard_normal((3, 3))
        a = rng.standard_normal(3)
        scores = [CubicScore() for _ in range(3)]
        G2 = adaptive_update(G, H @ a, scores, AdaptConfig(step_size=0.004, mode="relative"))
        y = G @ H @ a
        f = np.array([s.f(np.array([yi]))[0] for s, yi in zip(scores, y)])
        S2 = (G @ H) + 0.004 * (np.eye(3) - np.outer(f, y)) @ (G @ H)
        eq_dev = max(eq_dev, float(np.max(np.abs(G2 @ H - S2))))
    _verdict(capsys, 6, hits >= 18 and eq_dev < 1e-12,
             f"hits {hits}/20 (worst {worst:.1f} dB), equivariance dev {eq_dev:.1e}")


# ------------------------------------------------------ 7: stability classes


def test_criterion_07_stability_classifier(capsys):
    cubic = [make_score("cubic"), make_score("cubic")]

    A = generate_sources([SourceSpec("bpsk", seed=25)], 10_000)
    rep = stability_check(A.data, [make_score("cubic")])
    bpsk_ok = rep.verdict and abs(rep.kappa[0] - 2.0) < 0.1

    A = generate_sources([SourceSpec("gaussian", seed=23), SourceSpec("gaussian", seed=24)], 100_000)
    rep = stability_check(A.data, cubic)
    gauss_ok = (not rep.verdict) and any("(1 + kappa[0])(1 + kappa[1])" in v for v in rep.violations)

    A = generate_sources([SourceSpec("laplace", seed=21), SourceSpec("laplace", seed=22)], 500_000)
    rep = stability_check(A.data, cubic)
    lap_ok = ((not rep.verdict)
              and any(v.startswith("1 + kappa[") and v.endswith("<= 0") for v in rep.violations)
              and np.all(np.abs(rep.kappa + 3.0) < 0.2))

    # empirical corroboration: start at the exact separator of the unstable
    # laplace/cubic pair (identity mixing) and watch the index degrade
    A = generate_sources([SourceSpec("laplace", seed=31), SourceSpec("laplace", seed=32)], 5_000)
    before = separation_index(np.eye(2))
    try:
        sep, _ = run_separation(A, cubic, AdaptConfig(step_size=0.005, max_iterations=1))
        after = separation_index(sep.matrix)
        drifted = after >= before + 10.0
        drift_note = f"{before:.0f} -> {after:.1f} dB"
    except Diverged:
        drifted, drift_note = True, "diverged outright"
    _verdict(capsys, 7, bpsk_ok and gauss_ok and lap_ok and drifted,
             f"bpsk {bpsk_ok}, gaussian {gauss_ok}, laplace {lap_ok}, drift {drift_note}")


# --------------------------------------------- 8: fixed point vs power step


def _product_design(spreads):
    # one atom set per channel: {-a, 0 x (spread-2), +a}, a = sqrt(spread/2);
    # the full cartesian product has exactly the population joint moments
    atoms = []
    for spread in spreads:
        a = np.sqrt(spread / 2.0)
        atoms.append(np.array([-a] + [0.0] * (spread - 2) + [a]))
    grids = np.meshgrid(*atoms, indexing="ij")
    return np.vstack([g.ravel() for g in grids])


def test_criterion_08_fixed_point_is_shifted_power_step(capsys):
    X = _random_orthogonal(2, 77) @ _product_design((2, 4))  # c4 = -2, -1
    V = estimate_cum4(X).values
    worst = 0.0
    for i in range(5):
        g = np.random.default_rng(5000 + i).standard_normal(2)
        g /= np.linalg.norm(g)
        got = fastica_step(OneUnitState(g=g), X, CubicScore(), variant="fixed_point").g
        t = np.einsum("ijkl,j,k,l->i", V, g, g, g) + 3.0 * g
        t /= np.linalg.norm(t)
        if t[int(np.argmax(np.abs(t)))] < 0:
            t = -t
        worst = max(worst, float(np.max(np.abs(got - t))))
    hits = 0
    for s in range(20):
        A = generate_sources([SourceSpec("bpsk", seed=3 * s + 1), SourceSpec("bpsk", seed=3 * s + 2),
                              SourceSpec("uniform", seed=3 * s + 3)], 20_000)
        H = _random_mixing(3, 800 + s)
        U = mix(MixingModel("static", matrix=H), A)
        whitener, Z = whiten(U)
        sep = deflate_extract(Z, lambda: make_score("cubic"), 3, seed=s)
        hits += _index_after(sep.matrix @ whitener.matrix, H) < -15.0
    _verdict(capsys, 8, worst < 1e-8 and hits >= 18,
             f"step mismatch {worst:.2e}, deflation hits {hits}/20")


# ------------------------------------------------------ 9: plain = gradient


def test_criterion_09_plain_update_is_criterion_gradient(capsys):
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(7000 + i)
        X = rng.standard_normal((2, 256))
        G = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
        scores = [CubicScore(), CubicScore()]
        D = batch_update_direction(G, X, scores, mode="plain")
        eps = 1e-6
        num = np.zeros_like(G)
        for r in range(2):
            for c in range(2):
                Gp, Gm = G.copy(), G.copy()
                Gp[r, c] += eps
                Gm[r, c] -= eps
                num[r, c] = (universal_criterion(Gp, X, scores)
                             - universal_criterion(Gm, X, scores)) / (2 * eps)
        worst = max(worst, float(np.max(np.abs(D - num)) / np.max(np.abs(num))))
    _verdict(capsys, 9, worst < 1e-5, f"worst relative error {worst:.2e}")


# ------------------------------------------------------ 10: jacobi and jade


def test_criterion_10_joint_diagonalization_recovery(capsys):
    worst_off = 0.0
    for i in range(5):
        C = tucker_transform(_diag_tensor([-2.0, -1.2, 1.0]), _random_orthogonal(3, 6000 + i))
        worst_off = max(worst_off, psi4_contrast(tucker_transform(C, jacobi_diagonalize(C)))[1])
        worst_off = max(worst_off, psi4_contrast(tucker_transform(C, jade_rotation(C).T))[1])
    jacobi_hits, jade_hits = 0, 0
    for s in range(20):
        A = generate_sources([SourceSpec("bpsk", seed=4 * s + 1), SourceSpec("bpsk", seed=4 * s + 2),
                              SourceSpec("bpsk", seed=4 * s + 3)], 20_000)
        H = _random_mixing(3, 1200 + s)
        U = mix(MixingModel("static", matrix=H), A)
        whitener, Z = whiten(U)
        Q = jacobi_diagonalize(estimate_cum4(Z))
        jacobi_hits += _index_after(Q @ whitener.matrix, H) < -15.0
        jade_hits += _index_after(jade(U).matrix, H) < -15.0
    _verdict(capsys, 10, worst_off < 1e-10 and jacobi_hits >= 18 and jade_hits >= 18,
             f"offdiag mass {worst_off:.2e}, jacobi {jacobi_hits}/20, jade {jade_hits}/20")


# -------------------------------------------------------- 11: rank-1 bounds


def test_criterion_11_rank1_init_bounds(capsys):
    worst_low, worst_high, worst_match = 0.0, 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        c4s = -(0.5 + np.array([0.0, 0.7, 1.4]) + rng.uniform(0, 0.5, 3))
        C = tucker_transform(_diag_tensor(list(c4s)), _random_orthogonal(3, 800 + seed))
        r = rank1_init(C)
        psi = abs(float(np.einsum("ijkl,i,j,k,l->", C.values, r.g0, r.g0, r.g0, r.g0)))
        lam = abs(r.eigenvalue)
        worst_low = max(worst_low, r.varsigma**2 * lam - psi)
        worst_high = max(worst_high, psi - lam)
        worst_match = max(worst_match, abs(psi - float(np.max(np.abs(c4s)))))
    _verdict(capsys, 11, worst_low < 1e-10 and worst_high < 1e-10 and worst_match < 1e-6,
             f"bound slacks {worst_low:.2e}/{worst_high:.2e}, contrast vs max|c4| {worst_match:.2e}")


# ------------------------------------------------- 12: unimodal equalization


def test_criterion_12_unimodal_equalizer_replica(capsys):
    hits = 0
    worst_sym, worst_norm = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = generate_sources([SourceSpec("bpsk", seed=seed * 2 + 1),
                              SourceSpec("bpsk", seed=seed * 2 + 2)], 20_000)
        taps = rng.standard_normal((6, 4, 2)) / np.sqrt(6)  # order-5, 4 sensors
        U = mix(MixingModel("convolutive", taps=list(taps)), A)
        result = unimodal_equalizer(U, mu1=0.05, mu2=0.02, L=16, epochs=5)
        y = result.outputs(U)
        s = np.sign(y)
        s[s == 0] = 1.0
        offset = result.window_length - 1
        best = 0.0
        for k in range(A.channel_count):
            for d in range(16 + 5 + 1):
                if offset - d < 0:
                    continue
                src = np.sign(A.data[k][offset - d: offset - d + len(y)])
                agree = float(np.mean(s == src))
                best = max(best, agree, 1.0 - agree)
        hits += best >= 0.99
        worst_sym = max(worst_sym, result.max_w_asymmetry)
        worst_norm = max(worst_norm, result.max_g_norm_dev)
    _verdict(capsys, 12, hits >= 18 and worst_sym < 1e-12 and worst_norm < 1e-12,
             f"hits {hits}/20, symmetry dev {worst_sym:.1e}, norm dev {worst_norm:.1e}")


# ------------------------------------------------------- 13: deterministic CM


def test_criterion_13_deterministic_cm_blocks(capsys):
    worst = 0.0
    for s in range(20):
        A = generate_sources([SourceSpec("bpsk", seed=2 * s + 1),
                              SourceSpec("bpsk", seed=2 * s + 2)], 64)
        U = mix(MixingModel("static", matrix=_random_mixing(2, 1500 + s)), A)
        y = deterministic_cm(U).g @ U.data
        worst = max(worst, float(np.max(np.abs(y * y - 1.0))))
    _verdict(capsys, 13, worst < 1e-6, f"worst modulus deviation {worst:.2e}")


# ----------------------------------------------------------- 14: uniqueness


def test_criterion_14_kruskal_bound(capsys):
    table_ok = all(kruskal_check(M, N) == (4 * M >= 2 * N + 3)
                   for M in range(1, 11) for N in range(1, 11))
    _verdict(capsys, 14, kruskal_check(3, 4) and not kruskal_check(2, 3) and table_ok)


# ----------------------------------------------------- 15: CLI determinism


def test_criterion_15_cli_determinism(capsys, tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(
        "source.1.kind = bpsk\n"
        "source.2.kind = bpsk\n"
        "source.3.kind = bpsk\n"
        "samples = 4000\n"
        "mixing = random_orthogonal\n"
        "algorithm = jade\n"
        "seed = 9\n"
        "repetitions = 3\n"
    )
    outs = []
    for run in range(2):
        out = tmp_path / f"records{run}.jsonl"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        canonical = []
        for line in out.read_text().splitlines():
            record = json.loads(line)
            record.pop("elapsed_s", None)
            canonical.append(json.dumps(record, sort_keys=True))
        outs.append(canonical)
    _verdict(capsys, 15, len(outs[0]) == 3 and outs[0] == outs[1],
             f"{len(outs[0])} records, identical: {outs[0] == outs[1]}")
