"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines as
they print).
"""

import time

import numpy as np

from conftest import HELD_OUT_SPECS
from helpers import (
    adjacency_lists,
    basis_pair,
    encode,
    end_to_end_grads,
    end_to_end_loss,
    fd_check_grads,
    forward_one,
    gapped_lattice_cube,
    lattice_cube,
    patch_features,
    random_patch_arrays,
)
from pcedge import cli, metrics, net, segment, synth, trainer
from pcedge.cloud import (
    PointCloud,
    add_gaussian_noise,
    build_index,
    downsample,
    extract_patches,
)
from pcedge.io import save_cloud
from pcedge.rbf import _basis_matrices


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


# -------------------------------------------------------------------------
# Criterion 1: gradient correctness, every layer and end-to-end, 10 seeds
# -------------------------------------------------------------------------

def test_criterion_1_gradients():
    started = time.perf_counter()
    worst = 0.0
    total = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = net.init_params(4, seed=seed + 100)
        p = params.tensors

        # layer norm: the plain normaliser, then its gain and bias folded into
        # a projection; with w = I and c = 0 that is the layer norm itself
        x = rng.normal(size=(6, 6))
        g, b = rng.normal(size=6), rng.normal(size=6)
        proj = rng.normal(size=(6, 6))
        w_ln, c_ln = np.eye(6), np.zeros(6)

        def ln_loss():
            return float((net._folded_fwd(net._norm_fwd(x)[0], g, b, w_ln, c_ln)[0] * proj).sum())

        xhat, inv = net._norm_fwd(x)
        _, cache = net._folded_fwd(xhat, g, b, w_ln, c_ln)
        dxhat, dw, dc, dg, db = net._folded_bwd(proj, cache)
        dx = net._norm_bwd(dxhat, xhat, inv)
        w, c = fd_check_grads(
            ln_loss, {"x": x, "g": g, "b": b, "w": w_ln, "c": c_ln},
            {"x": dx, "g": dg, "b": db, "w": dw, "c": dc}, rng=rng)
        worst, total = max(worst, w), total + c

        # attention sublayer, on normalised rows, with ln1's gain and bias
        # (the random g and b above) folded into its q/k/v projection
        pa = params.copy().tensors
        pa["enc.0.ln1.g"][:], pa["enc.0.ln1.b"][:] = g, b
        xa = rng.normal(size=(2 * 4, 6))
        proj_a = rng.normal(size=(2 * 4, 6))
        _, cache = net._attention_fwd(xa, 2, 4, pa, 0)
        grads = {}
        dxa = net._attention_bwd(proj_a, 2, 4, cache, grads, 0)
        tensors = {n: pa[n] for n in pa if n.startswith(("enc.0.attn.", "enc.0.ln1."))}
        tensors["x"] = xa
        grads["x"] = dxa
        w, c = fd_check_grads(
            lambda: float((net._attention_fwd(xa, 2, 4, pa, 0)[0] * proj_a).sum()),
            tensors, grads, rng=rng)
        worst, total = max(worst, w), total + c

        # full encoder layer (layer norms + attention + feed-forward)
        xe = rng.normal(size=(2 * 4, 6))
        proj_e = rng.normal(size=(2 * 4, 6))
        _, cache = net._encoder_layer_fwd(xe, 2, 4, p, 2)
        grads = {}
        dxe = net._encoder_layer_bwd(proj_e, 2, 4, cache, grads, 2)
        tensors = {n: p[n] for n in p if n.startswith("enc.2.")}
        tensors["x"] = xe
        grads["x"] = dxe
        w, c = fd_check_grads(
            lambda: float((net._encoder_layer_fwd(xe, 2, 4, p, 2)[0] * proj_e).sum()),
            tensors, grads, rng=rng)
        worst, total = max(worst, w), total + c

        # RBF descriptor block (both FCs and both MLP heads)
        dvg = rng.normal(size=(3, 2, 3))
        scg = rng.uniform(0.5, 2.0, size=3)
        pe, pc = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        _, _, cache = net._rbf_group_fwd(_basis_matrices(dvg, scg), p, "first")
        grads = {}
        net._rbf_group_bwd(pe, pc, cache, grads, "first")
        tensors = {n: p[n] for n in p if n.startswith("rbf.first.")}

        def rbf_loss():
            fe, fc, _ = net._rbf_group_fwd(_basis_matrices(dvg, scg), p, "first")
            return float((fe * pe).sum() + (fc * pc).sum())

        w, c = fd_check_grads(rbf_loss, tensors, grads, rng=rng)
        worst, total = max(worst, w), total + c

        # decoder; every parameter on two seeds, a wide subsample otherwise
        xd = rng.normal(size=(2 * 4, 6))
        proj_d = rng.normal(size=2)
        _, cache = net._decoder_fwd(xd, 2, p)
        grads = {}
        dxd = net._decoder_bwd(proj_d, cache, grads)
        tensors = {n: p[n] for n in p if n.startswith("dec.")}
        tensors["x"] = xd
        grads["x"] = dxd
        cap = None if seed < 2 else 200
        w, c = fd_check_grads(
            lambda: float((net._decoder_fwd(xd, 2, p)[0] * proj_d).sum()),
            tensors, grads, entries_per_tensor=cap, rng=rng)
        worst, total = max(worst, w), total + c

        # end to end: BCE(forward(patch)) against every tensor, subsampled
        dvecs, offsets, scales = random_patch_arrays(rng, 2, 4)
        y = np.array([1.0, 0.0])
        grads = end_to_end_grads(dvecs, offsets, scales, y, params)
        loss_fn = end_to_end_loss(dvecs, offsets, scales, y, params)
        w, c = fd_check_grads(loss_fn, params.tensors, grads,
                              entries_per_tensor=8, rng=rng)
        worst, total = max(worst, w), total + c

    elapsed = time.perf_counter() - started
    report(1, worst <= 1e-4 and elapsed < 60.0,
           f"worst rel err {worst:.2e} over {total} entries, 10 seeds, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# Criterion 2: oracle equivalence on >= 100 random fixtures
# -------------------------------------------------------------------------

def test_criterion_2_oracles():
    started = time.perf_counter()
    fixtures = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(80, 2001)) if seed % 10 == 0 else int(rng.integers(80, 400))
        pts = rng.random((n, 3)) * rng.uniform(0.5, 3.0)
        cloud = PointCloud(pts)
        index = build_index(cloud)

        # kNN vs brute force
        k = int(rng.choice([1, 4, 16, 64]))
        q = rng.random(3)
        d = np.linalg.norm(pts - q, axis=1)
        expected = np.lexsort((np.arange(n), d))[: min(k, n)]
        assert index.query_many(q[None], k)[0].tolist() == expected.tolist()

        # filtered-kNN vs reference
        kk = int(rng.choice([4, 8, 16]))
        if n >= 2 * kk + 1:
            i = int(rng.integers(0, n))
            neighbor_idx = extract_patches(cloud, index, np.array([i]), kk)[3][0]
            di = np.linalg.norm(pts - pts[i], axis=1)
            order = np.lexsort((np.arange(n), di))
            order = order[order != i][: 2 * kk]
            neigh = pts[order]
            centered = neigh - neigh.mean(axis=0)
            _, vecs = np.linalg.eigh(centered.T @ centered)
            axis = vecs[:, 0]
            offs = np.abs((neigh - pts[i]) @ axis)
            keep = order[np.lexsort((order, di[order], offs))[:kk]]
            keep = keep[np.lexsort((keep, di[keep]))]
            assert neighbor_idx.tolist() == keep.tolist()

        # distance matrices vs double loop
        m = int(rng.integers(2, 9))
        dv = rng.normal(size=(m, 3))
        s = float(rng.uniform(0.3, 2.0))
        m_euc, m_cos = basis_pair(dv, s)
        units = dv / np.linalg.norm(dv, axis=1, keepdims=True)
        for a in range(m):
            for b_i in range(m):
                e = 1.0 if a == b_i else np.exp(-(np.linalg.norm(dv[a] - dv[b_i]) / s) ** 2)
                cgt = 1.0 if a == b_i else float(units[a] @ units[b_i]) ** 3
                assert abs(m_euc[a, b_i] - e) <= 1e-12
                assert abs(m_cos[a, b_i] - cgt) <= 1e-12

        # chamfer and matching vs brute force
        na, nb = int(rng.integers(5, 120)), int(rng.integers(5, 120))
        a_set = rng.random((na, 3))
        b_set = rng.random((nb, 3))
        dmat = np.linalg.norm(a_set[:, None] - b_set[None, :], axis=2)
        brute_cd = dmat.min(axis=1).mean() + dmat.min(axis=0).mean()
        assert abs(metrics.chamfer(a_set, b_set) - brute_cd) <= 1e-12
        tp = int((dmat.min(axis=1) < 0.02).sum())
        fn = int((dmat.min(axis=0) >= 0.02).sum())
        assert metrics.match_counts(a_set, b_set) == (tp, na - tp, fn)

        # kNN-graph adjacency vs brute force
        gk = 5
        if n <= 400:
            graph = segment.knn_graph(cloud, gk)
            rows = graph.indices.reshape(n, gk)
            pairs = set()
            for i in range(n):
                order = np.lexsort((np.arange(n), np.linalg.norm(pts - pts[i], axis=1)))
                assert rows[i].tolist() == order[order != i][:gk].tolist()
                for j in order[order != i][:gk]:
                    pairs.add((i, int(j)))
                    pairs.add((int(j), i))
            expected_adj = [sorted(j for (x, j) in pairs if x == i) for i in range(n)]
            assert [a.tolist() for a in adjacency_lists(graph)] == expected_adj
        fixtures += 1

    elapsed = time.perf_counter() - started
    report(2, fixtures >= 100 and elapsed < 120.0,
           f"{fixtures} fixtures, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# Criteria 3 and 4: the one-shot desk-scale experiment and its robustness
# -------------------------------------------------------------------------

def test_criterion_3_one_shot_experiment(one_shot_experiment):
    exp = one_shot_experiment
    reports = exp["reports"]
    ok = reports["train"].fscore >= 0.98
    details = [f"train F {reports['train'].fscore:.4f}"]
    for spec in HELD_OUT_SPECS:
        rep = reports[spec.kind]
        ok = ok and rep.fscore >= 0.85 and rep.cd <= 0.02
        details.append(f"{spec.kind} F {rep.fscore:.4f} CD {rep.cd:.4f}")
    ok = ok and exp["seconds"] <= 1800.0
    details.append(f"{exp['seconds']:.0f}s wall clock")
    report(3, ok, "; ".join(details))


def test_criterion_4_robustness(one_shot_experiment):
    exp = one_shot_experiment
    params = exp["params"]
    ok = True
    details = []
    for spec in HELD_OUT_SPECS:
        gt = exp["held_clouds"][spec.kind]
        clean_f = exp["reports"][spec.kind].fscore
        noisy = add_gaussian_noise(gt, 0.03, seed=501)
        pred_n, _ = trainer.predict(noisy, params, batch=512)
        f_noise = metrics.evaluate(pred_n, noisy).fscore
        sparse = downsample(gt, 0.75, seed=502)
        pred_s, _ = trainer.predict(sparse, params, batch=512)
        f_sparse = metrics.evaluate(pred_s, sparse).fscore
        ok = ok and (clean_f - f_noise) <= 0.10 and (clean_f - f_sparse) <= 0.12
        details.append(f"{spec.kind}: clean {clean_f:.3f} noise03 {f_noise:.3f} keep75 {f_sparse:.3f}")
    report(4, ok, "; ".join(details))


# -------------------------------------------------------------------------
# Criterion 5: filtered-kNN purity on the parallel-plane fixture
# -------------------------------------------------------------------------

def test_criterion_5_filtered_knn_purity():
    gap, spacing, side = 0.05, 0.02, 20
    ax = np.arange(side) * spacing
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    sheet = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(side * side)])
    pts = np.vstack([sheet, sheet + [0.0, 0.0, gap]])
    cloud = PointCloud(pts)
    index = build_index(cloud)
    per_sheet = side * side

    # Interior targets (two-ring margin): at the open sheet border the
    # candidate set degenerates to two quarter-planes whose in-plane and
    # cross-sheet variances are comparable, so the minimal-variance axis is
    # not the sheet normal there; that is a property of the method, not of
    # this implementation.
    on_border = ((pts[:, 0] < 2 * spacing) | (pts[:, 0] > (side - 3) * spacing) |
                 (pts[:, 1] < 2 * spacing) | (pts[:, 1] > (side - 3) * spacing))
    interior = np.nonzero(~on_border)[0]
    _, _, _, neighbor_idx = extract_patches(cloud, index, interior, 16)
    same_sheet = (neighbor_idx < per_sheet) == (interior[:, None] < per_sheet)
    purity = float(same_sheet.mean())

    # The unfiltered candidate set of those same targets does include
    # opposite-sheet points, and plain 16NN crosses sheets near the border:
    # the filter is what rejects them.
    cand = index.query_many(pts[interior], 33)
    cand_cross = ((cand < per_sheet) != (interior[:, None] < per_sheet)).any(axis=1)
    all_targets = np.arange(2 * per_sheet)
    plain = index.query_many(pts, 17)
    plain = np.array([row[row != i][:16] for i, row in enumerate(plain)])
    plain_cross = ((plain < per_sheet) != (all_targets[:, None] < per_sheet)).any()

    report(5, purity == 1.0 and cand_cross.all() and bool(plain_cross),
           f"interior filtered purity {purity:.4f} "
           f"(candidates cross sheets for 100% of targets; plain 16NN crosses: {plain_cross})")


# -------------------------------------------------------------------------
# Criterion 6: segmentation counts on cube, sphere, gapped cube
# -------------------------------------------------------------------------

def test_criterion_6_segmentation():
    cube, _, _, _ = lattice_cube(seed=0)
    n_cube = segment.flood_segment(cube, k=5).count
    sphere = synth.generate(synth.ShapeSpec("sphere", size=(0.5,), density=2000, seed=2)).cloud
    n_sphere = segment.flood_segment(sphere, k=5).count
    gapped, _, _, _ = gapped_lattice_cube(seed=0)
    n_gapped = segment.flood_segment(gapped, k=5).count
    report(6, (n_cube, n_sphere, n_gapped) == (6, 1, 5),
           f"cube {n_cube} (want 6), sphere {n_sphere} (want 1), gapped {n_gapped} (want 5)")


# -------------------------------------------------------------------------
# Criterion 7: lightweight model, parameter count printed by `info`
# -------------------------------------------------------------------------

def test_criterion_7_parameter_count(tmp_path, capsys):
    ckpt = tmp_path / "fresh.ckpt"
    net.save_checkpoint(net.init_params(16, seed=0), ckpt)
    assert cli.main(["info", "--checkpoint", str(ckpt)]) == 0
    out = capsys.readouterr().out
    count = int(out.rsplit("total parameters:", 1)[1].strip())
    report(7, 30_000 <= count <= 70_000, f"info prints {count} parameters")


# -------------------------------------------------------------------------
# Criterion 8: invariance suite over >= 20 seeds
# -------------------------------------------------------------------------

def test_criterion_8_invariances():
    worst_scale = worst_cols = worst_perm = worst_iso = 0.0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        params = net.init_params(16, seed=seed)
        dvecs, offsets, scales = random_patch_arrays(rng, 1, 16)
        dvecs, offsets, scale = dvecs[0], offsets[0], float(scales[0])

        # forward-pass scale invariance
        c = float(rng.uniform(0.01, 100.0))
        worst_scale = max(worst_scale, abs(forward_one(dvecs * c, offsets * c, scale * c, params)
                                           - forward_one(dvecs, offsets, scale, params)))

        # descriptor columns rotation invariance
        mat = rng.normal(size=(3, 3))
        q, r = np.linalg.qr(mat)
        q *= np.sign(np.diag(r))
        base = patch_features(dvecs, offsets, scale, params)
        rotf = patch_features(dvecs @ q.T, offsets, scale, params)
        worst_cols = max(worst_cols, float(np.abs(base[:, 3:] - rotf[:, 3:]).max()))

        # transformer permutation equivariance
        x = rng.normal(size=(16, 6))
        perm = rng.permutation(16)
        out = encode(x, params)
        out_p = encode(x[perm], params)
        worst_perm = max(worst_perm, float(np.abs(out[perm] - out_p).max()))

        # augmentation isometry, through the rows training gathers: each
        # rotated copy of a 30-row patch keeps its pairwise distances
        rows = trainer.PatchSet(rng.random((1, 30, 3)) * 4, np.ones((1, 30)), np.ones(1),
                                np.zeros(len(trainer._ROTATIONS_90), np.int8))
        copies, _, _ = rows.gather(np.arange(rows.n))
        base_d = np.linalg.norm(copies[0][:, None] - copies[0][None, :], axis=2)
        for rot in copies:
            d = np.linalg.norm(rot[:, None] - rot[None, :], axis=2)
            worst_iso = max(worst_iso, float(np.abs(d - base_d).max()))

    ok = worst_scale < 1e-9 and worst_cols < 1e-12 and worst_perm < 1e-9 and worst_iso < 1e-12
    report(8, ok, f"scale {worst_scale:.1e}, desc-cols {worst_cols:.1e}, "
                  f"perm {worst_perm:.1e}, isometry {worst_iso:.1e}; 20 seeds")


# -------------------------------------------------------------------------
# Criterion 9: byte-identical train -> predict -> eval pipeline
# -------------------------------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    res = synth.generate(synth.ShapeSpec("box", size=(1.0, 0.8, 0.6), density=700, seed=5))
    cloud_path = tmp_path / "train.xyz"
    save_cloud(res.cloud, cloud_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("k = 8\nmax_epochs = 2\nbatch_size = 64\nseed = 12\naugment = false\n")

    artifacts = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"model_{run}.ckpt"
        pred = tmp_path / f"pred_{run}.xyz"
        rep = tmp_path / f"report_{run}.json"
        assert cli.main(["train", "--cloud", str(cloud_path), "--config", str(cfg),
                         "--out-checkpoint", str(ckpt)]) == 0
        assert cli.main(["predict", "--cloud", str(cloud_path), "--checkpoint", str(ckpt),
                         "--threads", "1", "--out", str(pred)]) == 0
        assert cli.main(["eval", "--pred", str(pred), "--gt", str(cloud_path),
                         "--out", str(rep)]) == 0
        artifacts.append((ckpt.read_bytes(), pred.read_bytes(), rep.read_bytes()))
    capsys.readouterr()
    same = artifacts[0] == artifacts[1]
    report(9, same, "checkpoint, predictions, and report byte-identical across two runs")
