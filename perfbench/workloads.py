"""The benchmark's workloads: seeded inputs, the timed operation, and its check.

Each workload turns a workload seed into a pool of inputs (``make_inputs``),
runs one operation on one pool item (``op``, the only timed call), and checks
that operation's output outside the timed region (``check``).  Every call into
the library goes through an attribute lookup on ``sinkhorn_nms`` or one of its
modules, so that the tracer in ``tracing.py`` sees it when it is installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment as scipy_lap

import sinkhorn_nms as sn
from sinkhorn_nms import cli, formats
from sinkhorn_nms.rng import SplitMix64

# Scene shape shared by every workload: jittered proposals around each region.
JITTER = 4.0
SCORE_NOISE = 0.05

# Sinkhorn iteration budget T, as in the CLI and the desk-scale acceptance test.
ITERS = 10

# Central-difference check of the training gradient along one seeded unit
# direction: |fd - derivative| <= FD_ABS_TOL + FD_REL_TOL * |derivative|.
# Over 256 scenes (64 per temperature) the derivatives ranged from 1e-5 to
# 0.015 and the worst error at this step was 2.6e-10, from rounding.
FD_STEP = 1e-5
FD_ABS_TOL = 1e-8
FD_REL_TOL = 1e-5


@dataclass(frozen=True)
class Checked:
    """Outcome of one output check.

    ``digest`` identifies the output bytes, so repeated ops on one input and
    traced against untraced runs can be compared.  ``quality`` is the mean
    best IoU of the output boxes against ground truth.
    """

    ok: bool
    digest: str
    quality: float
    reason: str = ""


def scene_seeds(seed: int, salt: str, count: int) -> list[int]:
    """Per-scene seeds drawn from one SplitMix64 stream per workload."""
    rng = SplitMix64(seed ^ int.from_bytes(hashlib.sha256(salt.encode()).digest()[:8], "little"))
    return [rng.next_u64() for _ in range(count)]


def synth(regions: int, per_region: int, seed: int):
    return sn.synth_generate(
        sn.SynthConfig(
            num_regions=regions,
            proposals_per_region=per_region,
            jitter=JITTER,
            score_noise=SCORE_NOISE,
            seed=seed,
        )
    )


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) IoU of corner-encoded boxes, written independently of the library."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def best_iou(boxes: np.ndarray, gt) -> float:
    gt_boxes = np.array([[b.x1, b.y1, b.x2, b.y2] for b in gt.boxes])
    return float(iou_matrix(np.asarray(boxes, dtype=np.float64), gt_boxes).max(axis=1).mean())


def box_array(pset) -> np.ndarray:
    return np.array([[p.box.x1, p.box.y1, p.box.x2, p.box.y2] for p in pset.proposals])


def entropy(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


class Workload:
    name: str
    pool_size: int
    # Ops of the traced run whose counts are reported and must repeat exactly.
    counted_ops: int

    def make_inputs(self, seed: int, count: int, workdir: Path) -> list:
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, out, canonical: bool = False) -> Checked:
        """Check one op's output; ``canonical`` digests its canonical report bytes."""
        raise NotImplementedError


@dataclass(frozen=True)
class InferItem:
    pset: object
    gt: object
    envelope: np.ndarray  # (4,) min x1, min y1, max x2, max y2 of the inputs


class Infer(Workload):
    """In-memory ``dnms`` at the desk-scale point: 16 regions x 16 proposals."""

    name = "infer-256x16"
    pool_size = 64
    counted_ops = 16
    K = 16
    # Library defaults: tau = 0.1 (log domain), T = 10, tau_H = 0.6.
    cfg = sn.PipelineConfig(k=K)

    def make_inputs(self, seed, count, workdir):
        items = []
        for s in scene_seeds(seed, self.name, count):
            pset, gt = synth(16, 16, s)
            b = box_array(pset)
            env = np.array([b[:, 0].min(), b[:, 1].min(), b[:, 2].max(), b[:, 3].max()])
            items.append(InferItem(pset, gt, env))
        return items

    def op(self, item):
        return sn.dnms(item.pset, None, self.cfg)

    def check(self, item, out, canonical=False):
        refined, diag = out
        boxes = np.array([[r.box.x1, r.box.y1, r.box.x2, r.box.y2] for r in refined])
        probs = np.array([r.probability for r in refined], dtype=np.float64)
        h = hashlib.sha256()
        if canonical:
            h.update(formats.dumps_canonical(formats.run_report(self.cfg, refined, diag)).encode())
        else:
            # Bitwise the same facts as the report, at a fraction of its cost.
            for r in refined:
                h.update(np.array([r.score]).tobytes() + r.feature.tobytes() + r.source_weights.tobytes())
            h.update(boxes.tobytes() + probs.tobytes() + repr(diag).encode())
        digest = h.hexdigest()
        quality = best_iou(boxes, item.gt) if len(refined) else 0.0
        K = len(refined)
        if K != self.K:
            return Checked(False, digest, quality, f"K={K}, expected {self.K}")
        floor = min(self.cfg.refine.tau_H, math.log(K)) - 1e-9
        if not (np.isfinite(probs).all() and (probs >= 0.0).all() and abs(probs.sum() - 1.0) <= 1e-9):
            return Checked(False, digest, quality, "probabilities off the simplex")
        if entropy(probs) < floor:
            return Checked(False, digest, quality, f"entropy {entropy(probs)} < {floor}")
        lo, hi = item.envelope[:2], item.envelope[2:]
        if not (
            np.isfinite(boxes).all()
            and (boxes[:, :2] >= lo).all()
            and (boxes[:, 2:] <= hi).all()
        ):
            return Checked(False, digest, quality, "refined box outside the input envelope")
        return Checked(True, digest, quality)


@dataclass(frozen=True)
class CliItem:
    scene: Path
    gt_path: Path
    output: Path
    gt: object

    def argv(self) -> list[str]:
        return [
            "run",
            str(self.scene),
            "--ground-truth",
            str(self.gt_path),
            "--k",
            "adaptive",
            "--output",
            str(self.output),
        ]


class Cli(Workload):
    """``sinkhorn-nms run --k adaptive`` in-process on 32 regions x 64 proposals."""

    name = "cli-2048-adaptive"
    # Scene quality varies with the adaptive K (per-scene IoU sd 0.065), so
    # mean_quality needs this many scenes to vary by under 2% across seeds.
    pool_size = 32
    counted_ops = 3

    def make_inputs(self, seed, count, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for i, s in enumerate(scene_seeds(seed, self.name, count)):
            pset, gt = synth(32, 64, s)
            scene, gt_path = workdir / f"scene{i}.jsonl", workdir / f"scene{i}.gt.jsonl"
            formats.write_proposal_file(scene, pset)
            formats.write_ground_truth(gt_path, gt)
            items.append(CliItem(scene, gt_path, workdir / f"report{i}.json", gt))
        return items

    def op(self, item):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(item.argv())

    def check(self, item, rc, canonical=False):
        if rc != 0:
            return Checked(False, "", 0.0, f"exit code {rc}")
        data = item.output.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        try:
            report = json.loads(data)
        except json.JSONDecodeError as exc:
            return Checked(False, digest, 0.0, f"unparsable report: {exc}")
        if not isinstance(report, dict) or report.get("format") != "run-report":
            return Checked(False, digest, 0.0, "report format is not run-report")
        boxes = np.array([r["box"] for r in report["refined"]], dtype=np.float64).reshape(-1, 4)
        quality = best_iou(boxes, item.gt) if len(boxes) else 0.0
        return Checked(True, digest, quality)


@dataclass(frozen=True)
class TrainScene:
    pset: object
    gt: object
    params: object
    direction: np.ndarray  # unit-norm (M, K) direction of the derivative check


# One minibatch solves its four scenes at these temperatures, one each: two
# in the linear domain, two in the log domain, in fixed proportion per op.
TRAIN_TAUS = (1.0, 0.5, 0.2, 0.1)


class Train(Workload):
    """Matching-loss forward and backward over minibatches of 4 scenes of 16 x 8."""

    name = "train-128x16"
    pool_size = 16
    counted_ops = 3
    K = 16
    LAMBDA_KL = 1.0

    def make_inputs(self, seed, count, workdir):
        seeds = scene_seeds(seed, self.name, count * len(TRAIN_TAUS))
        batches = []
        for b in range(count):
            batch = []
            for j, tau in enumerate(TRAIN_TAUS):
                s = seeds[b * len(TRAIN_TAUS) + j]
                pset, gt = synth(16, 8, s)
                rng = SplitMix64(s)
                d = np.array([[rng.uniform(-1.0, 1.0) for _ in range(self.K)] for _ in range(len(pset))])
                params = sn.SinkhornParams(tau=tau, iters=ITERS)
                batch.append(TrainScene(pset, gt, params, d / np.linalg.norm(d)))
            batches.append(tuple(batch))
        return batches

    def op(self, batch):
        outs = []
        for scene in batch:
            cents = sn.init_centroids(scene.pset, self.K, 0)
            C = sn.build_cost(scene.pset, cents, sn.CostWeights())
            pstar = sn.hungarian_solve(C)
            marg = sn.Marginals.uniform(len(scene.pset), self.K)
            S = sn.solve(C, scene.params, marg)
            loss = sn.matching_loss(C, S, pstar, self.LAMBDA_KL)
            grad = sn.grad_matching_wrt_cost(C, scene.params, marg, pstar, self.LAMBDA_KL)
            outs.append((C.values, pstar, S.matrix, loss, grad))
        return outs

    def check(self, batch, outs, canonical=False):
        h = hashlib.sha256()
        qualities = []
        reason = ""
        for scene, (C, pstar, S, loss, grad) in zip(batch, outs):
            M, K = C.shape
            marg = sn.Marginals.uniform(M, K)
            for arr in (S, grad, np.array(pstar.pairs, dtype=np.int64), np.array([loss, pstar.total_cost])):
                h.update(np.ascontiguousarray(arr).tobytes())
            boxes = box_array(scene.pset)[S.argmax(axis=0)]
            qualities.append(best_iou(boxes, scene.gt))
            if reason:
                continue
            rows = {j for j, _ in pstar.pairs}
            cols = {k for _, k in pstar.pairs}
            n = min(M, K)
            r, c = scipy_lap(C)
            opt = float(C[r, c].sum())
            if not (len(pstar.pairs) == len(rows) == len(cols) == n):
                reason = f"matching has {len(pstar.pairs)} pairs, {len(rows)} rows, {len(cols)} columns; expected {n}"
            elif abs(pstar.total_cost - opt) > 1e-9 * (1.0 + abs(opt)):
                reason = f"matching cost {pstar.total_cost!r} is not the optimum {opt!r}"
            elif grad.shape != (M, K) or not np.isfinite(grad).all() or not math.isfinite(loss):
                reason = "loss or gradient not finite, or gradient not M x K"
            else:
                def f(X):
                    S_x = sn.solve(X, scene.params, marg)
                    return sn.matching_loss(X, S_x, pstar, self.LAMBDA_KL)

                D = scene.direction
                fd = (f(C + FD_STEP * D) - f(C - FD_STEP * D)) / (2.0 * FD_STEP)
                an = float((grad * D).sum())
                if abs(fd - an) > FD_ABS_TOL + FD_REL_TOL * abs(an):
                    reason = f"directional derivative {an!r} vs central difference {fd!r} at tau={scene.params.tau}"
        return Checked(not reason, h.hexdigest(), float(np.mean(qualities)), reason)


WORKLOADS = {w.name: w for w in (Infer(), Cli(), Train())}
