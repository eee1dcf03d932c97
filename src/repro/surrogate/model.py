"""The learned cost model: analytic anchor × calibration × ridge residual.

Plain numpy — no sklearn in the container.  For each target (per-step
time, per-step dynamic energy, per-step total energy) the model predicts

    log(target) = log(anchor) + correction(key) + ridge(features)

where the **anchor** is the analytic estimate from
:mod:`repro.surrogate.features` (exact for the CPU/GPU baselines, within
~2x everywhere), the **correction** is a learned per-key scheduling
friction — keyed by (graph name, policy family), with family-level and
global fallbacks for unseen graphs — and the **ridge** head soaks the
within-key residual trends (frequency scale, PIM count) in standardized
log-feature space, its L2 strength chosen by closed-form leave-one-out
error (hat-matrix identity ``e_i / (1 - H_ii)`` — no refits).

Error bands are leave-one-out and tiered like the corrections: a query
whose calibration key was in the training set gets the within-key LOO
band; an unseen graph gets the (wider) family band; an unseen family the
global band.  Bands are inflated 25% (the ridge stage is held fixed
during the pipeline LOO, a mild optimism) and floored at 0.5%; every
prediction carries its band, and ``repro surrogate eval`` fails if an
observed error ever exceeds it.

Persistence is canonical JSON under the result cache's directory
(``<cache-dir>/surrogate/model.json``): deterministic bytes for the same
training set, safe to regenerate, never part of the simulation cache
itself.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..sim import cache as sim_cache
from ..sim.results import canonical_dumps
from .errors import SurrogateUnavailable
from .features import FEATURE_NAMES, FeatureBundle

#: Model-file schema; bump on shape changes (loaders reject unknown).
MODEL_SCHEMA = 1

#: Predicted per-step targets, each with its own head and bands.
TARGETS = ("step_time_s", "step_dynamic_energy_j", "step_total_energy_j")

#: Extra targets fitted only where defined (zero-valued rows — e.g. pool
#: utilization on systems without a fixed pool — are excluded from the
#: head, and predictions are served on key-tier hits only).
OPTIONAL_TARGETS = ("fixed_pim_utilization",)

#: Ridge strengths searched per head (LOO-minimizing one wins).
_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: Band inflation over the worst observed LOO relative error, and floor.
_BAND_INFLATION = 1.25
_BAND_FLOOR = 0.005


def _key_str(key: Tuple) -> str:
    return json.dumps(list(key), sort_keys=False)


class SurrogateModel:
    """A fitted cost model (one anchored, calibrated head per target)."""

    def __init__(
        self,
        feature_names: Tuple[str, ...],
        mean: Sequence[float],
        std: Sequence[float],
        heads: Dict[str, Dict[str, object]],
        meta: Dict[str, object],
    ):
        self.feature_names = tuple(feature_names)
        self.mean = list(map(float, mean))
        self.std = list(map(float, std))
        self.heads = heads
        self.meta = dict(meta)

    # -- prediction ----------------------------------------------------
    def predict_step(
        self, bundle: FeatureBundle
    ) -> Dict[str, Dict[str, float]]:
        """Per-step predictions:
        ``{target: {"value": v, "band_rel": b, "tier": t}}`` where tier is
        0 (key seen in training), 1 (family seen) or 2 (global fallback);
        the band widens with the tier."""
        features = bundle.features
        if len(features) != len(self.feature_names):
            raise SurrogateUnavailable(
                f"feature vector has {len(features)} entries, model expects "
                f"{len(self.feature_names)} (retrain: repro surrogate train)"
            )
        z = [1.0]
        for x, mu, sd in zip(features, self.mean, self.std):
            z.append((x - mu) / sd)
        kstr = _key_str(bundle.key)
        fstr = _key_str(bundle.family)
        out: Dict[str, Dict[str, float]] = {}
        for target, head in self.heads.items():
            anchor = bundle.anchors[target]
            if kstr in head["key_corr"]:
                corr = head["key_corr"][kstr]
                band = head["band_key_rel"]
                tier = 0
            elif fstr in head["family_corr"]:
                corr = head["family_corr"][fstr]
                band = head["band_family_rel"]
                tier = 1
            else:
                corr = head["global_corr"]
                band = head["band_global_rel"]
                tier = 2
            ridge = sum(w * v for w, v in zip(head["weights"], z))
            out[target] = {
                "value": float(anchor * math.exp(corr + ridge)),
                "band_rel": float(band),
                "tier": float(tier),
            }
        return out

    def trained_calibration_names(self) -> Tuple[str, ...]:
        """Calibration-grain graph names seen by any head's key tier.

        Keys are stored as JSON-encoded tuples whose first element is the
        calibration name; this recovers the set of graphs the model was
        actually fitted on (the domain the family guard checks against).
        """
        names = set()
        for head in self.heads.values():
            for kstr in head.get("key_corr", {}):
                try:
                    key = json.loads(kstr)
                except ValueError:  # pragma: no cover - writer emits JSON
                    continue
                if key and isinstance(key[0], str):
                    names.add(key[0])
        return tuple(sorted(names))

    @property
    def faulted_rows(self) -> int:
        return int(self.meta.get("faulted_rows", 0))

    @property
    def rows(self) -> int:
        return int(self.meta.get("rows", 0))

    def band_rel(self, target: str) -> float:
        """Widest relevant band of a head (the key tier — eval queries
        are on trained keys)."""
        return float(self.heads[target]["band_key_rel"])

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": MODEL_SCHEMA,
            "feature_names": list(self.feature_names),
            "mean": self.mean,
            "std": self.std,
            "heads": self.heads,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SurrogateModel":
        if data.get("schema") != MODEL_SCHEMA:
            raise SurrogateUnavailable(
                f"surrogate model schema {data.get('schema')!r} is not "
                f"readable (expected {MODEL_SCHEMA}); retrain with "
                f"'repro surrogate train'"
            )
        return cls(
            feature_names=tuple(data["feature_names"]),
            mean=data["mean"],
            std=data["std"],
            heads=dict(data["heads"]),
            meta=dict(data.get("meta", {})),
        )

    def to_json(self) -> str:
        return canonical_dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SurrogateModel":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------
def fit(
    rows: Sequence[Tuple[FeatureBundle, Dict[str, float]]],
    meta: Optional[Dict[str, object]] = None,
) -> SurrogateModel:
    """Fit a :class:`SurrogateModel` on ``(bundle, targets)`` rows.

    ``targets`` maps every name in :data:`TARGETS` to a positive per-step
    value (from a cached exact :class:`~repro.sim.results.RunResult`).
    Raises :class:`SurrogateUnavailable` on an unusable training set.
    """
    if len(rows) < 4:
        raise SurrogateUnavailable(
            f"not enough cached simulation results to train a surrogate "
            f"({len(rows)} rows; need at least 4)"
        )
    X = np.array([list(b.features) for b, _t in rows], dtype=np.float64)
    n, d = X.shape
    if d != len(FEATURE_NAMES):
        raise SurrogateUnavailable(
            f"feature matrix has {d} columns, expected {len(FEATURE_NAMES)}"
        )
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)  # constant columns: center to zero
    A = np.hstack([np.ones((n, 1)), (X - mean) / std])

    keys = [_key_str(b.key) for b, _t in rows]
    fams = [_key_str(b.family) for b, _t in rows]

    heads: Dict[str, Dict[str, object]] = {}
    for target in TARGETS:
        y_lin = np.array([t[target] for _b, t in rows], dtype=np.float64)
        anchors = np.array(
            [b.anchors[target] for b, _t in rows], dtype=np.float64
        )
        if not np.all(y_lin > 0):
            raise SurrogateUnavailable(
                f"target {target} has non-positive values; cannot fit in "
                f"log space"
            )
        y = np.log(y_lin / anchors)
        heads[target] = _fit_head(A, y, keys, fams)
    for target in OPTIONAL_TARGETS:
        if any(target not in t for _b, t in rows):
            continue
        y_lin = np.array([t[target] for _b, t in rows], dtype=np.float64)
        anchors = np.array(
            [b.anchors[target] for b, _t in rows], dtype=np.float64
        )
        mask = y_lin > 0
        if int(mask.sum()) < 4:
            continue
        y = np.log(y_lin[mask] / anchors[mask])
        heads[target] = _fit_head(
            A[mask],
            y,
            [k for k, m in zip(keys, mask) if m],
            [f for f, m in zip(fams, mask) if m],
        )

    info = dict(meta or {})
    info.setdefault("rows", n)
    info.setdefault("faulted_rows", 0)
    return SurrogateModel(
        feature_names=FEATURE_NAMES,
        mean=mean.tolist(),
        std=std.tolist(),
        heads=heads,
        meta=info,
    )


def _group_means(y, labels) -> Dict[str, float]:
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for value, label in zip(y, labels):
        sums[label] = sums.get(label, 0.0) + float(value)
        counts[label] = counts.get(label, 0) + 1
    return {label: sums[label] / counts[label] for label in sums}


def _fit_head(A, y, keys, fams) -> Dict[str, object]:
    """One head: per-key friction means + ridge over the residual, with
    tiered leave-one-out bands."""
    n, p = A.shape

    key_corr = _group_means(y, keys)
    fam_corr = _group_means(y, fams)
    global_corr = float(y.mean())
    resid = y - np.array([key_corr[k] for k in keys])

    # -- ridge on the within-key residual (lambda by closed-form LOO) ---
    penalty = np.eye(p)
    penalty[0, 0] = 0.0  # never shrink the intercept
    best = None
    for lam in _LAMBDA_GRID:
        M = A.T @ A + lam * penalty
        try:
            Minv_At = np.linalg.solve(M, A.T)
        except np.linalg.LinAlgError:  # pragma: no cover - grid keeps M PD
            continue
        w = Minv_At @ resid
        fitted = A @ w
        leverage = np.clip(
            np.einsum("ij,ji->i", A, Minv_At), 0.0, 1.0 - 1e-9
        )
        loo_resid = (resid - fitted) / (1.0 - leverage)
        score = float(np.abs(np.expm1(loo_resid)).mean())
        if best is None or score < best[0]:
            best = (score, lam, w, fitted)
    if best is None:  # pragma: no cover - defensive
        raise SurrogateUnavailable("ridge fit failed for every lambda")
    _score, lam, w, ridge_pred = best

    # -- full-pipeline in-sample error ----------------------------------
    key_count: Dict[str, int] = {}
    fam_count: Dict[str, int] = {}
    for k in keys:
        key_count[k] = key_count.get(k, 0) + 1
    for f in fams:
        fam_count[f] = fam_count.get(f, 0) + 1
    pred_full = np.array([key_corr[k] for k in keys]) + ridge_pred
    insample_rel = np.abs(np.expm1(pred_full - y))

    # -- tiered LOO: drop row i from its correction tier (the ridge stage
    #    stays fixed — the band inflation absorbs that mild optimism) ----
    key_sums = {k: 0.0 for k in key_corr}
    fam_sums = {f: 0.0 for f in fam_corr}
    for value, k, f in zip(y, keys, fams):
        key_sums[k] += float(value)
        fam_sums[f] += float(value)
    total = float(y.sum())
    tier_errors: Dict[int, list] = {0: [], 1: [], 2: []}
    for i in range(n):
        yi = float(y[i])
        k, f = keys[i], fams[i]
        if key_count[k] > 1:
            corr = (key_sums[k] - yi) / (key_count[k] - 1)
            tier = 0
        elif fam_count[f] > 1:
            corr = (fam_sums[f] - yi) / (fam_count[f] - 1)
            tier = 1
        elif n > 1:
            corr = (total - yi) / (n - 1)
            tier = 2
        else:  # pragma: no cover - fit() requires n >= 4
            corr = 0.0
            tier = 2
        err = abs(math.expm1(corr + float(ridge_pred[i]) - yi))
        tier_errors[tier].append(err)

    # a tier's band covers its own errors and every tighter tier's; a
    # missing tier inherits the next tighter one's band
    band_key = _band(tier_errors[0])
    band_family = max(band_key, _band(tier_errors[1]))
    band_global = max(band_family, _band(tier_errors[2]))
    # in-sample errors on trained keys must sit inside the key band too
    band_key = max(band_key, _band(insample_rel.tolist()))
    band_family = max(band_family, band_key)
    band_global = max(band_global, band_family)

    loo_all = [e for errs in tier_errors.values() for e in errs]
    return {
        "weights": w.tolist(),
        "lambda": float(lam),
        "key_corr": {k: float(v) for k, v in key_corr.items()},
        "family_corr": {f: float(v) for f, v in fam_corr.items()},
        "global_corr": global_corr,
        "band_key_rel": band_key,
        "band_family_rel": band_family,
        "band_global_rel": band_global,
        "loo_mean_rel": (
            float(sum(loo_all) / len(loo_all)) if loo_all else 0.0
        ),
        "loo_max_rel": float(max(loo_all)) if loo_all else 0.0,
        "insample_mean_rel": float(insample_rel.mean()),
        "insample_max_rel": float(insample_rel.max()),
    }


def _band(errors) -> float:
    if not errors:
        return _BAND_FLOOR
    return max(_BAND_FLOOR, max(errors) * _BAND_INFLATION)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------
def model_path() -> Path:
    """Location of the trained model: ``<cache-dir>/surrogate/model.json``."""
    return sim_cache.cache_dir() / "surrogate" / "model.json"


def save_model(model: SurrogateModel, path: Optional[Path] = None) -> Path:
    """Atomically write ``model`` to disk (default: :func:`model_path`)."""
    path = Path(path) if path is not None else model_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(model.to_json())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_model(path: Optional[Path] = None) -> SurrogateModel:
    """Load the trained model; :class:`SurrogateUnavailable` if absent."""
    path = Path(path) if path is not None else model_path()
    try:
        text = path.read_text()
    except OSError:
        raise SurrogateUnavailable(
            "no trained surrogate model found; run 'repro surrogate train' "
            "after warming the result cache (e.g. 'repro experiment summary')"
        ) from None
    try:
        return SurrogateModel.from_json(text)
    except SurrogateUnavailable:
        raise
    except Exception as exc:
        raise SurrogateUnavailable(
            f"surrogate model at {path} is unreadable ({exc}); retrain with "
            f"'repro surrogate train'"
        ) from None
