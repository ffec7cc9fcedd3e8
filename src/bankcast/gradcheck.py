"""Finite-difference verification of reverse-mode gradients.

The checker treats the loss as a black box over a ParamStore: it backprops
once for analytic gradients, then perturbs every coordinate and compares
against central differences. `toy_objective` is the full training objective
on a toy city, set up so that every parameter carries gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import ParamStore, Var, backward
from .data import SyntheticSpec, generate_synthetic_city, make_windows
from .errors import NondeterministicLoss
from .model import Model, ModelConfig
from .retrieval import build_bank
from .training import TrainConfig, batch_loss


@dataclass
class GradCheckReport:
    eps: float
    tol: float
    per_param: dict[str, float] = field(default_factory=dict)
    n_checked: int = 0

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def summary(self) -> str:
        lines = [f"{name}: max rel err {err:.3e}" for name, err in sorted(self.per_param.items())]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict}: {self.n_checked} coordinates, max rel err "
            f"{self.max_rel_err:.3e} (tol {self.tol:.1e})"
        )
        return "\n".join(lines)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _scalar(var) -> float:
    v = np.asarray(var.value)
    if v.size != 1:
        raise ValueError(f"loss_fn must return a scalar, got shape {v.shape}")
    return float(v.reshape(-1)[0])


def grad_check(
    loss_fn,
    params: ParamStore,
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare reverse-mode gradients of loss_fn() against central differences.

    loss_fn takes no arguments and must rebuild the graph from the current
    ParamStore values, returning a scalar Var. Relative error uses
    |a - b| / max(1, |a|, |b|) per coordinate.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps}")

    v1 = _scalar(loss_fn())
    v2 = _scalar(loss_fn())
    if v1 != v2:
        raise NondeterministicLoss(f"two forward passes disagree: {v1!r} vs {v2!r}")

    params.zero_grad()
    out = loss_fn()
    backward(out)
    analytic = {k: g.copy() for k, g in params.grads().items()}
    params.zero_grad()

    report = GradCheckReport(eps=eps, tol=tol)
    for name, var in params.items():
        grad = analytic[name].reshape(-1)
        for i in range(var.value.size):
            flat = var.value.reshape(-1)
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = _scalar(loss_fn())
            flat[i] = orig - eps
            f_minus = _scalar(loss_fn())
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            err = _rel_err(fd, float(grad[i]))
            report.per_param[name] = max(report.per_param.get(name, 0.0), err)
            report.n_checked += 1
    return report


def toy_objective(seed: int) -> tuple[Model, Callable[[], tuple[Var, Var, Var | None]]]:
    """A model and a function rebuilding the total, prediction and retrieval
    losses of one masked training instance on a 4-region toy city.

    Parameters are redrawn from N(0, 0.3) so every path is live, the fusion
    scale included. The bank holds 30 windows of regions 0-2, which cover
    every hour, and the instance (anchor 34, region 1 masked) retrieves from
    an hour bucket with entries, so the retriever, the fusion and the
    alignment loss all carry gradient.
    """
    spec = SyntheticSpec(n_regions=4, d_c=6, n_archetypes=2, t_total=60, noise_scale=0.2, seed=3)
    city = generate_synthetic_city(spec, name="toy")
    config = ModelConfig(
        d_c=6, window=4, horizon=4, d_g=6, d_z=5, hidden=16, head_blocks=3,
        gcn_layers=1, d_r=12, d_h=4, d_ec=8, d_ex=8, psi_hidden=16,
    )
    model = Model(config, seed=seed)
    model.set_norm(float(city.demand.mean()), float(city.demand.std()))
    rng = np.random.default_rng(seed)
    for _, var in model.store.items():
        var.value = rng.normal(0.0, 0.3, size=var.value.shape)
    windows = make_windows(city, 4, 4)
    contexts = city.contexts()
    # keys stay fixed for the check; the alignment loss re-encodes live ones
    bank = build_bank(windows[:30], [0, 1, 2], contexts, model.encode_entries, model.encoder_version())
    instance = windows[31]
    tc = TrainConfig(k=2, lambda_ret=0.2, temperature=0.1)

    def losses():
        return batch_loss(model, [instance], contexts, [0, 1, 2, 3], [1], bank, tc)

    return model, losses
