"""Gated fusion of the backbone forecast with the retrieved future prior.

The prior is projected into prediction space, gated elementwise by a sigmoid
of both signals, and added through a learnable scalar that starts at exactly
zero, so an untrained model reproduces the backbone forecast bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Var
from .backbone import ParamSpec, zeros


@dataclass
class FusionParams:
    prior_proj: Var  # (H, H), identity init, no bias
    gate: Var  # (H, 2H), zero init so the gate starts at 0.5 everywhere
    scale: Var  # (1, 1) learnable scalar, zero init

    @staticmethod
    def specs(cfg) -> list[ParamSpec]:
        """Every parameter; none of them draws from the generator."""
        return [
            ("fusion.prior_proj", (cfg.horizon, cfg.horizon), lambda rng, shape: np.eye(shape[0])),
            ("fusion.gate", (cfg.horizon, 2 * cfg.horizon), zeros),
            ("fusion.scale", (1, 1), zeros),
        ]

    @classmethod
    def from_store(cls, store: ParamStore) -> "FusionParams":
        return cls(prior_proj=store["fusion.prior_proj"], gate=store["fusion.gate"], scale=store["fusion.scale"])


def fuse(backbone_pred: Var, prior: Var, params: FusionParams, valid: np.ndarray) -> Var:
    """backbone + scale * (gate ⊙ projected prior), rows with valid=0 pass through exactly.

    `valid` is an (n, 1) 0/1 array flagging regions whose retrieval produced
    candidates; invalid rows skip the correction path entirely.
    """
    projected = ad.linear(prior, params.prior_proj)
    gate = ad.sigmoid(ad.linear(ad.concat([backbone_pred, projected], axis=1), params.gate))
    correction = ad.mul(ad.mul(params.scale, ad.constant(valid)), ad.mul(gate, projected))
    return ad.add(backbone_pred, correction)
