"""Inductive contextual graph backbone.

Nodes are regions; edges come from context similarity only, so the same
parameters evaluate any region set (observable subset during training, all
regions at inference). Histories enter through a linear temporal encoder after
zero-masking, message passing mixes temporal and contextual signals with a
residual, and a small MLP head maps node states to the forecast horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Var

# A parameter's (name, shape, initializer); the initializer draws its value
# from (rng, shape).
ParamSpec = tuple[str, tuple[int, ...], Callable[[np.random.Generator, tuple], np.ndarray]]


def glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape)


def zeros(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    return np.zeros(shape)


@dataclass
class BackboneParams:
    context_proj: Var  # (d_g, d_c), no bias
    temporal_proj: Var  # (d_z, W), no bias
    gcn: list[Var]  # square (d_z+d_g, d_z+d_g) per layer
    head_in_w: Var  # (hidden, d_z+d_g)
    head_in_b: Var
    blocks: list[tuple[Var, Var]]  # residual (hidden, hidden) + bias
    head_out_w: Var  # (H, hidden)
    head_out_b: Var

    @staticmethod
    def specs(cfg) -> list[ParamSpec]:
        """Every parameter, in the order a new model draws them."""
        node_dim = cfg.d_z + cfg.d_g
        specs = [(f"backbone.gcn.{l}", (node_dim, node_dim), glorot) for l in range(cfg.gcn_layers)]
        for i in range(cfg.head_blocks):
            specs += [
                (f"backbone.head.block{i}.w", (cfg.hidden, cfg.hidden), glorot),
                (f"backbone.head.block{i}.b", (1, cfg.hidden), zeros),
            ]
        return specs + [
            ("backbone.context_proj", (cfg.d_g, cfg.d_c), glorot),
            ("backbone.temporal_proj", (cfg.d_z, cfg.window), glorot),
            ("backbone.head.in.w", (cfg.hidden, node_dim), glorot),
            ("backbone.head.in.b", (1, cfg.hidden), zeros),
            ("backbone.head.out.w", (cfg.horizon, cfg.hidden), glorot),
            ("backbone.head.out.b", (1, cfg.horizon), zeros),
        ]

    @classmethod
    def from_store(cls, cfg, store: ParamStore) -> "BackboneParams":
        return cls(
            context_proj=store["backbone.context_proj"],
            temporal_proj=store["backbone.temporal_proj"],
            gcn=[store[f"backbone.gcn.{l}"] for l in range(cfg.gcn_layers)],
            head_in_w=store["backbone.head.in.w"],
            head_in_b=store["backbone.head.in.b"],
            blocks=[
                (store[f"backbone.head.block{i}.w"], store[f"backbone.head.block{i}.b"])
                for i in range(cfg.head_blocks)
            ],
            head_out_w=store["backbone.head.out.w"],
            head_out_b=store["backbone.head.out.b"],
        )


def project_context(contexts: Var, proj: Var) -> Var:
    """(n, d_c) -> (n, d_g), pure linear map."""
    return ad.linear(contexts, proj)


def build_adjacency(node_embed: Var) -> Var:
    """Row-stochastic similarity adjacency: row_softmax(gelu(G G^T)).

    Depends on contexts only, so it is identical for active and inactive regions.
    """
    sim = ad.linear(node_embed, node_embed)
    return ad.row_softmax(ad.gelu(sim), temperature=1.0)


def encode_history(history_rows: Var, proj: Var) -> Var:
    """(n, W) zero-masked normalized histories -> (n, d_z); all-zero rows stay zero."""
    return ad.linear(history_rows, proj)


def message_pass(h0: Var, adjacency: Var, layer_weights: list[Var]) -> Var:
    """Residual graph convolutions: h <- relu(A h W) + h.

    h0 holds B instances over the adjacency's n regions as n·B region-major
    rows (row i·B + b is region i of instance b), so one (n, n) @ (n, B·d)
    product aggregates every instance; B = 1 is a single instance.
    """
    n, (rows, d) = adjacency.value.shape[0], h0.value.shape
    if rows % n:
        raise ValueError(f"{rows} node rows do not stack instances over {n} regions")
    h = h0
    for w in layer_weights:
        if w.value.shape[0] != w.value.shape[1] or w.value.shape[0] != d:
            raise ValueError(f"message-passing weight must be square {d}, got {w.value.shape}")
        agg = ad.reshape(ad.matmul(adjacency, ad.reshape(h, (n, -1))), (rows, d))
        h = ad.add(ad.relu(ad.matmul(agg, w)), h)
    return h


def forecast_head(h: Var, p: BackboneParams) -> Var:
    """Node states -> (n, H): linear-in, residual ReLU blocks, linear-out."""
    x = ad.linear(h, p.head_in_w, p.head_in_b)
    for w, b in p.blocks:
        x = ad.add(ad.relu(ad.linear(x, w, b)), x)
    return ad.linear(x, p.head_out_w, p.head_out_b)
