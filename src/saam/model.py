"""Encoder + head bundle with a single named-parameter registry."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .encoders import EncoderConfig, encode_document, init_encoder_params
from .heads import HeadConfig, head_forward, init_head_params


class SaamModel:
    """A sentence encoder feeding a prediction head, trained end to end.

    Parameters live in ``self.params`` keyed by dotted names; the same
    tensors are reused for every sentence and document, so gradients
    accumulate across a whole batch between optimizer steps.
    """

    def __init__(self, encoder_config: EncoderConfig, head_config: HeadConfig,
                 seed: int = 0, t_max: int | None = None):
        if encoder_config.feature_dim != head_config.feature_dim:
            raise ValueError(
                f"encoder feature dim {encoder_config.feature_dim} != "
                f"head feature dim {head_config.feature_dim}")
        self.encoder_config = encoder_config
        self.head_config = head_config
        self.t_max = t_max
        rng = np.random.default_rng(seed)
        self.params = init_encoder_params(encoder_config, rng)
        self.params.update(init_head_params(head_config, rng))

    @property
    def kind(self) -> str:
        return self.head_config.spec.kind

    def forward(self, sentences):
        """Run one document (a list of token-id sentences) through the model."""
        u = encode_document(sentences, self.head_config.s_max, self.params,
                            self.encoder_config, t_max=self.t_max)
        return head_forward(u, self.params, self.head_config)

    def predict(self, sentences):
        """Inference without recording gradients."""
        with ad.Graph():
            return self.forward(sentences)

    def load_param_arrays(self, arrays: dict) -> None:
        if set(arrays) != set(self.params):
            missing = set(self.params) - set(arrays)
            extra = set(arrays) - set(self.params)
            raise ValueError(f"parameter names do not match model (missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)})")
        for name, arr in arrays.items():
            if arr.shape != self.params[name].shape:
                raise ValueError(f"parameter {name}: shape {arr.shape} != {self.params[name].shape}")
            self.params[name].data = arr.astype(np.float64).copy()

    def param_arrays(self) -> dict:
        return {name: p.data.copy() for name, p in self.params.items()}
