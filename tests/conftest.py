import numpy as np
import pytest

from relcap.autodiff import backward
from relcap.data import ToyWorldConfig, build_vocab, generate_toy_world, proposals_for_record
from relcap.model import ModelConfig, PairBatch, init_params
from relcap.pipeline import ProposalSettings


@pytest.fixture(scope="session")
def toy_world_small():
    """A small deterministic toy world shared across test modules."""
    records, provider = generate_toy_world(5, ToyWorldConfig(n_images=10))
    vocab = build_vocab(records, min_count=1)
    return records, provider, vocab


def tiny_config(feature_width, vocab_size, **overrides):
    defaults = dict(
        d_subj_obj=10, d_union=8, code_width=6, hidden=6, rem_dim=5,
        max_len=12, dropout=0.0,
    )
    defaults.update(overrides)
    return ModelConfig(feature_width=feature_width, vocab_size=vocab_size,
                       **defaults).validate()


def fresh_params(config, seed=0):
    return init_params(config, np.random.default_rng(seed))


def object_proposals(record, provider, seed):
    """``proposals_for_record`` over the record's annotated objects, with the
    default ``ProposalSettings`` jitter and background count."""
    settings = ProposalSettings(seed)
    return proposals_for_record(record, [obj.box for obj in record.objects], provider,
                                settings.seed, settings.jitter, settings.n_background)


def pair_rows(pairs, rows):
    """The ``rows`` of a PairBatch as a PairBatch over the same regions."""
    return PairBatch(features=pairs.features,
                     subject_index=[pairs.subject_index[k] for k in rows],
                     object_index=[pairs.object_index[k] for k in rows],
                     union_features=pairs.union_features[rows],
                     geos=pairs.geos[rows])


def zero_grad(p):
    """Zero a ``Parameter``'s persistent gradient buffer in place."""
    p.grad[...] = 0.0


def finite_diff_check(forward, params, eps: float = 1e-5,
                      max_coords_per_param: int = 8,
                      rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``forward`` must be a deterministic closure returning a scalar Tensor;
    determinism is verified by evaluating the baseline twice. Up to
    ``max_coords_per_param`` coordinates are probed per parameter.
    """
    if eps <= 0:
        raise ValueError("finite_diff_check: eps must be positive")
    params = list(params)
    base_a = forward().data.item()
    base_b = forward().data.item()
    if base_a != base_b:
        raise ValueError("finite_diff_check: forward closure is not deterministic")

    for p in params:
        zero_grad(p)
    backward(forward())
    analytic = {p.name: p.grad.copy() for p in params}
    for p in params:
        zero_grad(p)

    rng = np.random.default_rng(0) if rng is None else rng
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = forward().data.item()
            flat[c] = orig - eps
            f_minus = forward().data.item()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[p.name].reshape(-1)[c]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if rel > worst:
                worst = rel
    return worst
