import numpy as np
import pytest

from relcap.data import ToyWorldConfig, build_vocab, generate_toy_world
from relcap.model import ModelConfig, PairBatch, init_params


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


def pair_rows(pairs, rows):
    """The ``rows`` of a PairBatch as a PairBatch over the same regions."""
    return PairBatch(features=pairs.features,
                     subject_index=[pairs.subject_index[k] for k in rows],
                     object_index=[pairs.object_index[k] for k in rows],
                     union_features=pairs.union_features[rows],
                     geos=pairs.geos[rows])
