"""Tests for the packed state codec and the fast successor path.

The codec must be a bijection between reachable protocol states and
packed integers (``decode(encode(s)) == s``), and ``successors_fast``
must agree with the readable reference relation transition-for-
transition — these two guarantees are what let the exploration engine
substitute for the reference explorer without changing any analysis.
"""

import pytest

from repro.errors import ExplorationLimitError
from repro.jackal import Config, JackalModel, ProtocolVariant
from repro.jackal.codec import StateCodec, codec_for
from repro.jackal.model import VIOLATION
from repro.lts.explore import explore

CONFIGS = [
    (Config(threads_per_processor=(1, 1), rounds=1, with_probes=False),
     ProtocolVariant.fixed()),
    (Config(threads_per_processor=(2,), rounds=2, with_probes=False),
     ProtocolVariant.fixed()),
    (Config(threads_per_processor=(1, 1), n_regions=2, rounds=1,
            with_probes=False), ProtocolVariant.fixed()),
    (Config(threads_per_processor=(1, 1), rounds=1, with_probes=False),
     ProtocolVariant.error1()),
    (Config(threads_per_processor=(1, 1), rounds=1, with_probes=False),
     ProtocolVariant.error2()),
    (Config(threads_per_processor=(1, 1), rounds=None, with_probes=False),
     ProtocolVariant.fixed()),
]


def _sample_states(model, cap=4000):
    try:
        lts = explore(model, max_states=cap, keep_states=True)
    except ExplorationLimitError as exc:
        # enough states sampled: the partial LTS holds the first ones
        # in BFS order
        lts = exc.partial
    return list(lts.state_meta.values())[:cap]


@pytest.mark.parametrize("cfg,variant", CONFIGS)
def test_roundtrip_over_reachable_states(cfg, variant):
    model = JackalModel(cfg, variant)
    codec = model.codec()
    states = _sample_states(model)
    keys = [codec.encode(s) for s in states]
    for s, k in zip(states, keys):
        assert codec.decode(k) == s
    # injective: distinct states get distinct keys
    assert len(set(keys)) == len(states)


def test_cold_decode_matches_warm_encode():
    """The half memos must never be load-bearing: a codec that has
    decoded nothing (cold caches) must invert keys produced by another
    instance, and re-encoding its decodes must reproduce the keys."""
    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    model = JackalModel(cfg)
    warm = model.codec()
    cold = StateCodec(JackalModel(cfg))
    states = _sample_states(model, cap=1500)
    for s in states:
        k = warm.encode(s)
        assert cold.decode(k) == s
        assert cold.encode(cold.decode(k)) == k


def test_half_memo_cap_only_costs_rework():
    """Clearing the split-half memo caches mid-stream must not change
    any key or decode — the caches are pure."""
    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    model = JackalModel(cfg)
    codec = model.codec()
    states = _sample_states(model, cap=300)
    keys = [codec.encode(s) for s in states]
    codec._enc_hi.clear()
    codec._enc_lo.clear()
    codec._dec_hi.clear()
    codec._dec_lo.clear()
    assert [codec.encode(s) for s in states] == keys
    for s, k in zip(states, keys):
        assert codec.decode(k) == s


def test_violation_is_key_zero():
    codec = JackalModel(Config(rounds=1)).codec()
    assert codec.encode(VIOLATION) == 0
    assert codec.decode(0) == VIOLATION


def test_ordinary_keys_are_odd_and_bounded():
    model = JackalModel(
        Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    )
    codec = model.codec()
    for s in _sample_states(model, cap=500):
        k = codec.encode(s)
        assert k & 1  # tag bit distinguishing real states from VIOLATION
        assert k.bit_length() <= codec.n_bits


def test_bytes_roundtrip():
    model = JackalModel(
        Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    )
    codec = model.codec()
    for s in _sample_states(model, cap=200):
        b = codec.encode_bytes(s)
        assert len(b) == codec.n_bytes
        assert codec.decode_bytes(b) == s


def test_codec_for_helper():
    model = JackalModel(Config(rounds=1))
    assert isinstance(codec_for(model), StateCodec)
    assert codec_for(object()) is None


def test_codec_cached_on_model():
    model = JackalModel(Config(rounds=1))
    assert model.codec() is model.codec()


@pytest.mark.parametrize("cfg,variant", CONFIGS)
def test_fast_successors_agree_exactly(cfg, variant):
    """successors_fast is transition-for-transition the reference."""
    model = JackalModel(cfg, variant)
    for s in _sample_states(model):
        assert model.successors_fast(s) == model.successors(s)


def test_fast_successors_agree_with_probes():
    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=True)
    model = JackalModel(cfg, ProtocolVariant.fixed())
    for s in _sample_states(model, cap=2000):
        assert model.successors_fast(s) == model.successors(s)


def test_fast_successors_on_violation():
    model = JackalModel(Config(rounds=1))
    assert model.successors_fast(VIOLATION) == model.successors(VIOLATION)
