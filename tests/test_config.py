"""Config fields: each declares its kind and range once, and one checker
enforces them for TrainConfig, NoiseSpec and SynthSpec."""
import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssrlab import (NoiseSpec, SynthSpec, TrainConfig, apply_noise,
                    make_gaussian_dataset, run_experiment)
from ssrlab.config import parse_config_dict
from ssrlab.data import Param
from ssrlab.errors import ConfigError, SsrError


# --- the kinds ---------------------------------------------------------------

@pytest.mark.parametrize("kind, bounds, good, bad", [
    (int, "[0, inf)", [0, 7, np.int64(2), np.uint8(3), 2**70],
     [-1, 1.0, 1.5, True, np.True_, "1", None, [1], 10**400]),
    (float, "(0, 1]", [1, 0.5, 1.0, np.float32(0.5), np.int64(1), 5e-324],
     [0, 0.0, 1.5, True, math.nan, "0.5", None, [0.5]]),
    (float, "[0, inf)", [0, 1e308, 10**300],
     [-1e-300, math.inf, -math.inf, math.nan, 10**400]),
    (float, "[0, 1)", [0.9999999999999999], [1.0, 1]),
    (bool, "(-inf, inf)", [True, False], [0, 1, 1.0, None, "true", np.True_]),
    (("cosine", "l2"), "(-inf, inf)", ["l2", "cosine"],
     ["L2", "", None, 3, ["l2"], np.array(["l2"])]),
    (tuple, "[1, inf)", [(1,), [3, 2], (np.int64(4),)],
     [(), [], [0], [1.5], [True], (1, None), "ab", 3, None, [[1]]]),
])
def test_param_kinds(kind, bounds, good, bad):
    param = Param(kind, bounds)
    for value in good:
        assert param.accepts(value), value
    for value in bad:
        assert not param.accepts(value), value
        with pytest.raises(ConfigError) as exc:
            param.check("key", value)
        assert exc.value.code == "RANGE_ERROR"
        assert str(exc.value).startswith(f"RANGE_ERROR: key={value!r}, expected ")


def test_param_describes_itself():
    assert str(Param(float, "[0, 1]")) == "float in [0, 1]"
    assert str(Param(int, "[1, inf)")) == "int in [1, inf)"
    assert str(Param(bool)) == "bool"
    assert str(Param(("a", "b"))) == "one of ('a', 'b')"
    assert str(Param(tuple, "[0, inf)")) == "non-empty list of int in [0, inf)"


def test_every_field_declares_a_param():
    for cls in (TrainConfig, NoiseSpec, SynthSpec):
        for f in dataclasses.fields(cls):
            assert isinstance(f.metadata["param"], Param), (cls, f.name)
            # every default is valid
            assert f.default is None or f.metadata["param"].accepts(f.default)


# --- values are checked, never converted -------------------------------------

def test_values_are_not_converted():
    cfg = TrainConfig(theta_s=1, seed=np.int64(2), hidden_dims=[8, 4])
    assert type(cfg.theta_s) is int and cfg.theta_s == 1
    assert type(cfg.seed) is np.int64
    assert cfg.hidden_dims == (8, 4)
    noise = NoiseSpec("asymmetric", 0.4, pair_map=[1, 2, 0])
    assert noise.pair_map == (1, 2, 0)
    assert SynthSpec(class_counts=[3, 2, 1, 1]).class_counts == (3, 2, 1, 1)
    echo = parse_config_dict({"theta_s": 1, "synth": {"separation": 4}}).echo()
    assert json.dumps(echo["train"]["theta_s"]) == "1"
    assert json.dumps(echo["synth"]["separation"]) == "4"


def test_int_seed_from_numpy_runs():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=10, dim=5,
                                            ood_classes=0, seed=np.int64(1)))
    cfg = TrainConfig(seed=np.int64(2), epochs=1, k_neighbours=3)
    out = run_experiment(synth.train, cfg, test=synth.test)
    assert len(out.record.epochs) == 1


# --- messages and cross-field rules ------------------------------------------

@pytest.mark.parametrize("cls, kwargs, message", [
    (TrainConfig, {"theta_s": True}, "theta_s=True, expected float in [0, 1]"),
    (TrainConfig, {"epochs": 1.5}, "epochs=1.5, expected int in [1, inf)"),
    (TrainConfig, {"oversample": None}, "oversample=None, expected bool"),
    (NoiseSpec, {"kind": "salt"},
     "kind='salt', expected one of ('symmetric', 'asymmetric', 'combined')"),
    (NoiseSpec, {"open_ratio": 0.5},
     "open_ratio=0.5 applies only to combined noise, not 'symmetric'"),
    (SynthSpec, {"class_counts": (5, 5)},
     "class_counts=(5, 5) has 2 entries, num_classes=4"),
    (SynthSpec, {"num_classes": 3, "class_counts": [5, 0, 5]},
     "class_counts=[5, 0, 5], expected non-empty list of int in [1, inf)"),
    (SynthSpec, {"dim": 7}, "dim=7 is below num_classes + ood_classes = 8"),
])
def test_range_error_names_key_and_value(cls, kwargs, message):
    with pytest.raises(ConfigError) as exc:
        cls(**kwargs)
    assert str(exc.value) == f"RANGE_ERROR: {message}"


@pytest.mark.parametrize("config, message", [
    ({"seed": -3}, "seed=-3, expected int in [0, inf)"),
    ({"noise": {"seed": -3}}, "noise.seed=-3, expected int in [0, inf)"),
    ({"synth": {"seed": -3}}, "synth.seed=-3, expected int in [0, inf)"),
    ({"synth": {"dim": 7}}, "synth.dim=7 is below num_classes + ood_classes = 8"),
    ({"noise": {"open_ratio": 0.5}},
     "noise.open_ratio=0.5 applies only to combined noise, not 'symmetric'"),
    ({"noise": {"kind": "asymmetric"}},
     "noise.kind='asymmetric' needs a pair_map"),
    ({"noise": {"kind": "asymmetric", "pair_map": [1, 2, 0]},
      "synth": {"num_classes": 4}},
     "noise.pair_map=(1, 2, 0) must map each of synth.num_classes=4 classes "
     "to another class"),
])
def test_range_error_names_its_section(config, message):
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(config)
    assert str(exc.value) == f"RANGE_ERROR: {message}"


@pytest.mark.parametrize("pair_map", [(1, 0), (1, 2, 2), (1, 2, 3), (0, 2, 1)])
def test_asymmetric_pair_map_checked_against_synth_classes(pair_map):
    noise = {"kind": "asymmetric", "pair_map": list(pair_map)}
    with pytest.raises(ConfigError):
        parse_config_dict({"noise": noise, "synth": {"num_classes": 3}})
    # without a synth section the class count is unknown until the input is
    # read, and the injector checks the map
    assert parse_config_dict({"noise": noise}).noise.pair_map == pair_map
    parsed = parse_config_dict({"noise": {**noise, "pair_map": [1, 2, 0]},
                                "synth": {"num_classes": 3}})
    assert parsed.noise.pair_map == (1, 2, 0)


@pytest.mark.parametrize("section", ["noise", "synth"])
@pytest.mark.parametrize("value", [None, 5, "ab", [1, 2]])
def test_section_that_is_not_an_object(section, value):
    with pytest.raises(ConfigError) as exc:
        parse_config_dict({section: value})
    assert exc.value.code == "PARSE_ERROR"
    assert str(exc.value) == (f"PARSE_ERROR: {section} section must be a JSON "
                              f"object, got {value!r}")


# --- property: any JSON value is a ConfigError or a run ----------------------

# a valid config that trains one epoch in milliseconds
TINY = {"epochs": 1, "k_neighbours": 3, "batch_size": 16, "hidden_dims": [4],
        "synth": {"num_classes": 3, "per_class": 8, "dim": 5, "ood_classes": 2},
        "noise": {"kind": "symmetric", "total_ratio": 0.3}}

# Fields that size an allocation draw their ints, bare or in lists, from
# [-2, 12] only: an allocation too large for the host (hidden_dims [10**12]
# raises MemoryError) is a resource limit, not a config error. Every other
# int field draws unbounded and huge ints.
SIZES = {"hidden_dims", "batch_size", "per_class", "num_classes", "dim",
         "ood_classes", "class_counts"}
FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.0, 0.5, 1.0])
HUGE_INTS = st.integers() | st.sampled_from([-1, 0, 1, 2, 2**63, 10**400])
WORDS = st.text(max_size=6) | st.sampled_from(
    ["cosine", "l2", "symmetric", "asymmetric", "combined"])

KEYS = ([(None, f.name) for f in dataclasses.fields(TrainConfig)]
        + [("noise", f.name) for f in dataclasses.fields(NoiseSpec)]
        + [("synth", f.name) for f in dataclasses.fields(SynthSpec)]
        + [(None, "noise"), (None, "synth")])


def json_values(ints):
    scalars = st.none() | st.booleans() | ints | FLOATS | WORDS
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4),
                        max_leaves=6)


# values that a field often accepts, so that a fair share of the drawn
# configs gets as far as a run
PLAUSIBLE = (st.integers(0, 12) | st.floats(0, 1)
             | st.lists(st.integers(0, 12), min_size=1, max_size=4))


def change(key):
    ints = st.integers(-2, 12) if key[1] in SIZES else HUGE_INTS
    return st.tuples(st.just(key), json_values(ints) | PLAUSIBLE)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(KEYS).flatmap(change), min_size=1, max_size=3))
def test_any_json_value_is_a_config_error_or_runs(changes):
    config = copy.deepcopy(TINY)
    for (section, name), value in changes:
        target = config if section is None else config[section]
        if isinstance(target, dict):   # an earlier change may replace it
            target[name] = value
    try:
        parsed = parse_config_dict(config)
    except ConfigError:
        return
    # A huge finite value can overflow in NumPy, with a RuntimeWarning, before
    # the run reports it as DIVERGED; the property is about what the caller
    # gets, so those warnings are not raised here.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            synth = make_gaussian_dataset(parsed.synth)
            data = apply_noise(synth.train, parsed.noise, synth.ood_pool)
            run_experiment(data, dataclasses.replace(parsed.train, epochs=1),
                           test=synth.test)
        except SsrError:
            pass
