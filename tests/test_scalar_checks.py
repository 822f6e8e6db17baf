"""Every number the package is given goes through ``core._check_int`` or
``core._check_real``: one test over every site, each fed a bool, a float
size, a string, NaN, inf and a value below its least one."""

import math

import numpy as np
import pytest

from dpsynth.bounds import BoundInputs, cut_bound
from dpsynth.continuous import LipschitzQuery, choose_k
from dpsynth.core import ConfigError, DataUniverse, Database, RandomSource, ValidationError, enumeration_size
from dpsynth.estimators import measure_distortion
from dpsynth.graph import edges_database, erdos_renyi_graph, power_law_graph
from dpsynth.harness import config_from_dict, load_ingestion_schema
from dpsynth.mechanism import MechanismParams
from dpsynth.oracle import micro_minimax_report
from dpsynth.queries import generate_random_query, make_predicate_query, query_from_dict

U = DataUniverse(1)


def _measure(trials):
    q = make_predicate_query(U, 4, [0])
    x = Database(U, [0, 1, 0, 1])
    return measure_distortion(q, x, MechanismParams(1.0, U), trials=trials, rng=RandomSource(0))


# an experiment that reads the field, where heterogeneity does not: a config
# refuses a field its experiment does not read before checking its value
_READER = {"database_count": "query_set_size", "cut_count": "cut_scaling", "graph_param": "cut_scaling"}


def _config(**fields):
    (name,) = fields
    return config_from_dict({"experiment": _READER.get(name, "heterogeneity"), **fields})


# (site, call, what, least value or None, error class) of each integer site
INT_SITES = [
    ("universe", DataUniverse, "universe dimension", 1, ValidationError),
    ("enumeration-size", lambda v: enumeration_size(U, v), "database size", 1, ValidationError),
    ("seed", RandomSource, "seed", 0, ValidationError),
    ("stream", lambda v: RandomSource(0, v), "stream", 0, ValidationError),
    ("derive", lambda v: RandomSource(0).derive(v), "random stream index", 0, ValidationError),
    ("derive-nested", lambda v: RandomSource(0).derive(1, v), "random stream index", 0, ValidationError),
    ("bound-n", lambda v: BoundInputs(n=v, l=1, epsilon=1.0), "n", 1, ValidationError),
    ("cut-bound-s", lambda v: cut_bound(v, 1, 1.0), "|S|", 1, ValidationError),
    ("cut-bound-t", lambda v: cut_bound(1, v, 1.0), "|T|", 1, ValidationError),
    ("predicate-n", lambda v: make_predicate_query(U, v, [0]), "n", 1, ValidationError),
    ("query-field-l", lambda v: query_from_dict({"type": "predicate", "l": v, "n": 4, "conjunct_bits": [0]}),
     "query field 'l'", 1, ValidationError),
    ("query-field-n", lambda v: query_from_dict({"type": "predicate", "l": 1, "n": v, "conjunct_bits": [0]}),
     "query field 'n'", 1, ValidationError),
    ("random-query-n", lambda v: generate_random_query(U, v, 1, RandomSource(0)), "n", 1, ValidationError),
    ("random-query-heterogeneity", lambda v: generate_random_query(U, 4, v, RandomSource(0)),
     "heterogeneity", 1, ValidationError),
    ("random-query-count", lambda v: generate_random_query(U, 4, 1, RandomSource(0), count=v),
     "count", 1, ValidationError),
    ("trials", _measure, "trials", 1, ValidationError),
    ("choose-k", choose_k, "n", 1, ValidationError),
    ("erdos-renyi", lambda v: erdos_renyi_graph(v, 0.5, RandomSource(0)), "vertex_count", 1, ValidationError),
    ("power-law-vertices", lambda v: power_law_graph(v, 1, RandomSource(0)), "vertex_count", 2, ValidationError),
    ("power-law-attach", lambda v: power_law_graph(5, v, RandomSource(0)), "attach_count", 1, ValidationError),
    ("edges-database", lambda v: edges_database(v, []), "vertex_count", 1, ValidationError),
    *[(f"config-{name}", lambda v, name=name: _config(**{name: v}), name, least, ConfigError)
      for name, least in [("seed", 0), ("l", 1), ("n", 1), ("query_count", 1), ("database_count", 1),
                          ("cut_count", 1), ("trial_count", 1)]],
    ("config-grid", lambda v: config_from_dict({"experiment": "database_scaling", "n_grid": [v]}),
     "an entry of n_grid", 1, ConfigError),
    ("schema-cardinality", lambda v: load_ingestion_schema({"columns": [{"name": "x", "cardinality": v}]}),
     "column 'x': cardinality", 2, ConfigError),
]

# (site, call, what, least value or None, error class) of each real site
REAL_SITES = [
    ("mechanism-epsilon", lambda v: MechanismParams(v, U), "epsilon", 0, ValidationError),
    ("bound-epsilon", lambda v: BoundInputs(n=10, l=1, epsilon=v), "epsilon", 0, ValidationError),
    ("bound-a", lambda v: BoundInputs(n=10, l=1, epsilon=1.0, a=v), "a", None, ValidationError),
    ("bound-b", lambda v: BoundInputs(n=10, l=1, epsilon=1.0, b=v), "b", None, ValidationError),
    ("bound-c", lambda v: BoundInputs(n=10, l=1, epsilon=1.0, c=v), "c", None, ValidationError),
    ("bound-L", lambda v: BoundInputs(n=10, l=1, epsilon=1.0, L=v), "Lipschitz constant", 0, ValidationError),
    ("lipschitz-L", lambda v: LipschitzQuery(lambda u: u, v, 0.0, 1.0), "Lipschitz constant", 0, ValidationError),
    ("lipschitz-lower", lambda v: LipschitzQuery(lambda u: u, 1.0, v, 1.0), "lower", None, ValidationError),
    ("lipschitz-upper", lambda v: LipschitzQuery(lambda u: u, 1.0, 0.0, v), "upper", None, ValidationError),
    ("oracle-epsilon", lambda v: micro_minimax_report(U, 2, v), "epsilon", None, ValidationError),
    # its range check, [0, 1], has its own wording
    ("edge-probability", lambda v: erdos_renyi_graph(4, v, RandomSource(0)), "edge probability", None,
     ValidationError),
    *[(f"config-{name}", lambda v, name=name: _config(**{name: v}), name, None, ConfigError)
      for name in ("epsilon", "graph_param")],
]

BAD_INTS = {"bool": True, "float": 2.0, "string": "2", "nan": math.nan, "inf": math.inf}
BAD_REALS = {"bool": True, "string": "2", "nan": math.nan, "inf": math.inf, "numpy-nan": np.float64("nan"),
             "beyond-float": 10**400}


def _cases(sites, bad_values, noun):
    for site, call, what, least, error in sites:
        for kind, value in bad_values.items():
            yield pytest.param(call, value, error, f"{what} must be {noun}, got {value!r}", id=f"{site}-{kind}")
        if least is not None:
            # the real sites' least value is 0 and holds for 0 itself
            below = least - 1 if noun == "an integer" else -0.5
            message = f"{what} must be >= {least}, got {below}"
            yield pytest.param(call, below, error, message, id=f"{site}-below")


@pytest.mark.parametrize(
    "call,value,error,message",
    [*_cases(INT_SITES, BAD_INTS, "an integer"), *_cases(REAL_SITES, BAD_REALS, "a finite number")],
)
def test_every_site_rejects_with_the_one_wording(call, value, error, message):
    with pytest.raises(ValidationError) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3)])
def test_numpy_integers_are_integers(value):
    assert DataUniverse(value) == DataUniverse(3)
    assert RandomSource(value).generator().integers(1 << 30) == RandomSource(3).generator().integers(1 << 30)
    assert type(_config(n=value).n) is int


def test_bounds_store_the_checked_numbers():
    inputs = BoundInputs(n=np.int64(10), l=1, epsilon=1, a=0, b=np.float32(2.0), c=1, L=3)
    assert (inputs.n, inputs.epsilon, inputs.a, inputs.b, inputs.c, inputs.L) == (10, 1.0, 0.0, 2.0, 1.0, 3.0)
    assert {type(v) for v in (inputs.epsilon, inputs.a, inputs.b, inputs.c, inputs.L)} == {float}


def test_checked_stream_indices_keep_their_streams():
    # every pinned stream derives plain ints; numpy ints name the same stream
    plain = RandomSource(5).derive(1, 2).derive(3)
    assert plain.path == (1, 2, 3)
    draw = plain.generator().integers(1 << 30, size=4)
    assert (RandomSource(5).derive(np.int64(1), np.uint8(2), 3).generator().integers(1 << 30, size=4) == draw).all()
    assert (RandomSource(5, 0, (1, 2, 3)).generator().integers(1 << 30, size=4) == draw).all()
