import json
import pathlib

from hpa.morse import (MorseComplex, load_matching, check_internal,
                       check_acyclic)
from hpa.realization import build_realization
from hpa.resolution import verify_d_squared
from hpa.toric import weight_data_from_json, image_phi

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / 'fixtures'


def test_f3_fixture_shape(f3):
    assert len(f3.quiver.vertices) == 4
    assert len(f3.quiver.arrows) == 9
    assert len(f3.classes) == 28
    x = build_realization(f3)
    assert x.counts() == [4, 24, 32, 12]


def test_f1_fixture_shape(f1):
    assert len(f1.quiver.vertices) == 4
    assert len(f1.quiver.arrows) == 7


def test_p113_fixture_shape(p113):
    assert len(p113.quiver.vertices) == 5
    assert len(p113.quiver.arrows) == 10
    assert len(p113.classes) == 39


def test_f3_matching_fixture(f3):
    m = load_matching(FIXTURES / 'f3_matching.json', f3)
    # the listed pairs include rebased duplicates that collapse on load
    raw = json.loads((FIXTURES / 'f3_matching.json').read_text())
    assert len(raw['pairs']) == 30
    assert len(m.pairs) == 26
    assert check_internal(m).ok
    assert check_acyclic(m).ok
    mc = MorseComplex(m)
    assert mc.counts() == [4, 9, 6, 1]
    assert verify_d_squared(mc).ok


def test_weight_fixtures_consistent():
    for name in ['p2', 'p113', 'f1', 'f3']:
        data = json.loads((FIXTURES / f'{name}.weights.json').read_text())
        w, degrees = weight_data_from_json(data)
        if degrees is None:
            continue
        assert set(degrees) <= image_phi(w)
