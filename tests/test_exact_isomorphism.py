"""The isomorphism test is exact over every field, prime fields of any size
included: a basis of Hom(M, N) holds an isomorphism exactly when an
indecomposable M is isomorphic to N, and direct sums are matched summand by
summand."""

import json

import pytest

from tauseq.cli import main
from tauseq.decompose import is_isomorphic
from tauseq.fields import FieldSpec
from tauseq.linalg import Mat
from tauseq.modules import Rep, direct_sum, projective, simple
from tauseq.quiver import Quiver, build_algebra


def nakayama_cycle(characteristic):
    """The cyclic quiver 1 <-> 2 with every path of length two killed."""
    return {
        "field": {"characteristic": characteristic},
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"},
                   {"name": "b", "from": "2", "to": "1"}],
        "relations": [["a", "b"], ["b", "a"]],
    }


def run_json(tmp_path, capsys, command, characteristic):
    path = tmp_path / ("nakayama_%d.json" % characteristic)
    path.write_text(json.dumps(nakayama_cycle(characteristic)))
    code = main([command, str(path), "--json"] +
                (["--suite", "all"] if command == "verify" else []))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_nakayama_cycle_over_gf2_matches_rationals(tmp_path, capsys):
    rational = run_json(tmp_path, capsys, "inspect", 0)
    prime = run_json(tmp_path, capsys, "inspect", 2)
    assert prime["algebra"]["certified"] is True
    assert len(prime["algebra"]["indecomposables"]) == 4
    prime["algebra"]["characteristic"] = 0
    assert prime == rational


def test_nakayama_cycle_over_gf2_verifies(tmp_path, capsys):
    rational = run_json(tmp_path, capsys, "verify", 0)
    prime = run_json(tmp_path, capsys, "verify", 2)
    assert prime["passed"] is True
    assert prime["counts"] == rational["counts"]
    assert prime["mutation_graph"] == rational["mutation_graph"]


def linear(n, characteristic):
    names = [str(i + 1) for i in range(n)]
    arrows = [(chr(ord("a") + i), names[i], names[i + 1]) for i in range(n - 1)]
    return build_algebra(Quiver(names, arrows), FieldSpec(characteristic))


def dsum(*reps):
    return direct_sum(list(reps))[0]


@pytest.mark.parametrize("p", [0, 2, 3])
def test_projective_is_not_the_sum_of_its_composition_factors(p):
    a2 = linear(2, p)
    p1 = projective(a2, 0)
    s12 = dsum(simple(a2, 0), simple(a2, 1))
    assert p1.dims == s12.dims
    assert not is_isomorphic(p1, s12)
    assert not is_isomorphic(s12, p1)


@pytest.mark.parametrize("p", [0, 2, 3])
def test_summand_order_does_not_matter(p):
    a2 = linear(2, p)
    s1, p1 = simple(a2, 0), projective(a2, 0)
    assert is_isomorphic(dsum(s1, p1), dsum(p1, s1))
    assert not is_isomorphic(dsum(s1, p1), dsum(s1, s1, simple(a2, 1)))


def interval(a3, lo, hi):
    """The interval module of linear A3 supported on vertices lo..hi."""
    f = a3.field
    dims = [1 if lo <= v <= hi else 0 for v in range(3)]
    mats = [Mat.from_rows(f, [[1]]) if lo <= v < hi
            else Mat.zeros(f, dims[v + 1], dims[v]) for v in range(2)]
    return Rep(a3, dims, mats)


@pytest.mark.parametrize("p", [0, 2, 3])
def test_modules_of_one_dimension_vector_are_told_apart(p):
    # four pairwise non-isomorphic modules of dimension vector (1, 1, 1),
    # three of them decomposable with the same composition factors
    a3 = linear(3, p)
    mods = [interval(a3, 0, 2),
            dsum(interval(a3, 0, 1), interval(a3, 2, 2)),
            dsum(interval(a3, 0, 0), interval(a3, 1, 2)),
            dsum(*(interval(a3, v, v) for v in range(3)))]
    for i, m in enumerate(mods):
        for j, n in enumerate(mods):
            assert is_isomorphic(m, n) == (i == j)
    swapped = dsum(interval(a3, 2, 2), interval(a3, 0, 1))
    assert is_isomorphic(mods[1], swapped)


@pytest.mark.parametrize("p", [2, 3])
def test_kronecker_regular_modules_over_small_primes(p):
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = build_algebra(q, FieldSpec(p))
    f = alg.field

    def reg(lam):
        return Rep(alg, (1, 1), (Mat.from_rows(f, [[1]]), Mat.from_rows(f, [[lam]])))

    assert not is_isomorphic(reg(0), reg(1))
    assert is_isomorphic(dsum(reg(0), reg(1)), dsum(reg(1), reg(0)))
    assert not is_isomorphic(dsum(reg(0), reg(0)), dsum(reg(0), reg(1)))
