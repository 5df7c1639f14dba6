"""Which characteristics the loader accepts: primality by deterministic
Miller-Rabin, and a refusal above the bound where it is proven exact."""

import contextlib
import io
import json
import math
import os

import pytest

from tauseq.cli import main
from tauseq.fields import _PRIME_BOUND, FieldSpec, _is_prime

with open(os.path.join(os.path.dirname(__file__), "..", "algebras", "a3.json")) as fh:
    A3 = json.load(fh)


def _by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_matches_trial_division_below_100000():
    assert [n for n in range(-3, 100000) if _is_prime(n)] == \
        [n for n in range(-3, 100000) if _by_trial_division(n)]


@pytest.mark.parametrize("n", [561, 1105, 1729, 2047, 3277, 4033, 3215031751])
def test_carmichael_numbers_and_strong_pseudoprimes_are_rejected(n):
    # Carmichael numbers, strong pseudoprimes to base 2, and the least
    # strong pseudoprime to the bases 2, 3, 5 and 7
    assert not _is_prime(n)
    with pytest.raises(ValueError):
        FieldSpec(n)


def test_large_primes_are_accepted():
    for p in (2 ** 61 - 1, 10 ** 16 + 61, 2 ** 31 - 1):
        assert FieldSpec(p).characteristic == p
    assert not _is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


def _run(tmp_path, characteristic, *argv):
    algebra = tmp_path / "a3.json"
    algebra.write_text(json.dumps(dict(A3, field={"characteristic": characteristic})))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(algebra)] + list(argv[1:]))
    return code, out.getvalue(), err.getvalue()


def test_a3_over_a_large_mersenne_prime_field_is_inspected_and_verified(tmp_path):
    p = 2 ** 61 - 1
    code, out, _ = _run(tmp_path, p, "inspect", "--json")
    assert code == 0 and json.loads(out)["algebra"]["certified"] is True
    code, out, _ = _run(tmp_path, p, "verify", "--suite", "all", "--json")
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize("characteristic", [_PRIME_BOUND, _PRIME_BOUND + 2, 2 ** 127 - 1])
def test_a_characteristic_at_or_above_the_bound_is_refused_with_exit_2(tmp_path,
                                                                       characteristic):
    code, out, err = _run(tmp_path, characteristic, "inspect")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "too large" in err
