import inspect

import pytest

from drrl import verify

# each suite's checks and the tolerance each states; a suite whose bound is
# loosened, or whose check is renamed or dropped, fails here
TOLERANCES = {
    "duality": {"duality": 1e-3},
    "lambda": {"lambda-certificate": 1e-6},
    "ccl": {"ccl-equivalence": 1e-3},
    "kl-limit": {"kl-limit": 1e-2},
    "degeneracy": {"drrl-ccl-degeneracy": 1e-12},
    "gradients": {"score-gradients": 1e-4, "margin-gradient": 1e-4,
                  "full-chain-gradients": 1e-4, "infonce-gradients": 1e-4},
    "convexity": {"margin-convexity": 1e-10},
    "weights": {"weight-normalization": 1e-3, "sl-weights-mean-one": 1e-12},
    "preset-range": {"preset-range": 1e-3},
}


def test_every_suite_is_listed():
    assert list(TOLERANCES) == list(verify.SUITES)


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_suite_passes_at_seed_0_and_states_its_tolerance(name):
    suite = verify.SUITES[name]
    # the oracle suites' first 20 instances; the others run in full
    kwargs = {"count": 20} if "count" in inspect.signature(suite).parameters else {}
    checks = suite(seed=0, **kwargs)
    assert [c for c in checks if not c["passed"]] == []
    assert {c["name"]: c["tolerance"] for c in checks} == TOLERANCES[name]
