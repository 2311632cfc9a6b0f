"""The YBE walk's contract fuzzed on bound path algebras of random quivers
(see path_algebras.py)."""

from hypothesis import given, settings

from path_algebras import check_walk_contract
from strategies import path_algebra_cases


@settings(max_examples=50, deadline=None)
@given(path_algebra_cases())
def test_walk_contract_on_random_path_algebras(case):
    # the walk prunes by the declared classes, takes no product by the
    # shared 1 on either operand and adds the exponents of its leaf keys,
    # on sparsity patterns, None placements and units that neither M_d
    # nor the double has, in either bracket
    check_walk_contract(*case)
