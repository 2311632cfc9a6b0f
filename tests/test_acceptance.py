"""Acceptance gate: the twelve-item regression ladder, one test per item.

Run with -v to get one PASS/FAIL line per criterion.  Every comparison
inside the criteria is exact symbolic equality; a failure prints the
stored one-line summary of what broke.
"""

from hopfbax import regressions


def _run(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_spin_half_reference_via_cli():
    _run(regressions.criterion_1)


def test_criterion_02_spin_one_reference():
    _run(regressions.criterion_2)


def test_criterion_03_taft_9x9_reference_all_l():
    _run(regressions.criterion_3)


def test_criterion_04_parametric_ybe_for_all_families():
    _run(regressions.criterion_4)


def test_criterion_05_mu_one_specialization():
    _run(regressions.criterion_5)


def test_criterion_06_hopf_axioms_and_corruption_control():
    _run(regressions.criterion_6)


def test_criterion_07_grading_suite_and_mu_powers():
    _run(regressions.criterion_7)


def test_criterion_08_dual_grading_homogeneity():
    _run(regressions.criterion_8)


def test_criterion_09_canonical_element_constant_ybe():
    _run(regressions.criterion_9)


def test_criterion_10_zn_lift_matches_flat_baxterization():
    _run(regressions.criterion_10)


def test_criterion_11_taft_spin1_gauge_equivalence():
    _run(regressions.criterion_11)


def test_criterion_12_negative_controls():
    _run(regressions.criterion_12)


def test_ladder_is_complete():
    assert len(regressions.CRITERIA) == 12
    assert [fn.__name__ for fn in regressions.CRITERIA] == \
        [f"criterion_{k}" for k in range(1, 13)]
