"""Unit tests for the secondary-structure counting module."""

import pytest

from qmetallic.errors import BudgetExceeded
from qmetallic.metallic import kappa_values
from qmetallic.rna import (
    ENUMERATION_BUDGET,
    count_grid,
    count_structures,
    enumerate_structures,
    family_divergence,
    generate_structures,
    motzkin_values,
    rna_closed_form,
    rna_p_recurrence_check,
    rna_recurrence,
    sign_bridge_check,
    _brute_structures,
    _count_table,
)

# generalized Catalan numbers (rank-1 structure counts)
A_PREFIX = [1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423, 978, 2283]
MOTZKIN_PREFIX = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


def test_recurrence_prefix():
    assert rna_recurrence(13) == A_PREFIX


def test_closed_form_agrees():
    got = [rna_closed_form(l) for l in range(13)]
    assert got == A_PREFIX


def test_closed_form_matches_recurrence_deep():
    want = rna_recurrence(80)
    assert [rna_closed_form(l) for l in range(80)] == want


def test_p_recurrence_check():
    res = rna_p_recurrence_check(200)
    assert res and res.checked_order == 200


def test_motzkin_prefix():
    assert motzkin_values(11) == MOTZKIN_PREFIX


def test_motzkin_recurrence_matches_rank0_counts():
    # two different computations: holonomic recurrence against the DP
    assert motzkin_values(300) == [count_structures(l, 0) for l in range(300)]


def test_counts_match_enumeration():
    for l in range(13):
        assert enumerate_structures(l, 1) == count_structures(l, 1)
        assert count_structures(l, 1) == A_PREFIX[l]


def test_rank0_is_motzkin():
    for l in range(11):
        assert count_structures(l, 0) == MOTZKIN_PREFIX[l]


def test_explicit_structures_small():
    assert generate_structures(0, 1) == [()]
    assert generate_structures(5, 1) == [
        (), ((1, 3),), ((1, 4),), ((1, 5),), ((1, 5), (2, 4)),
        ((2, 4),), ((2, 5),), ((3, 5),),
    ]


def test_structure_invariants():
    for rank in (0, 1, 2):
        for st in generate_structures(8, rank):
            seen = set()
            for i, j in st:
                assert 1 <= i < j <= 8
                assert j - i > rank          # span restriction
                assert i not in seen and j not in seen
                seen.update((i, j))
            for (a, b) in st:
                for (c, d) in st:
                    if a < c:                # no crossings
                        assert d < b or c > b


def test_generation_matches_counts_across_ranks():
    for rank in (0, 1, 2, 3):
        for l in range(12):
            assert len(generate_structures(l, rank)) == \
                count_structures(l, rank)


def test_brute_force_agrees():
    for rank in (0, 1, 2):
        for l in range(10):
            assert _brute_structures(l, rank) == generate_structures(l, rank)


def test_count_monotone_in_rank():
    for l in range(14):
        counts = [count_structures(l, r) for r in range(6)]
        assert counts == sorted(counts, reverse=True)


def test_count_trivial_for_large_rank():
    for l in range(10):
        for r in range(max(0, l - 1), l + 3):
            assert count_structures(l, r) == 1


def _plain_count_table(length, rank):
    """The counting DP summed term by term over the arc's left end."""
    f = [1] * (length + 1)
    for m in range(1, length + 1):
        f[m] = f[m - 1] + sum(f[a - 1] * f[m - a - 1]
                              for a in range(1, m - rank))
    return tuple(f)


@pytest.mark.parametrize("rank", range(4))
def test_count_table_is_the_plain_dp(rank):
    # the table takes the sum over arcs as half a square plus rank terms
    assert _count_table(600, rank) == _plain_count_table(600, rank)
    for length in range(8):
        assert (_count_table(length, rank)
                == _plain_count_table(length, rank))


def test_budget_enforced():
    with pytest.raises(BudgetExceeded):
        enumerate_structures(ENUMERATION_BUDGET + 1, 1)
    with pytest.raises(BudgetExceeded):
        generate_structures(ENUMERATION_BUDGET + 1, 1)
    with pytest.raises(BudgetExceeded):
        _brute_structures(11, 1)
    # counting alone is unbudgeted
    assert count_structures(40, 1) > 0


def test_sign_bridge():
    res = sign_bridge_check(300)
    assert res and res.checked_order == 300
    a = rna_recurrence(21)
    kv = kappa_values(1, 21)
    for l in range(2, 21):
        assert kv[l] == (-1) ** l * a[l - 1]


def test_sign_bridge_reports_one_wrong_coefficient(monkeypatch):
    from qmetallic import metallic

    right = kappa_values(1, 40)
    for l in (0, 1, 2, 17):
        vals = list(right)
        vals[l] += 1
        monkeypatch.setattr(metallic, "_tables", {1: vals})
        res = sign_bridge_check(40)
        assert not res and res.first_failure == l


def test_count_grid_rows():
    rows = count_grid(6, 2)
    assert [(l, r) for l, r, _ in rows] == [(l, r) for l in range(1, 7)
                                            for r in range(3)]
    assert all(c == count_structures(l, r) for l, r, c in rows)
    assert count_grid(0, 3) == []


def test_family_divergence():
    gap = family_divergence(15)
    assert gap == 1
    # the rank-2 counts and the index-2 coefficient magnitudes differ
    kv2 = kappa_values(2, 4)
    assert count_structures(gap, 2) != abs(kv2[gap + 1])
    with pytest.raises(BudgetExceeded):
        family_divergence(ENUMERATION_BUDGET + 1)
