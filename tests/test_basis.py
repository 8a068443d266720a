"""Admissible-family certificates and the constructive lattice lemmas:
escape from hyperplane unions, slope avoidance, complement merging,
generic-position extension, and the two basis constructors."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import padlog.basis
from padlog import (
    DegenerateInput,
    Indeterminate,
    InputError,
    LatticeSetup,
    PadicContext,
    SearchExhausted,
    SingularOperator,
    avoid_slopes,
    construct_admissible,
    construct_strongly_admissible,
    escape_union,
    generic_position_extend,
    is_admissible,
    is_strongly_admissible,
    merge_complement,
)

from oracles import (
    in_span,
    inv_oracle,
    perm_det,
    rank_mod_p,
    rank_oracle,
    vp_rational,
)

CTX = PadicContext(3, rel_prec=20, denom_budget=24)

E1, E2, E3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]

PHI_OK = [[0, 1, 0], [2, 0, 0], [0, 0, 3]]


def setup_rank3(phi=None):
    return LatticeSetup(CTX, 3, 2, [[0, 0, 1]], phi_matrix=phi)


def subset_det(setup, vectors, I):
    cols = [vectors[i - 1] for i in I] + [list(v) for v in setup.fil0_dual]
    mat = [[cols[j][i] for j in range(setup.g)] for i in range(setup.g)]
    return perm_det(mat)


def test_setup_validation():
    with pytest.raises(InputError):
        LatticeSetup(CTX, 3, 2, [])  # needs one fil0_dual vector
    with pytest.raises(InputError):
        LatticeSetup(CTX, 3, 2, [[0, 0, 3]])  # rank deficient mod p
    with pytest.raises(InputError):
        LatticeSetup(CTX, 3, 0, [[0, 0, 1]])
    with pytest.raises(InputError):
        LatticeSetup(CTX, 3, 2, [[0, 0, Fraction(1, 3)]])


def test_admissible_family_all_units():
    setup = setup_rank3()
    fam = [E1, E2, [1, 1, 0]]
    cert = is_admissible(setup, fam)
    assert cert.admissible and cert.saturated
    for sc in cert.subsets:
        assert sc.unit
        # independent recomputation of every subset determinant
        assert sc.det == subset_det(setup, fam, sc.indices)


def test_admissible_but_not_saturated():
    setup = setup_rank3()
    fam = [E1, E2, [1, 3, 0]]
    cert = is_admissible(setup, fam)
    assert cert.admissible and not cert.saturated
    vals = {sc.indices: sc.valuation for sc in cert.subsets}
    assert vals[(1, 3)] == 1
    assert vals[(1, 2)] == 0 and vals[(2, 3)] == 0


def test_not_admissible_on_degenerate_subset():
    setup = setup_rank3()
    cert = is_admissible(setup, [E1, E2, E1])
    assert not cert.admissible
    dead = [sc for sc in cert.subsets if not sc.ok]
    assert [sc.indices for sc in dead] == [(1, 3)]


def test_indeterminate_when_valuation_hits_threshold():
    # rel_prec 4, g 3: tau = 1, so any positive valuation is undecidable
    ctx = PadicContext(3, rel_prec=4, denom_budget=10)
    setup = LatticeSetup(ctx, 3, 2, [[0, 0, 1]])
    with pytest.raises(Indeterminate) as exc:
        is_admissible(setup, [E1, E2, [1, 3, 0]])
    assert exc.value.certificate is not None
    assert not exc.value.certificate.admissible


def test_strong_certificate_requires_phi():
    setup = setup_rank3()
    with pytest.raises(InputError):
        is_strongly_admissible(setup, [E1, E2, [1, 1, 0]])


def test_families_of_the_wrong_size_are_rejected():
    # the length check comes first, before any determinant or transport
    setup = setup_rank3()
    for check in (is_admissible, is_strongly_admissible):
        for fam in ([E1, E2], [E1, E2, [1, 1, 0], E3]):
            with pytest.raises(InputError, match="expected 3 vectors"):
                check(setup, fam)


def test_transport_operator_singularities():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(SingularOperator) as exc:
        setup_rank3(phi=ident).transport_operator()
    assert "1 is an eigenvalue" in str(exc.value)
    third = [[Fraction(1, 3), 0, 0], [0, Fraction(1, 3), 0],
             [0, 0, Fraction(1, 3)]]
    with pytest.raises(SingularOperator) as exc:
        setup_rank3(phi=third).transport_operator()
    assert "1/p is an eigenvalue" in str(exc.value)


def _frac_mul(A, B):
    return [[sum((Fraction(a) * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*B)] for row in A]


def test_transport_operator_matches_the_oracle():
    # T = (1 - phi)^-1 (p phi - 1) on seeded rational phi, singular
    # factors included
    rng = random.Random(33)
    raised = set()
    for p in (3, 5, 7):
        ctx = PadicContext(p)
        for g in range(2, 6):
            for _ in range(6):
                phi = [[Fraction(rng.choice((0, 1, 1, -1, 2, p)),
                                 rng.choice((1, 1, p, 2)))
                        for _ in range(g)] for _ in range(g)]
                # a first row e_1 or e_1 / p makes a factor singular
                scale = rng.choice((None, None, None, 1, p))
                if scale:
                    phi[0] = [Fraction(int(j == 0), scale) for j in range(g)]
                fil = [[int(i == j) for j in range(g)] for i in range(g - 1)]
                setup = LatticeSetup(ctx, g, 1, fil, phi_matrix=phi)
                one_minus = [[int(i == j) - x for j, x in enumerate(row)]
                             for i, row in enumerate(phi)]
                p_phi_minus = [[p * x - int(i == j) for j, x in enumerate(row)]
                               for i, row in enumerate(phi)]
                if perm_det(one_minus) == 0:
                    with pytest.raises(SingularOperator, match="1 is an"):
                        setup.transport_operator()
                    raised.add("1")
                elif perm_det(p_phi_minus) == 0:
                    with pytest.raises(SingularOperator, match="1/p is an"):
                        setup.transport_operator()
                    raised.add("1/p")
                else:
                    assert setup.transport_operator() == _frac_mul(
                        inv_oracle(one_minus), p_phi_minus)
    assert raised == {"1", "1/p"}


def test_escape_union_frozen_small_case():
    hyps = [[E1, E2], [E1, E3]]
    v = escape_union(CTX, 3, hyps)
    assert v == [0, 1, 1]
    for H in hyps:
        assert not in_span(H, v)
    assert any(x % 3 for x in v)


def test_escape_union_when_every_small_candidate_is_blocked():
    # rank 2: lines through (1, 0), (0, 1) and the first three points
    # (1, t) of the moment curve; h = 5 allows t up to 6, and t = 4 is
    # the first point off every line
    lines = [[[1, 0]], [[0, 1]], [[1, 1]], [[1, 2]], [[1, 3]]]
    assert escape_union(CTX, 2, lines) == [1, 4]
    # rank 3: a plane through each of the seven 0/1 vectors and through
    # (1, 2, 4), the point t = 2 of the curve
    small = [list(v) for v in itertools.product((0, 1), repeat=3) if any(v)]
    planes = [[v, [1, 2, 4]] for v in small]
    v = escape_union(CTX, 3, planes)
    t = next(t for t in range(1, 16)
             if not any(in_span(H, [1, t, t * t]) for H in planes))
    assert t > 2 and v == [1, t, t * t]
    for H in planes:
        assert not in_span(H, v)


def test_escape_union_many_hyperplanes():
    # every hyperplane x_i = x_j plus the coordinate planes
    hyps = []
    for i, j in itertools.combinations(range(3), 2):
        other = [k for k in range(3) if k not in (i, j)]
        diag = [0, 0, 0]
        diag[i], diag[j] = 1, 1
        rows = [diag, [int(k == other[0]) for k in range(3)]]
        hyps.append(rows)
    for i in range(3):
        rows = [[int(k == j) for k in range(3)]
                for j in range(3) if j != i]
        hyps.append(rows)
    v = escape_union(CTX, 3, hyps)
    for H in hyps:
        assert not in_span(H, v)
    assert any(x % 3 for x in v)


def test_escape_union_validation():
    with pytest.raises(InputError):
        escape_union(CTX, 3, [[E1]])  # not corank one
    with pytest.raises(InputError):
        escape_union(CTX, 0, [])


def test_avoid_slopes_identity_frozen():
    x, y = avoid_slopes(CTX, 1, 0, 0, 1, [1])
    assert (x, y) == (1, 2)


def test_avoid_slopes_invariants():
    a, b, c, d = 2, 1, 1, 1
    forbidden = [Fraction(3, 2), Fraction(2), 0]
    x, y = avoid_slopes(CTX, a, b, c, d, forbidden)
    assert x % 3 and y % 3
    den = c * x + d * y
    assert vp_rational(Fraction(den), 3) == 0
    assert Fraction(a * x + b * y, den) not in set(map(Fraction, forbidden))


def test_avoid_slopes_scans_y_at_x_one():
    # d = 1: c + d y = y fails to be a unit on the class 0 only, and the
    # two forbidden ratios 1/y exclude y = 1 and y = 2
    assert avoid_slopes(CTX, 1, 0, 0, 1, [1, Fraction(1, 2)]) == (1, 4)
    # d = 3 is not a unit, so c + d y = 1 + 3 y is a unit for every y,
    # and y = 3 is skipped only because it is not a unit itself
    forbidden = [Fraction(1, 4), Fraction(2, 7)]
    assert avoid_slopes(CTX, 0, 1, 1, 3, forbidden) == (1, 4)


def test_avoid_slopes_validation():
    with pytest.raises(InputError):
        avoid_slopes(CTX, Fraction(1, 3), 0, 0, 1, [])
    with pytest.raises(InputError):
        avoid_slopes(CTX, 1, 1, 1, 1, [])  # determinant zero
    with pytest.raises(InputError):
        avoid_slopes(CTX, 3, 0, 0, 1, [])  # determinant not a unit


def merged_is_valid(v, W1, v1, W2, v2, avoid=()):
    for W in (W1, W2):
        border = [list(r) for r in W] + [list(v)]
        det = perm_det(border)
        assert det != 0 and vp_rational(det, 3) == 0
    for H in avoid:
        assert not in_span(H, v)


def test_merge_complement_plain():
    W1, v1 = [E1, E2], E3
    W2, v2 = [E2, E3], E1
    v = merge_complement(CTX, 3, W1, v1, W2, v2)
    merged_is_valid(v, W1, v1, W2, v2)


def test_merge_complement_with_avoidance():
    W1, v1 = [E1, E2], E3
    W2, v2 = [E1, E3], E2
    avoid = [[E1, [0, 1, 1]]]
    v = merge_complement(CTX, 3, W1, v1, W2, v2, avoid_hyperplanes=avoid)
    merged_is_valid(v, W1, v1, W2, v2, avoid)


def test_merge_complement_shared_complement_line():
    # both inputs already share the complement direction
    W1, v1 = [E1, E2], E3
    W2, v2 = [E1, [1, 1, 0]], E3
    v = merge_complement(CTX, 3, W1, v1, W2, v2)
    merged_is_valid(v, W1, v1, W2, v2)


def test_merge_complement_scans_up_to_the_bound():
    # v = v1 + t v2 = (t, 1 + t) has indices 1 + t and -t, which are both
    # units only for t = 1 mod 3; each line to avoid removes one such t,
    # so h lines push the answer to t = 3 h + 1 < 3 (h + 1)
    W1, v1, W2, v2 = [[1, 0]], [0, 1], [[0, 1]], [1, 1]
    assert merge_complement(CTX, 2, W1, v1, W2, v2) == [1, 2]
    lines = [[[1, 2]], [[4, 5]]]
    for h in (1, 2):
        v = merge_complement(CTX, 2, W1, v1, W2, v2,
                             avoid_hyperplanes=lines[:h])
        assert v == [3 * h + 1, 3 * h + 2]
        merged_is_valid(v, W1, v1, W2, v2, lines[:h])


def test_merge_complement_rejects_non_integral_input():
    # v1 + t v2 would not be a lattice vector
    with pytest.raises(InputError, match="non p-integral"):
        merge_complement(CTX, 3, [E1, E2], E3, [E2, E3],
                         [1, Fraction(1, 3), 0])
    with pytest.raises(InputError, match="non p-integral"):
        merge_complement(CTX, 3, [E1, [0, Fraction(1, 3), 0]], E3,
                         [E2, E3], E1)


def test_merge_complement_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        merge_complement(CTX, 3, [E1, E2], E1, [E2, E3], E1)
    # v1 = p * e3 has non-unit complement index
    with pytest.raises(DegenerateInput):
        merge_complement(CTX, 3, [E1, E2], [0, 0, 3], [E2, E3], E1)
    # both candidates sit inside the hyperplane to avoid
    with pytest.raises(DegenerateInput):
        merge_complement(CTX, 3, [E1, E2], E3, [E1, E3], E2,
                         avoid_hyperplanes=[[E2, E3]])


def test_generic_position_units_bound():
    ident = [[1, 0], [0, 1]]
    out, mode = generic_position_extend(CTX, ident, 2, mode="units")
    assert mode == "units" and len(out) == 4
    for sub in itertools.combinations(out, 2):
        det = perm_det([[col[i] for col in sub] for i in range(2)])
        assert det != 0 and vp_rational(det, 3) == 0
    # p + 1 = 4 vectors is the ceiling over F_3
    with pytest.raises(SearchExhausted):
        generic_position_extend(CTX, ident, 3, mode="units")


def _unit_basis(rng, p, m):
    while True:
        basis = [[rng.randrange(-3, 4) for _ in range(m)] for _ in range(m)]
        det = perm_det(basis)
        if det != 0 and vp_rational(det, p) == 0:
            return basis


@pytest.mark.parametrize("p", [3, 5, 7])
def test_generic_position_units_meets_the_arc_bound(p, monkeypatch):
    # p + 1 vectors for 2 <= m <= p (Ball), m + 1 for m > p (Bush), any
    # number for m = 1; m > p is checked at p = 3 and 5, where the
    # permutation expansion of the subset determinants stays small
    import padlog.basis as basis_mod

    ctx = PadicContext(p)
    rng = random.Random(p)
    for m in range(1, 7 if p < 7 else 6):
        bound = 3 * p if m == 1 else p + 1 if m <= p else m + 1
        basis = _unit_basis(rng, p, m)
        out, mode = generic_position_extend(ctx, basis, bound - m,
                                            mode="units")
        assert mode == "units" and len(out) == bound
        assert out[:m] == basis
        for sub in itertools.combinations(out, m):
            det = perm_det([[col[i] for col in sub] for i in range(m)])
            assert det != 0 and vp_rational(det, p) == 0
        for k in range(1, bound - m):
            assert generic_position_extend(ctx, basis, k,
                                           mode="units")[0] == out[:m + k]
        if m == 1:
            continue
        calls = []
        det = basis_mod.frac_det
        monkeypatch.setattr(basis_mod, "frac_det",
                            lambda A: calls.append(1) or det(A))
        with pytest.raises(SearchExhausted):
            generic_position_extend(ctx, basis, bound - m + 1, mode="units")
        assert len(calls) <= 1
        monkeypatch.undo()
        assert generic_position_extend(ctx, basis, bound - m + 1,
                                       mode="auto")[1] == "nonzero"


def test_generic_position_auto_degrades():
    ident = [[1, 0], [0, 1]]
    out, mode = generic_position_extend(CTX, ident, 3, mode="auto")
    assert mode == "nonzero" and len(out) == 5
    for sub in itertools.combinations(out, 2):
        det = perm_det([[col[i] for col in sub] for i in range(2)])
        assert det != 0
    # some minor must fail to be a unit past the F_p ceiling
    vals = [
        vp_rational(perm_det([[col[i] for col in sub] for i in range(2)]), 3)
        for sub in itertools.combinations(out, 2)
    ]
    assert any(v > 0 for v in vals)


def test_generic_position_keeps_span():
    basis = [[2, 1], [1, 1]]
    out, _ = generic_position_extend(CTX, basis, 2, mode="auto")
    for v in out:
        assert in_span(basis, v)


def test_generic_position_validation():
    with pytest.raises(InputError):
        generic_position_extend(CTX, [[1, 0], [0, 3]], 1)
    with pytest.raises(InputError):
        generic_position_extend(CTX, [[1, 0], [0, 1]], 1, mode="bogus")


def test_construct_admissible_rank3():
    setup = setup_rank3()
    cand = construct_admissible(setup)
    assert cand.admissible and cand.is_basis
    # re-verify every certificate from the raw vectors
    for sc in cand.certificates["plain"].subsets:
        det = subset_det(setup, [list(v) for v in cand.vectors], sc.indices)
        assert det == sc.det
        assert det != 0 and vp_rational(det, 3) == sc.valuation


def test_construct_admissible_larger_ranks():
    for g, g_minus in ((2, 1), (4, 2), (4, 3)):
        g_plus = g - g_minus
        fil = [[int(j == g - 1 - i) for j in range(g)] for i in range(g_plus)]
        setup = LatticeSetup(CTX, g, g_minus, fil)
        cand = construct_admissible(setup)
        assert cand.admissible and cand.is_basis
        det = perm_det([[cand.vectors[j][i] for j in range(g)]
                        for i in range(g)])
        assert vp_rational(det, 3) == 0


def _assert_lifted_family(setup, cand):
    """The family is a basis, every certificate det is the permutation
    determinant of [v_I; F], and it is saturated exactly when the
    extension is in unit position."""
    p, g = setup.ctx.p, setup.g
    vecs = [list(v) for v in cand.vectors]
    assert cand.admissible and cand.is_basis
    assert vp_rational(perm_det(vecs), p) == 0
    fil = [list(v) for v in setup.fil0_dual]
    certs = cand.certificates["plain"].subsets
    assert len(certs) == len(list(itertools.combinations(range(g),
                                                         setup.g_minus)))
    for sc in certs:
        det = perm_det([vecs[i - 1] for i in sc.indices] + fil)
        assert sc.det == det != 0
        assert sc.valuation == vp_rational(det, p)
    units = cand.certificates["extension_mode"] == "units"
    assert cand.saturated == units
    assert cand.saturated == all(sc.unit for sc in certs)


@pytest.mark.parametrize("p,g,g_minus,fil", [
    (5, 3, 1, [[1, 2, 1], [-1, -3, -2]]),
    (3, 4, 2, [[0, 0, 1, -1], [-2, -3, 3, -3]]),
    (7, 3, 1, [[-3, 3, -2], [-1, 2, -1]]),
])
def test_construct_admissible_oblique_fil0_dual_is_saturated(p, g, g_minus,
                                                             fil):
    # fil0_dual rows that are not standard vectors: the family lifted
    # through the frame [e_comp; F] keeps the arc's unit minors
    setup = LatticeSetup(PadicContext(p), g, g_minus, fil)
    cand = construct_admissible(setup)
    assert cand.saturated
    _assert_lifted_family(setup, cand)


def test_construct_admissible_sweep_over_random_setups():
    # 300 seeded setups: p in {3, 5, 7}, g in 2..6, 1 <= g_minus < g and
    # fil0_dual entries in [-3, 3] of full rank mod p
    rng = random.Random(31)
    ctxs = {p: PadicContext(p) for p in (3, 5, 7)}
    modes = set()
    for _ in range(300):
        while True:
            p = rng.choice((3, 5, 7))
            g = rng.randrange(2, 7)
            g_minus = rng.randrange(1, g)
            fil = [[rng.randrange(-3, 4) for _ in range(g)]
                   for _ in range(g - g_minus)]
            if rank_mod_p(fil, p) == g - g_minus:
                break
        setup = LatticeSetup(ctxs[p], g, g_minus, fil)
        cand = construct_admissible(setup)
        _assert_lifted_family(setup, cand)
        modes.add(cand.certificates["extension_mode"])
    assert modes == {"units", "nonzero"}


def test_construct_strongly_admissible():
    setup = setup_rank3(phi=PHI_OK)
    cand = construct_strongly_admissible(setup, seed=5)
    assert cand.strongly_admissible and cand.is_basis
    cert = cand.certificates["strong"]
    assert cert.plain.admissible and cert.transported.admissible
    # independent check: transported family keeps full column rank
    T = setup.transport_operator()
    vecs = [list(map(Fraction, v)) for v in cand.vectors]
    moved = [[sum(T[i][j] * v[j] for j in range(3)) for i in range(3)]
             for v in vecs]
    for I in itertools.combinations(range(3), 2):
        rows = [moved[i] for i in I] + [list(setup.fil0_dual[0])]
        assert rank_oracle(rows) == 3


def test_strongly_admissible_certificate_consistency():
    setup = setup_rank3(phi=PHI_OK)
    cand = construct_strongly_admissible(setup, seed=9)
    again = is_strongly_admissible(setup, [list(v) for v in cand.vectors])
    assert again.strongly_admissible


def test_strong_construction_transports_once(monkeypatch):
    # the transport operator is formed once per construction, and the
    # finished family is certified with it
    calls = []
    operator = LatticeSetup.transport_operator
    monkeypatch.setattr(LatticeSetup, "transport_operator",
                        lambda self: calls.append(1) or operator(self))
    for seed in (0, 5, 9):
        calls.clear()
        cand = construct_strongly_admissible(setup_rank3(phi=PHI_OK), seed)
        assert cand.strongly_admissible
        assert calls == [1]


@pytest.mark.parametrize("g,g_minus", [(2, 1), (3, 2), (4, 2), (5, 3)])
def test_strong_construction_decides_each_subset_once(monkeypatch, g,
                                                      g_minus):
    # at p = 101 every first draw passes, so the k-th vector is checked
    # on the C(k - 1, min(g_minus, k) - 1) subsets that hold it, once in
    # each family; the subsets without it passed with the vector before
    rng = random.Random(g)
    phi = [[rng.randrange(-5, 6) for _ in range(g)] for _ in range(g)]
    fil = [[int(i == j) for j in range(g)] for i in range(g - g_minus)]
    setup = LatticeSetup(PadicContext(101), g, g_minus, fil, phi_matrix=phi)
    draws, ranks = [], []
    transport, rank = padlog.basis._transport, padlog.basis.frac_rank
    monkeypatch.setattr(padlog.basis, "_transport",
                        lambda T, v: draws.append(1) or transport(T, v))
    monkeypatch.setattr(padlog.basis, "frac_rank",
                        lambda rows: ranks.append(1) or rank(rows))
    assert construct_strongly_admissible(setup).strongly_admissible
    assert len(draws) == g
    assert len(ranks) == 2 * sum(math.comb(k - 1, min(g_minus, k) - 1)
                                 for k in range(1, g + 1))


class _ZeroRandom:
    """A random source whose every draw is 0."""

    def __init__(self, seed):
        pass

    def randrange(self, stop):
        return 0


def test_strong_construction_budget(monkeypatch):
    # with every candidate the zero vector no family grows; the search
    # gives up after its seeded restarts instead of sweeping further
    monkeypatch.setattr(padlog.basis.random, "Random", _ZeroRandom)
    with pytest.raises(SearchExhausted, match="64 seeded restarts"):
        construct_strongly_admissible(setup_rank3(phi=PHI_OK))
