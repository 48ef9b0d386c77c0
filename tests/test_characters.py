from hypothesis import given
from hypothesis import strategies as st

from nestloc.characters import LaurentPoly

exponents = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=8).map(LaurentPoly)


def lp(terms):
    return LaurentPoly(terms)


def test_add_examples():
    t1 = LaurentPoly.monomial(1, 0)
    assert t1 + (-t1) == LaurentPoly.zero()
    one_plus_t1 = LaurentPoly.one() + t1
    t2 = LaurentPoly.monomial(0, 1)
    assert one_plus_t1 + t2 == lp({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    # Q_{(1)} = 1, so Q + Q has coefficient 2 at the origin
    q1 = LaurentPoly.one()
    assert (q1 + q1).coefficient((0, 0)) == 2


def test_mul_examples():
    t1 = LaurentPoly.monomial(1, 0)
    one = LaurentPoly.one()
    assert (one - t1) * (one + t1) == one - LaurentPoly.monomial(2, 0)
    assert LaurentPoly.monomial(-1, 1) * LaurentPoly.monomial(1, -1) == one
    # (1-t1)(1-t2)/(t1 t2), expanded by hand
    factor = (one - t1) * (one - LaurentPoly.monomial(0, 1))
    value = factor * LaurentPoly.monomial(-1, -1)
    assert value == lp({(-1, -1): 1, (0, -1): -1, (-1, 0): -1, (0, 0): 1})


def test_bar_examples():
    p = LaurentPoly.monomial(1, 0) + LaurentPoly.monomial(1, -1)
    assert p.bar() == LaurentPoly.monomial(-1, 0) + LaurentPoly.monomial(-1, 1)
    assert LaurentPoly.one().bar() == LaurentPoly.one()


def test_rank_eval_examples():
    assert (LaurentPoly.one() + LaurentPoly.monomial(1, 0) + LaurentPoly.monomial(0, 1)).rank_eval() == 3
    assert (LaurentPoly.monomial(-1, 0) + LaurentPoly.monomial(0, -1)).rank_eval() == 2
    assert LaurentPoly.zero().rank_eval() == 0


def test_substitute_examples():
    u1 = LaurentPoly.monomial(1, 0)
    u2 = LaurentPoly.monomial(0, 1)
    assert (u1 + u2).substitute((1, 0), (0, 1)) == u1 + u2
    assert u1.substitute((-1, 1), (0, 1)) == LaurentPoly.monomial(-1, 1)
    assert (u1 * u2).substitute((1, 0), (-1, 1)) == u2


@given(polys, polys)
def test_bar_is_ring_homomorphism(p, q):
    assert (p * q).bar() == p.bar() * q.bar()
    assert (p + q).bar() == p.bar() + q.bar()


@given(polys)
def test_bar_involution(p):
    assert p.bar().bar() == p


@given(polys, polys)
def test_rank_eval_ring_homomorphism(p, q):
    assert (p * q).rank_eval() == p.rank_eval() * q.rank_eval()
    assert (p + q).rank_eval() == p.rank_eval() + q.rank_eval()


@given(polys, polys)
def test_substitute_commutes_with_ring_ops(p, q):
    img1, img2 = (2, -1), (1, 1)
    assert (p + q).substitute(img1, img2) == p.substitute(img1, img2) + q.substitute(img1, img2)
    assert (p * q).substitute(img1, img2) == p.substitute(img1, img2) * q.substitute(img1, img2)
    assert p.bar().substitute(img1, img2) == p.substitute(img1, img2).bar()


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_no_zero_coefficients_stored(p):
    assert all(c != 0 for _, c in p.terms())


def test_text_form_is_sorted():
    p = lp({(2, 0): -1, (-1, 3): 4, (0, 0): 2})
    assert p.to_text() == "4*t1^-1*t2^3 + 2*t1^0*t2^0 + -1*t1^2*t2^0"


def test_is_effective_examples():
    assert LaurentPoly.zero().is_effective()
    assert lp({(0, 0): 2, (1, -1): 1}).is_effective()
    assert not lp({(0, 0): 2, (1, -1): -1}).is_effective()
    # a cancelled coefficient is gone, not a 0 that "all >= 0" would accept
    assert (LaurentPoly.one() - LaurentPoly.one()).is_effective()


@given(polys)
def test_is_effective_is_every_coefficient_positive(p):
    assert p.is_effective() == all(c > 0 for _, c in p.terms())
