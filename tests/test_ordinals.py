import random
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    all_ordinals,
    class_size_expanded,
    cnf_index_expanded,
    expansion,
    is_valid_class_expanded,
    partial_sum_expanded,
    valid_classes_expanded,
)
from orw.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    NodeClassId,
    Ordinal,
    OrdinalError,
    OrdinalParseError,
    class_count,
    class_size,
    classify,
    cnf_index,
    component_count,
    is_valid_class,
    node_class,
    on_approach,
    parse,
    partial_sum,
    valid_classes,
)


def o(text: str) -> Ordinal:
    return parse(text)


def first(gamma: Ordinal, cid: NodeClassId, m: int) -> list[Ordinal]:
    """The first m members of a class (fewer when it is smaller)."""
    return list(islice(node_class(gamma, cid), m))


@st.composite
def ordinals(draw, max_exp=3, max_coeff=5):
    exps = sorted(draw(st.sets(st.integers(0, max_exp), max_size=max_exp + 1)),
                  reverse=True)
    return Ordinal(tuple((e, draw(st.integers(1, max_coeff))) for e in exps))


# -- parsing and printing --------------------------------------------------


def test_parse_basic():
    assert o("w^2*3 + w*3 + 3").terms == ((2, 3), (1, 3), (0, 3))
    assert o("w + w^2").terms == ((2, 1),)
    assert o("0").terms == ()
    assert o("w").terms == ((1, 1),)
    assert o("w*2+w*3").terms == ((1, 5),)
    assert o("17") == Ordinal.from_int(17)


def test_parse_errors_carry_position():
    with pytest.raises(OrdinalParseError) as e:
        parse("w^")
    assert e.value.position == 2
    with pytest.raises(OrdinalParseError):
        parse("")
    with pytest.raises(OrdinalParseError):
        parse("w+*2")
    with pytest.raises(OrdinalParseError):
        parse("x")


def test_parse_refuses_what_int_cannot_read_or_print():
    with pytest.raises(OrdinalParseError, match="number too long") as e:
        parse("w*2+" + "9" * 5000)
    assert e.value.position == 4
    with pytest.raises(OrdinalParseError, match="sum too long") as e:
        parse("w+" + "9" * 4300 + "+1")
    assert e.value.position == 4304
    assert parse("w+" + "9" * 4300).terms == ((1, 1), (0, 10 ** 4300 - 1))
    # a digit int() cannot read is no number; a decimal digit int() reads
    with pytest.raises(OrdinalParseError,
                       match=r"^unexpected character '²' \(at position 2\)$"):
        parse("w+²")
    assert parse("w+\u0663") == parse("w+3")


def test_print_forms():
    assert str(ZERO) == "0"
    assert str(o("w^2*3+w*3+3")) == "w^2*3+w*3+3"
    assert str(o("w")) == "w"
    assert str(o("w*2")) == "w*2"
    assert str(o("w^3")) == "w^3"


@given(ordinals())
def test_round_trip(a):
    assert parse(str(a)) == a


# -- arithmetic and order --------------------------------------------------


def test_add_examples():
    assert o("w*5") + o("w^2") == o("w^2")
    assert o("w^2*2") + o("w*3+1") == o("w^2*2+w*3+1")
    assert ZERO + o("w^2") == o("w^2")
    assert Ordinal.from_int(1) + OMEGA == OMEGA
    assert OMEGA + Ordinal.from_int(1) == o("w+1")


@given(ordinals(), ordinals(), ordinals())
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(ordinals(), ordinals())
def test_add_dominates_second(a, b):
    assert b <= a + b
    assert a + b >= a


@given(ordinals(), ordinals(), ordinals())
def test_add_monotone_second(a, b, c):
    if b < c:
        assert a + b < a + c


def test_compare_examples():
    assert o("w^2") > o("w*100")
    assert o("w^2*3+w") == o("w^2*3+w") <= o("w^2*3+w")
    assert o("w+1") < o("w*2")
    assert sorted([o("w^2"), ZERO, o("w+3"), o("5")]) == \
        [ZERO, o("5"), o("w+3"), o("w^2")]


@given(ordinals(), ordinals())
def test_left_difference_inverts_add(a, b):
    total = a + b
    xi = total.left_difference(a)
    assert a + xi == total


def test_left_difference_absorption():
    assert o("w^2").left_difference(o("w*2")) == o("w^2")
    assert o("w*3").left_difference(o("w*2+1")) == o("w")
    with pytest.raises(OrdinalError):
        o("w").left_difference(o("w^2"))


# -- last-term readings ----------------------------------------------------


def test_cb_rank():
    assert o("w^2*3+w*2").cb_rank() == 1
    assert o("w^2*3+w*7+1").cb_rank() == 0
    # convention at zero
    assert ZERO.cb_rank() == 0


def test_component_index():
    g = o("w^2+w")
    assert cnf_index(g, o("w^2")) == 1
    assert cnf_index(g, o("w^2+1")) == 2
    assert cnf_index(g, ZERO) == 1
    g2 = o("w^2*3+w*3+2")
    assert component_count(g2) == 8
    assert cnf_index(g2, o("w^2*3+w*3+1")) == 7
    assert cnf_index(g2, g2) == 8
    with pytest.raises(OrdinalError):
        cnf_index(g, o("w^3"))


def test_partial_sums():
    g = o("w^2*3+w*3+2")
    assert partial_sum(g, 0) == ZERO
    assert partial_sum(g, 2) == o("w^2*2")
    assert partial_sum(g, 4) == o("w^2*3+w")
    assert partial_sum(g, 8) == g


# -- node classes ----------------------------------------------------------


def test_classify_examples():
    g = o("w^2*3+w*3+2")
    assert classify(g, o("w^2*2")) == NodeClassId(2, 2)
    assert classify(g, ZERO) == NodeClassId(1, 0)
    assert classify(g, o("w^2*3+w*3+1")) == NodeClassId(7, 0)
    assert class_size(g, NodeClassId(7, 0)) == 1
    with pytest.raises(OrdinalError):
        classify(g, g)


def test_class_membership_and_sizes():
    g = o("w^2*3+w*3+2")
    # infinite class
    assert class_size(g, NodeClassId(1, 0)) is None
    assert first(g, NodeClassId(1, 0), 3) == [ZERO, o("1"), o("2")]
    assert class_size(g, NodeClassId(2, 1)) is None
    assert first(g, NodeClassId(2, 1), 2) == [o("w^2+w"), o("w^2+w*2")]
    # singleton classes at the component exponent
    assert class_size(g, NodeClassId(1, 2)) == 1
    assert first(g, NodeClassId(1, 2), 2) == [o("w^2")]
    assert class_size(g, NodeClassId(4, 1)) == 1
    assert first(g, NodeClassId(4, 1), 2) == [o("w^2*3+w")]
    # top class is empty, hence invalid
    assert not is_valid_class(g, NodeClassId(8, 0))
    with pytest.raises(OrdinalError):
        class_size(g, NodeClassId(8, 0))
    with pytest.raises(OrdinalError):
        node_class(g, NodeClassId(2, 3))


def test_named_partition_display():
    # gamma = w^2*n + w*K + 1 has the singleton {w^2*n + w*K} at (n+K, 1)
    n, K = 3, 7
    g = o(f"w^2*{n}+w*{K}+1")
    cid = NodeClassId(n + K, 1)
    assert class_size(g, cid) == 1
    assert first(g, cid, 2) == [o(f"w^2*{n}+w*{K}")]
    assert not is_valid_class(g, NodeClassId(n + K + 1, 0))


def test_class_of_pure_power():
    g = o("w^2")
    assert class_size(g, NodeClassId(1, 1)) is None
    assert first(g, NodeClassId(1, 1), 3) == [o("w"), o("w*2"), o("w*3")]
    assert not is_valid_class(g, NodeClassId(1, 2))


def test_degenerate_gammas():
    assert valid_classes(ONE) == [NodeClassId(1, 0)]
    assert class_size(ONE, NodeClassId(1, 0)) == 1
    assert first(ONE, NodeClassId(1, 0), 2) == [ZERO]
    g = o("3")
    assert class_size(g, NodeClassId(1, 0)) == 2
    assert first(g, NodeClassId(1, 0), 3) == [ZERO, ONE]
    assert class_size(g, NodeClassId(2, 0)) == 1
    assert not is_valid_class(g, NodeClassId(3, 0))


def test_partition_property_on_samples():
    g = o("w^2*3+w*3+2")
    sample = [x for x in all_ordinals(2, 5) if x < g]
    for a in sample:
        cid = classify(g, a)
        assert is_valid_class(g, cid)


def test_class_count_matches_valid_classes():
    for g in all_ordinals(3, 3):
        assert class_count(g) == len(valid_classes(g)), g
    # counted from the terms alone: no list as long as the coefficients
    assert class_count(o("w^2*100000")) == 299_999
    assert class_count(o("w^100000")) == 100_000


def test_valid_classes_census():
    g = o("w^2*3+w*3+2")
    cls = valid_classes(g)
    # 3 components of exponent 2 (3 levels each), 3 of exponent 1 (2 each),
    # 2 of exponent 0 (1 each) minus the empty top class
    assert len(cls) == 3 * 3 + 3 * 2 + 2 - 1
    sizes = {c: class_size(g, c) for c in cls}
    assert sizes[NodeClassId(3, 2)] == 1
    assert sizes[NodeClassId(6, 1)] == 1
    assert sizes[NodeClassId(7, 0)] == 1
    assert sum(1 for s in sizes.values() if s is None) == 3 * 2 + 3 * 1


def test_closed_forms_match_the_expansion():
    # every component reading, read off the CNF terms, against the term-by-
    # term expansion: seeded gammas below w^6 with coefficients up to 5,
    # every k, and a seeded sample of alphas <= gamma plus gamma's partial
    # sums and the points just past them
    rng = random.Random(6)
    universe = all_ordinals(5, 5)
    checked = 0
    for _ in range(250):
        gamma = rng.choice(universe)
        comps = component_count(gamma)
        assert comps == len(expansion(gamma))
        sums = [partial_sum_expanded(gamma, k) for k in range(comps + 1)]
        assert [partial_sum(gamma, k) for k in range(comps + 1)] == sums
        for k in (-1, comps + 1):
            with pytest.raises(OrdinalError):
                partial_sum(gamma, k)
        assert valid_classes(gamma) == valid_classes_expanded(gamma)
        for i in range(comps + 2):
            for j in range(7):
                cid = NodeClassId(i, j)
                assert is_valid_class(gamma, cid) == \
                    is_valid_class_expanded(gamma, cid), (gamma, cid)
                if is_valid_class_expanded(gamma, cid):
                    assert class_size(gamma, cid) == \
                        class_size_expanded(gamma, cid), (gamma, cid)
        if gamma.is_zero():
            continue
        alphas = set(sums) | {s + ONE for s in sums[:-1]}
        alphas.update(x for x in rng.sample(universe, 60) if x <= gamma)
        for alpha in alphas:
            assert cnf_index(gamma, alpha) == \
                cnf_index_expanded(gamma, alpha), (gamma, alpha)
            checked += 1
    assert checked > 5_000


# -- class walks --------------------------------------------------------


WALK_GAMMAS = ["w^2*3+w*3+2", "w^3*2+w^2+w*2+3", "w^2*2", "w^3+1", "w*5+2", "7"]


def test_walk_above_a_predecessor_starts_at_the_point():
    # a class walk above delta, where a = delta + w^cb_rank(a), starts at a
    # itself and goes on inside a's class, increasing
    cases = 0
    for text in WALK_GAMMAS:
        g = o(text)
        for a in all_ordinals(3, 5):
            if a.is_zero() or not a < g:
                continue
            cid = classify(g, a)
            walk = list(islice(node_class(g, cid, a.decrement_last()), 3))
            assert walk[0] == a, (g, a)
            assert walk == sorted(set(walk)), (g, a)
            assert all(classify(g, x) == cid for x in walk), (g, a)
            cases += 1
    assert cases == 932


def test_walk_ends_and_refuses_at_the_call():
    g = o("w^2*2")
    assert list(node_class(g, NodeClassId(1, 2))) == [o("w^2")]
    assert list(node_class(g, NodeClassId(1, 2), o("w^2"))) == []
    # a bound at or past the component's top leaves nothing above it
    assert list(node_class(g, NodeClassId(1, 1), o("w^2"))) == []
    assert list(node_class(o("3"), NodeClassId(1, 0))) == [ZERO, ONE]
    assert list(node_class(o("3"), NodeClassId(1, 0), ZERO)) == [ONE]
    for above in (None, ZERO):
        with pytest.raises(OrdinalError):
            node_class(g, NodeClassId(2, 3), above)


APPROACHES = [("w", 0), ("w*3", 0), ("w^2", 0), ("w^2", 1), ("w^2*2", 0),
              ("w^2*2", 1), ("w^3", 0), ("w^3", 1), ("w^3", 2),
              ("w^3+w^2", 1), ("w^3+w^2*2+w", 0)]


@pytest.mark.parametrize("p, level", APPROACHES)
def test_approach_predicate_is_exact(p, level):
    g, p = o("w^3*2"), o(p)
    c = p.cb_rank()
    zeta = p.decrement_last()
    bump = Ordinal.omega_power(level) if level < c - 1 else ZERO
    seq = [zeta + Ordinal.omega_power(c - 1, t) + bump for t in range(1, 9)]
    assert all(on_approach(p, level, x) for x in seq)
    tail = NodeClassId(classify(g, p).index, level)
    assert all(classify(g, x) == tail for x in seq)
    # every other point of the universe is refused: the rest of the tail
    # class, zeta, p itself and everything outside (zeta, p)
    for x in all_ordinals(3, 5):
        if x not in seq:
            assert not on_approach(p, level, x), (p, level, x)
    off = []
    if level < c - 1:  # tail-class points just off the sequence
        off = [seq[0] + Ordinal.omega_power(level),
               zeta + Ordinal.omega_power(level)]
        assert all(classify(g, x) == tail for x in off)
    assert not any(on_approach(p, level, x) for x in off + [zeta, p, p + ONE])
    with pytest.raises(OrdinalError):
        on_approach(p, c, p)
