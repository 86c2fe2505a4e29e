import itertools
import math
import random

import pytest

from entcover.core import (GUARD_MSG, LOG2E, Cover, GroundSet, GuardError,
                           PolymatroidOracle, check_polymatroid, entropy,
                           entropy_from_weight, polymatroid_violation,
                           subset_violation, validate_cover,
                           weight_product)
from entcover.instances import GraphInstance, SetCoverInstance, \
    generate_random, mesc_oracle, meo_oracle, mest_oracle


def make_oracle(m, fn):
    return PolymatroidOracle(GroundSet(m), fn)


def test_ground_set_bounds():
    GroundSet(1)
    GroundSet(63)
    # bitmasks are unbounded ints: no cap at the machine word
    assert GroundSet(100).universe == (1 << 100) - 1
    with pytest.raises(ValueError):
        GroundSet(0)
    with pytest.raises(ValueError):
        GroundSet(-1)
    assert GroundSet(3).universe == 0b111


def test_oracle_eval_guard():
    o = make_oracle(2, int.bit_count)
    assert o.eval(0b11) == 2
    assert o.total() == 2
    with pytest.raises(ValueError):
        o.eval(0b100)


def test_entropy_known_value():
    # H(2,1)/3 = log2(3) - 2/3
    assert entropy(Cover((2, 1, 0))) == pytest.approx(0.9182958340544896, abs=1e-12)
    assert entropy(Cover((1, 1, 1))) == pytest.approx(math.log2(3), abs=1e-12)
    assert entropy(Cover((3, 0, 0))) == 0.0
    # +0.0, not -0.0, which reports would print as "-0.0"
    assert math.copysign(1.0, entropy(Cover((3,)))) == 1.0
    assert math.copysign(1.0, entropy(Cover((0, 3, 0)))) == 1.0


def test_entropy_degenerate():
    with pytest.raises(ValueError, match="degenerate cover"):
        entropy(Cover((0, 0)))


def test_entropy_permutation_invariant():
    rng = random.Random(5)
    for _ in range(40):
        x = [rng.randint(0, 6) for _ in range(5)]
        if sum(x) == 0:
            continue
        y = x[:]
        rng.shuffle(y)
        assert entropy(Cover(tuple(x))) == pytest.approx(entropy(Cover(tuple(y))), abs=1e-12)


def test_weight_product_matches_entropy():
    rng = random.Random(11)
    for _ in range(60):
        x = tuple(rng.randint(0, 5) for _ in range(4))
        n = sum(x)
        if n == 0:
            continue
        w = weight_product(x)
        assert entropy_from_weight(w, n) == pytest.approx(entropy(Cover(x)), abs=1e-10)


def test_weight_product_merge_spot():
    # moving a unit from the smaller to the larger pile raises the weight
    assert weight_product((3, 5)) == 84375
    assert weight_product((2, 6)) == 186624
    assert entropy(Cover((2, 6))) < entropy(Cover((3, 5)))


def test_entropy_from_weight_huge():
    # exercise the wide-integer log path: log2(2^1000) is exact
    got = entropy_from_weight(2 ** 1000, 256)
    assert got == pytest.approx(8.0 - 1000 / 256, abs=1e-9)
    assert entropy_from_weight(1, 4) == 2.0  # all singletons
    with pytest.raises(ValueError):
        entropy_from_weight(0, 3)


def test_validate_cover_accepts_and_witnesses():
    inst = SetCoverInstance(3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({2})))
    o = mesc_oracle(inst)
    ok, w = validate_cover(o, Cover((2, 1, 0)))
    assert ok and w is None
    # negative entry
    ok, w = validate_cover(o, Cover((-1, 3, 1)))
    assert not ok and w == 0b001
    # wrong total
    ok, w = validate_cover(o, Cover((1, 1, 0)))
    assert not ok and w == o.ground.universe
    # subset violation: 2 units on the singleton set {2}
    ok, w = validate_cover(o, Cover((1, 0, 2)))
    assert not ok
    x = (1, 0, 2)
    assert sum(x[j] for j in range(3) if w >> j & 1) > o.eval(w)


def test_validate_cover_guards():
    # the size guard is a GuardError, a malformed cover a plain ValueError
    o = make_oracle(25, int.bit_count)
    with pytest.raises(GuardError, match="exhaustive validation infeasible"):
        validate_cover(o, Cover(tuple([1] * 25)))
    o2 = make_oracle(2, int.bit_count)
    with pytest.raises(ValueError) as err:
        validate_cover(o2, Cover((1, 1, 1)))  # length mismatch
    assert not isinstance(err.value, GuardError)


def test_validate_cover_vs_bruteforce():
    # independent re-implementation over explicit subsets
    rng = random.Random(23)
    inst = SetCoverInstance(5, (frozenset({0, 1}), frozenset({1, 2, 3}),
                                frozenset({3, 4}), frozenset({0, 4})))
    o = mesc_oracle(inst)
    m = 4
    for _ in range(200):
        x = [rng.randint(-1, 4) for _ in range(m)]
        expect = all(v >= 0 for v in x) and sum(x) == o.total()
        if expect:
            for k in range(1, m + 1):
                for sub in itertools.combinations(range(m), k):
                    mask = 0
                    for j in sub:
                        mask |= 1 << j
                    if sum(x[j] for j in sub) > o.eval(mask):
                        expect = False
                        break
                if not expect:
                    break
        got, _ = validate_cover(o, Cover(tuple(x)))
        assert got == expect, x


def test_check_polymatroid_passes_on_real_oracles():
    inst = SetCoverInstance(3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({2})))
    g = GraphInstance(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    for o in (mesc_oracle(inst), meo_oracle(g), mest_oracle(g)):
        ok, witness = check_polymatroid(o)
        assert ok and witness is None


def test_check_polymatroid_rejects_square():
    # f(S) = |S|^2 is supermodular
    o = make_oracle(2, lambda s: s.bit_count() ** 2)
    ok, witness = check_polymatroid(o)
    assert not ok
    s, t = witness
    assert o.eval(s) + o.eval(t) < o.eval(s | t) + o.eval(s & t)


def test_check_polymatroid_rejects_nonmonotone():
    vals = {0: 0, 1: 2, 2: 1, 3: 1}  # f({0}) = 2 > f({0,1}) = 1
    ok, witness = check_polymatroid(make_oracle(2, lambda s: vals[s]))
    assert not ok
    s, t = witness
    assert o_contains(s, t)


def o_contains(s, t):
    return (s & t) == s or (s & t) == t


def test_check_polymatroid_rejects_bad_empty():
    ok, witness = check_polymatroid(make_oracle(2, lambda s: s.bit_count() + 1))
    assert not ok and witness == (0, 0)


def polymatroid_violation_by_loop(vals):
    """Reference witness: every local axiom tested one subset at a time,
    for each element i monotonicity first, then submodularity with each
    j > i, each test over ascending S."""
    m = len(vals).bit_length() - 1
    if vals[0] != 0:
        return 0, 0
    if min(vals) < 0:
        s = next(s for s, v in enumerate(vals) if v < 0)
        return s, s
    for i in range(m):
        rest = [s for s in range(len(vals)) if not s >> i & 1]
        for s in rest:
            if vals[s] > vals[s | 1 << i]:
                return s, s | 1 << i
        for j in range(i + 1, m):
            for s in rest:
                si, sj = s | 1 << i, s | 1 << j
                if not s >> j & 1 and vals[si] + vals[sj] < vals[si | sj] + vals[s]:
                    return si, sj
    return None


def lane_limit_table(rng, m, top):
    """A table whose largest value is top, near the packed check's lane
    widths: a polymatroid min(top, a |S|), or a random table."""
    if rng.random() < 0.5:
        a = -(-top // rng.randint(1, m))
        return [min(top, a * bin(s).count("1")) for s in range(1 << m)]
    vals = [0] + [rng.randrange(top + 1) for _ in range((1 << m) - 1)]
    vals[rng.randrange(1, 1 << m)] = top
    return vals


def test_polymatroid_violation_matches_loop_reference():
    rng = random.Random(31)
    rejected = 0
    for trial in range(2100):
        m = rng.randint(1, 6)
        if trial >= 1500:  # the largest value straddles a lane-width limit
            vals = lane_limit_table(
                rng, m, rng.choice((63, 64, 127, 128, 255, 256, (1 << 16) + 3)))
            if trial % 3 == 0:
                vals[rng.randrange(1, 1 << m)] = rng.choice((0, max(vals)))
        elif trial % 2:
            vals = [0] + [rng.randrange(5) for _ in range((1 << m) - 1)]
        else:  # a real oracle, sometimes nudged at one subset
            inst = generate_random("mesc", trial, m=m, n=m + 3)
            vals = [mesc_oracle(inst).eval(s) for s in range(1 << m)]
            if trial % 4 == 0:
                vals[rng.randrange(1, 1 << m)] += rng.choice((-1, 1))
        witness = polymatroid_violation(vals)
        assert witness == polymatroid_violation_by_loop(vals), vals
        if witness is None:
            continue
        rejected += 1
        s, t = witness
        if s == t:
            assert vals[s] < 0 or (s == 0 and vals[0] != 0), (vals, witness)
        elif s & t == s:
            assert vals[s] > vals[t], (vals, witness)
        else:
            assert vals[s] + vals[t] < vals[s | t] + vals[s & t], (vals, witness)
    assert rejected > 700


def test_subset_violation_is_first_violated_subset():
    rng = random.Random(37)
    for _ in range(300):
        m = rng.randint(1, 6)
        table = [0] + [rng.randrange(6) for _ in range((1 << m) - 1)]
        x = [rng.randrange(4) for _ in range(m)]
        expect = next((s for s in range(1, 1 << m)
                       if sum(x[j] for j in range(m) if s >> j & 1) > table[s]),
                      None)
        assert subset_violation(table, x) == expect, (table, x)


def test_check_polymatroid_guard():
    with pytest.raises(GuardError, match=GUARD_MSG):
        check_polymatroid(make_oracle(17, int.bit_count))


def test_log2e_constant():
    assert LOG2E == pytest.approx(math.log2(math.e), abs=1e-15)
