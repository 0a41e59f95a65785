"""Permutation values, cycle structure, and symmetry operations."""
import random
from collections import deque
from itertools import permutations

import pytest

from cycperm.errors import EmptyInput, LengthMismatch, NotABijection
from cycperm.perm import (
    Permutation,
    compose,
    cycle_type,
    inverse,
    inversion_count,
    is_cyclic,
    is_involution,
    make_permutation,
    parse_permutation,
    reverse_complement,
)


def test_make_permutation():
    assert make_permutation([2, 4, 1, 3]).entries == (2, 4, 1, 3)
    assert make_permutation([1]).entries == (1,)
    with pytest.raises(NotABijection):
        make_permutation([2, 2, 3])
    with pytest.raises(NotABijection):
        make_permutation([0, 1])
    with pytest.raises(EmptyInput):
        make_permutation([])


def test_wire_format_round_trip():
    p = make_permutation([9, 8, 7, 6, 2, 1, 5, 4, 3])
    assert str(p) == "9 8 7 6 2 1 5 4 3"
    assert parse_permutation(str(p)) == p


def test_cycle_type():
    assert cycle_type(make_permutation([2, 4, 1, 3])) == (4,)
    assert cycle_type(make_permutation([2, 1])) == (2,)
    # trace by hand: 1->9->3->7->5->2->8->4->6->1
    assert cycle_type(make_permutation([9, 8, 7, 6, 2, 1, 5, 4, 3])) == (9,)
    assert cycle_type(Permutation((1, 2, 3, 4))) == (1, 1, 1, 1)


def test_cycle_type_sums_to_n():
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            assert sum(cycle_type(Permutation(p))) == n


def test_is_cyclic():
    assert is_cyclic(parse_permutation("14 13 12 11 10 9 8 3 2 1 7 6 5 4"))
    assert not is_cyclic(parse_permutation("17 16 15 14 13 12 11 3 2 1 10 9 8 7 6 5 4"))
    assert not is_cyclic(make_permutation([1, 2, 3]))
    # boundary conventions: the singleton is a 1-cycle, 21 a 2-cycle
    assert is_cyclic(make_permutation([1]))
    assert is_cyclic(make_permutation([2, 1]))


def test_is_involution():
    assert is_involution(make_permutation([2, 1]))
    assert is_involution(make_permutation([1]))
    assert not is_involution(make_permutation([2, 4, 1, 3]))
    for n in range(1, 7):
        for p in map(Permutation, permutations(range(1, n + 1))):
            assert is_involution(p) == all(l <= 2 for l in cycle_type(p))


def test_inversion_count():
    assert inversion_count(Permutation(tuple(range(1, 8)))) == 0
    assert inversion_count(make_permutation([3, 1, 2])) == 2
    assert inversion_count(make_permutation([9, 8, 7, 6, 2, 1, 5, 4, 3])) == 30


def test_compose_left_to_right():
    p = make_permutation([3, 1, 4, 2])
    assert compose(p, Permutation((1, 2, 3, 4))) == p
    assert compose(Permutation((1, 2, 3, 4)), p) == p
    assert compose(make_permutation([2, 1]), make_permutation([2, 1])) == Permutation((1, 2))
    # i -> s(r(i)) pointwise: r=231, s=231 gives 312
    assert compose(make_permutation([2, 3, 1]), make_permutation([2, 3, 1])).entries == (3, 1, 2)
    with pytest.raises(LengthMismatch):
        compose(Permutation((1, 2, 3)), Permutation((1, 2, 3, 4)))


def test_compose_associative():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 8)
        r, s, t = (
            Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(3)
        )
        assert compose(compose(r, s), t) == compose(r, compose(s, t))


def test_inverse():
    assert inverse(make_permutation([3, 1, 2])) == make_permutation([2, 3, 1])
    assert inverse(make_permutation([2, 1])) == make_permutation([2, 1])
    assert inverse(make_permutation([2, 4, 1, 3])) == make_permutation([3, 1, 4, 2])
    for n in range(1, 7):
        for p in map(Permutation, permutations(range(1, n + 1))):
            assert compose(p, inverse(p)) == Permutation(tuple(range(1, n + 1)))


def test_reverse_complement():
    assert reverse_complement(make_permutation([1, 2])) == make_permutation([1, 2])
    assert reverse_complement(make_permutation([1, 3, 2])) == make_permutation([2, 1, 3])
    assert reverse_complement(make_permutation([3, 2, 1])) == make_permutation([3, 2, 1])


def test_symmetries_are_involutive_and_preserve_cyclicity():
    for n in range(1, 7):
        for p in map(Permutation, permutations(range(1, n + 1))):
            assert inverse(inverse(p)) == p
            assert reverse_complement(reverse_complement(p)) == p
            assert is_cyclic(p) == is_cyclic(inverse(p))
            assert is_cyclic(p) == is_cyclic(reverse_complement(p))


def test_even_length_cycles_are_odd_permutations():
    for n in (2, 4, 6):
        for p in map(Permutation, permutations(range(1, n + 1))):
            if is_cyclic(p):
                assert inversion_count(p) % 2 == 1


def _transposition_distances(n):
    """BFS over S_n with all transpositions as generators."""
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for i in range(n):
            for j in range(i + 1, n):
                nxt = list(cur)
                nxt[i], nxt[j] = nxt[j], nxt[i]
                nxt = tuple(nxt)
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
    return dist


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cycle_count_vs_minimum_transpositions(n):
    # writing p as a product of transpositions needs exactly n - #cycles
    dist = _transposition_distances(n)
    for p, d in dist.items():
        assert d == n - len(cycle_type(Permutation(p)))
