import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from glab import GrammarError, ROOT, TreeAddress, TreeDomain, address, domain_of


def test_root_properties():
    assert ROOT.is_root
    assert ROOT.depth == 0
    assert str(ROOT) == "eps"
    with pytest.raises(GrammarError):
        ROOT.parent


def test_child_and_parent():
    a = address(1, 2)
    assert a.child(3) == address(1, 2, 3)
    assert a.parent == address(1)
    assert a.depth == 2
    assert str(a) == "12"


def test_wide_addresses_render_with_dots():
    assert str(address(1, 12)) == "1.12"
    assert str(address(12)) == ".12"


def test_address_text_is_unique():
    digits = range(1, 13)
    addrs = [address(*ds) for n in range(4) for ds in itertools.product(digits, repeat=n)]
    assert len({str(a) for a in addrs}) == len(addrs)


def test_an_address_is_the_tuple_of_its_digits():
    a = address(1, 2)
    assert a == (1, 2) and hash(a) == hash((1, 2))
    assert {(1, 2): "x"}[a] == "x" and a in {(1, 2)}
    assert a.digits == (1, 2) and type(a.digits) is tuple
    assert len(a) == a.depth == 2
    assert ROOT == () and not ROOT and bool(address(1))
    assert repr(a) == "TreeAddress(digits=(1, 2))"
    assert type(a.child(1)) is type(a.parent) is TreeAddress


def test_addresses_survive_pickle_and_deepcopy():
    for a in (ROOT, address(3), address(1, 12, 2)):
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert b == a and type(b) is TreeAddress and str(b) == str(a)


def test_prefix_order():
    assert ROOT.is_prefix_of(address(1, 2))
    assert address(1).is_prefix_of(address(1, 2))
    assert not address(2).is_prefix_of(address(1, 2))
    assert address(1) < address(1, 1) < address(2)


def test_child_index_must_be_positive():
    with pytest.raises(GrammarError):
        ROOT.child(0)
    with pytest.raises(GrammarError, match=r"^tree address digits must be positive: \(0,\)$"):
        TreeAddress((0,))
    with pytest.raises(GrammarError, match=r"^tree address digits must be positive: \(1, 2, 0\)$"):
        address(1, 2).child(0)


def test_domain_requires_prefix_closure():
    with pytest.raises(GrammarError):
        domain_of({ROOT, address(1, 1)})


def test_domain_requires_left_siblings():
    with pytest.raises(GrammarError):
        domain_of({ROOT, address(2)})


def test_closure_errors_name_the_address_and_the_broken_closure():
    # 12 lacks both its parent 1 and its left sibling 11; prefix closure is tested first
    with pytest.raises(GrammarError, match="not prefix-closed at 12$"):
        domain_of({ROOT, address(1, 2)})
    with pytest.raises(GrammarError, match="not left-sibling-closed at 12$"):
        domain_of({ROOT, address(1), address(1, 2)})


def test_domain_requires_root():
    with pytest.raises(GrammarError):
        domain_of({address(1)})


def test_an_empty_domain_is_rejected():
    with pytest.raises(GrammarError, match="^a tree domain must contain the root$"):
        TreeDomain(frozenset())


def test_domain_queries():
    d = domain_of({ROOT, address(1), address(2), address(1, 1)})
    assert d.out_degree(ROOT) == 2
    assert d.children(address(1)) == (address(1, 1),)
    assert d.leaves == (address(1, 1), address(2))
    assert d.internal == (ROOT, address(1))
    assert d.height == 2
    assert len(d) == 4
    assert address(2) in d


def test_daughters_are_recorded_once_and_foreign_addresses_rejected():
    d = domain_of({ROOT, address(1), address(2), address(1, 1)})
    assert d.children(ROOT) is d.children(ROOT)
    assert d.children(address(2)) == ()
    with pytest.raises(GrammarError, match="^address 3 is not in the domain$"):
        d.children(address(3))
    with pytest.raises(GrammarError, match="^address 21 is not in the domain$"):
        d.out_degree(address(2, 1))


# small random domains: grow each node's child count independently
@st.composite
def domains(draw):
    addrs = {ROOT}
    frontier = [ROOT]
    while frontier:
        a = frontier.pop()
        if a.depth >= 3:
            continue
        width = draw(st.integers(min_value=0, max_value=3))
        for i in range(1, width + 1):
            c = a.child(i)
            addrs.add(c)
            frontier.append(c)
    return addrs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(domains())
def test_domain_invariants(addrs):
    d = domain_of(addrs)
    ordered = d.sorted_addresses
    assert list(ordered) == sorted(ordered) == sorted(addrs, key=lambda a: a.digits)
    assert len(set(ordered)) == len(ordered) == len(addrs)
    for a in ordered:
        for c in d.children(a):
            assert c.parent == a
    assert set(d.leaves) | set(d.internal) == addrs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(domains())
def test_closure_violations_are_rejected(addrs):
    inner = sorted(a for a in addrs if not a.is_root)
    if not inner:
        return
    removed = inner[0]
    broken = set(addrs) - {removed}
    has_child = any(a != removed and removed.is_prefix_of(a) for a in addrs)
    has_right_sibling = removed.parent.child(removed.digits[-1] + 1) in addrs
    if has_child or has_right_sibling:
        with pytest.raises(GrammarError):
            domain_of(broken)
    else:
        assert len(domain_of(broken)) == len(broken)


# The domain is built in one pass over addresses given in address order, as
# a preorder walk lists them; any other order is sorted first.  Both must
# give the domain and the closure errors of a sort followed by a check.


def _sorted_check(addrs) -> tuple:
    """The reference: sort, then check closure with a dict of daughters, as
    the domain was built before it read preorder input."""
    daughters: dict = {}
    for a in sorted(addrs):
        if a:
            sisters = daughters.get(a[:-1])
            if sisters is None:
                return "error", f"tree domain is not prefix-closed at {a}"
            if a[-1] != len(sisters) + 1:
                return "error", f"tree domain is not left-sibling-closed at {a}"
            sisters.append(a)
        daughters[a] = []
    return tuple(sorted(addrs)), {a: tuple(v) for a, v in daughters.items()}


def _built(order) -> tuple:
    try:
        d = domain_of(order)
    except GrammarError as e:
        return "error", str(e)
    return d.sorted_addresses, {a: d.children(a) for a in d.sorted_addresses}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(domains(), st.randoms(use_true_random=False))
def test_preorder_and_shuffled_input_build_the_same_domain(addrs, rnd):
    preorder = sorted(addrs)
    shuffled = list(addrs)
    rnd.shuffle(shuffled)
    want = _sorted_check(addrs)
    assert _built(preorder) == _built(shuffled) == _built(iter(shuffled)) == want
    d, e = domain_of(preorder), domain_of(shuffled)
    assert d == e and d.daughter_positions == e.daughter_positions
    assert d.leaves == e.leaves and d.internal == e.internal
    assert all(tuple(d.sorted_addresses[j] for j in kids) == d.children(a)
               for a, kids in zip(d.sorted_addresses, d.daughter_positions))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(domains(), st.randoms(use_true_random=False))
def test_a_broken_domain_fails_at_its_first_violation_in_any_order(addrs, rnd):
    inner = sorted(a for a in addrs if not a.is_root)
    if not inner:
        return
    broken = set(addrs) - {rnd.choice(inner)}
    if rnd.random() < 0.3:
        broken.discard(ROOT)
    if not broken:
        return
    want = _sorted_check(broken)
    shuffled = list(broken)
    rnd.shuffle(shuffled)
    # preorder input stays in address order with the address left out
    assert _built(sorted(broken)) == _built(shuffled) == want


def test_out_of_order_and_repeated_addresses_are_sorted_first():
    a1, a11, a2 = address(1), address(1, 1), address(2)
    # breadth first: every mother comes before her daughters, but 2 comes before 11
    d = domain_of([ROOT, a1, a2, a11])
    assert d.sorted_addresses == (ROOT, a1, a11, a2)
    assert d.children(a1) == (a11,) and d.daughter_positions == ((1, 3), (2,), (), ())
    # a repeated address and a late root are read as a set
    assert domain_of([ROOT, a1, a1, a11, ROOT]) == domain_of({ROOT, a1, a11})
    with pytest.raises(GrammarError, match="not prefix-closed at 11$"):
        domain_of([ROOT, a11, a2])


def test_a_mapping_is_read_in_address_order():
    a1, a11, a2 = address(1), address(1, 1), address(2)
    d = domain_of({ROOT: "r", a1: "x", a11: "y", a2: "z"})
    walked = {ROOT: "r", a1: "x", a11: "y", a2: "z"}
    assert d.in_order(walked) == ["r", "x", "y", "z"]
    # other keys, or the same keys in another order, are looked up
    assert d.in_order({a2: "z", a11: "y", a1: "x", ROOT: "r"}) == ["r", "x", "y", "z"]
    assert d.in_order({(): "r", (1,): "x", (1, 1): "y", (2,): "z"}) == ["r", "x", "y", "z"]
    assert d.in_order({a1: "x", a11: "y", a2: "z"}, 1) == ["x", "y", "z"]
