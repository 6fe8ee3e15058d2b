"""Multiset evolution against the ordered-pick expansion it replaced.

`ordered_evolve` below is the former `core.evolve`: one canonicalization per
ordered pick of a term for every factor.  The multiset enumeration must give
the same unpruned rows (coefficients, targets, dead ones included, and
order) on every state of the closures listed here, which are walked through
their live targets as the closure walks them.
"""

import itertools
import pathlib
from collections import deque
from math import comb, prod

import pytest

from sterngf import cli, core
from sterngf.cfinite import shift_level

COOKBOOK = pathlib.Path(cli.__file__).parent / "cookbook"


def load(name: str) -> core.ProductSpec:
    spec, _ = cli.load_spec_file(str(COOKBOOK / f"{name}.json"))
    return spec


def ordered_evolve(spec, state):
    shifted = [(d, shift_level(spec.seq, beta)) for d, beta in state.factors]
    acc = {}
    for pick in itertools.product(spec.terms, repeat=len(shifted)):
        coeff = prod(c for c, _ in pick)
        raw = [(d, tuple(b + x for b, x in zip(beta, e)))
               for (d, beta), (_, e) in zip(shifted, pick)]
        st = core.canonicalize(raw)
        acc[st] = acc.get(st, 0) + coeff
    row = [(c, st) for st, c in acc.items() if c]
    row.sort(key=lambda t: t[1].sort_key())
    return row


# (spec, alpha, states compared: None for the whole closure)
CASES = [
    ("base_stern", (6,), None), ("base_stern", (2, 2), None),
    ("base_stern", (2, 1, 2), None), ("fibonacci", (3,), None),
    ("tribonacci", (2,), None), ("challenge", (2,), 200),
]


@pytest.mark.parametrize("name,alpha,cap", CASES,
                         ids=[f"{n}{list(a)}" for n, a, _ in CASES])
def test_evolve_matches_ordered_picks(name, alpha, cap):
    spec = load(name)
    root = core.root_state(alpha, spec.seq.order)
    seen = {root}
    queue = deque([root])
    checked = 0
    while queue and checked != cap:
        st = queue.popleft()
        row = core.evolve(spec, st)
        assert row == ordered_evolve(spec, st), st
        checked += 1
        for _, tgt in row:
            if tgt not in seen and not core.is_dead(spec, tgt):
                seen.add(tgt)
                queue.append(tgt)
    assert checked == (cap or len(seen))


def test_one_canonicalization_per_multiset_pick(monkeypatch):
    # nine equal factors picking among three terms: C(3 + 9 - 1, 9) multisets
    spec = load("base_stern")
    calls = []
    canonicalize = core.canonicalize

    def counting(raw):
        calls.append(raw)
        return canonicalize(raw)

    monkeypatch.setattr(core, "canonicalize", counting)
    core.evolve(spec, core.root_state([9], 1))
    assert len(calls) == comb(11, 2) == 55


def test_pick_count_is_checked_before_anything_is_enumerated(monkeypatch):
    """The count is the product over groups of C(T + m - 1, m), and each
    pick fills one slot per factor; slots over PICK_LIMIT raise before a
    pick table or a product is built, and slots at PICK_LIMIT do not."""
    spec = load("base_stern")
    monkeypatch.setattr(core, "canonicalize", None)
    with pytest.raises(core.ResourceLimitError,
                       match=r"needs 55 picks, 495 factor slots \(limit 494\)"):
        monkeypatch.setattr(core, "PICK_LIMIT", 494)
        core.evolve(spec, core.root_state([9], 1))
    with pytest.raises(core.ResourceLimitError,
                       match=r"needs 243 picks, 1215 factor slots \(limit 1214\)"):
        monkeypatch.setattr(core, "PICK_LIMIT", 1214)
        core.evolve(spec, core.root_state([1, 1, 1, 1, 1], 1))
    monkeypatch.undo()
    monkeypatch.setattr(core, "PICK_LIMIT", 1215)
    assert core.evolve(spec, core.root_state([1, 1, 1, 1, 1], 1))
