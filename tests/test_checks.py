"""The self-check suites, called directly: each comes back in its fixed
order and passes, and a planted fault in a checked fast path fails it."""

import pytest

from borbit import checks, poset
from borbit.atlas import Context, enumerate_labels, label_perm
from borbit.geometry import DEFAULT_SAMPLES
from borbit.perms import bruhat_leq, lower_interval, reduced_word
from borbit.ratmat import RationalMatrix

SUITE_NAMES = [
    "label-count",
    "minimal-representatives",
    "representative-matrices",
    "involution-bijection",
    "orbital-varieties",
    "closure-order-oracle",
    "curves",
    "tangent-span",
    "hasse",
    "verdicts",
]


def outcomes(ctx):
    suites, _ = checks.run_suites(ctx, 8, DEFAULT_SAMPLES)
    return {name: ok for name, ok, _ in suites}, [name for name, _, _ in suites]


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 1)])
def test_every_suite_runs_in_order_and_passes(n, k):
    ok, names = outcomes(Context(n, k))
    assert names == SUITE_NAMES
    assert all(ok.values())


def test_report_without_samples_uses_the_default_samples():
    ctx = Context(4, 2)
    default = checks.report(ctx, 8, None)
    assert default == checks.report(ctx, 8, ",".join(map(str, DEFAULT_SAMPLES)))
    assert "curves: 5 roots x 4 samples" in default[1]


@pytest.mark.parametrize("position", [0, 37, 71, 143])
def test_a_flipped_closure_answer_fails_the_pair_suite(monkeypatch, position):
    """Any one pair of the 12^2 at (4,2), the last one included; the suite
    walks ``poset.descend`` from the label product of ``a`` down the
    reduced word of the label product of ``b``."""
    ctx = Context(4, 2)
    labels = enumerate_labels(ctx)
    a, b = labels[position // len(labels)], labels[position % len(labels)]
    target = (label_perm(a), reduced_word(label_perm(b)))
    real = poset.descend

    def flipped(ctx, u, word):
        witness = real(ctx, u, word)
        if (u, word) != target:
            return witness
        return u if witness is None else None

    monkeypatch.setattr(poset, "descend", flipped)
    ok, _ = outcomes(ctx)
    assert not ok["closure-order-oracle"]
    assert ok["label-count"] and ok["minimal-representatives"]


def test_a_witness_above_the_target_fails_the_pair_suite(monkeypatch):
    """Every answer stays right, but each witness is the label product of
    ``a``, a coset member that is not always below the target."""
    ctx = Context(4, 2)
    labels = enumerate_labels(ctx)
    real = poset.descend

    def product_witness(ctx, u, word):
        return None if real(ctx, u, word) is None else u

    assert any(
        product_witness(ctx, label_perm(a), reduced_word(label_perm(b))) is not None
        and not bruhat_leq(label_perm(a), label_perm(b))
        for a in labels
        for b in labels
    )
    monkeypatch.setattr(poset, "descend", product_witness)
    ok, _ = outcomes(ctx)
    assert not ok["closure-order-oracle"]
    assert ok["label-count"] and ok["minimal-representatives"]


def test_every_suite_passes_at_8_2():
    """The longest label product at (8,2) has 21 inversions; the pair
    suite's subword intervals take the honest cap n(n-1)/2."""
    try:
        ok, names = outcomes(Context(8, 2))
    finally:
        lower_interval.cache_clear()  # 840 intervals of S_8: free them for later tests
    assert names == SUITE_NAMES
    assert all(ok.values())


def test_an_off_by_one_rank_fails_the_representative_suite(monkeypatch):
    real = RationalMatrix.rank
    monkeypatch.setattr(RationalMatrix, "rank", lambda self: real(self) + 1)
    ok, _ = outcomes(Context(4, 2))
    assert not ok["representative-matrices"]
