"""The self-check suites, called directly: each comes back in its fixed
order and passes, and a planted fault in a checked fast path fails it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from borbit import atlas, checks, geometry, poset, springer, tangent
from borbit.atlas import Context, OrbitCoset, enumerate_labels, label_perm
from borbit.perms import bruhat_leq, identity, reduced_word
from borbit.tangent import CROSS_FAR, classify_root

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
    suites, _ = checks.run_suites(ctx)
    return {name: ok for name, ok, _ in suites}, [name for name, _, _ in suites]


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 1)])
def test_every_suite_runs_in_order_and_passes(n, k):
    ok, names = outcomes(Context(n, k))
    assert names == SUITE_NAMES
    assert all(ok.values())


def test_report_names_the_roots_whose_curves_it_checks():
    passed, text = checks.report(Context(4, 2))
    assert passed
    assert "ok   curves: 5 roots, identities in Z[t]\n" in text


def flip_cross_far(real):
    def flipped(ctx, rt):
        tangent = real(ctx, rt)
        if classify_root(ctx, rt.i, rt.j) == CROSS_FAR:
            return {pos: -v for pos, v in tangent.items()}
        return tangent

    return flipped


@pytest.mark.parametrize(
    "attr, fault",
    [
        ("root_tangent", flip_cross_far),  # a flipped sign in one family's tangent
        ("DELTA", lambda real: "no family"),  # no root gets the DELTA t^2 term
        ("transposition", lambda real: lambda n, i, j: identity(n)),  # no reflection
    ],
    ids=["tangent-sign", "delta-term", "reflection"],
)
def test_a_planted_curve_fault_fails_the_curves_suite(monkeypatch, attr, fault):
    """(4,2) has roots of the families INSIDE_GLK, DELTA and CROSS_FAR,
    and each fault breaks a curve identity of some root.  The other suites
    still pass: only ``tangent-span`` reads ``geometry.root_tangent``, and
    a flipped sign keeps the span."""
    monkeypatch.setattr(geometry, attr, fault(getattr(geometry, attr)))
    ok, _ = outcomes(Context(4, 2))
    assert not ok["curves"]
    assert all(passed for name, passed in ok.items() if name != "curves")


@pytest.mark.parametrize("position", [0, 37, 71, 143])
def test_a_flipped_closure_answer_fails_the_pair_suite(monkeypatch, position):
    """Any one pair of the 12^2 at (4,2), the last one included; the suite
    walks ``atlas.descend`` from the label product of ``a`` down the
    reduced word of the label product of ``b``."""
    ctx = Context(4, 2)
    labels = enumerate_labels(ctx)
    a, b = labels[position // len(labels)], labels[position % len(labels)]
    target = (label_perm(a), reduced_word(label_perm(b)))
    real = atlas.descend

    def flipped(ctx, u, word):
        witness = real(ctx, u, word)
        if (u, word) != target:
            return witness
        return u if witness is None else None

    monkeypatch.setattr(atlas, "descend", flipped)
    ok, _ = outcomes(ctx)
    assert not ok["closure-order-oracle"]
    assert ok["label-count"] and ok["minimal-representatives"]


def test_a_witness_above_the_target_fails_the_pair_suite(monkeypatch):
    """Every answer stays right, but each witness is the label product of
    ``a``, a coset member that is not always below the target."""
    ctx = Context(4, 2)
    labels = enumerate_labels(ctx)
    real = atlas.descend

    def product_witness(ctx, u, word):
        return None if real(ctx, u, word) is None else u

    assert any(
        product_witness(ctx, label_perm(a), reduced_word(label_perm(b))) is not None
        and not bruhat_leq(label_perm(a), label_perm(b))
        for a in labels
        for b in labels
    )
    monkeypatch.setattr(atlas, "descend", product_witness)
    ok, _ = outcomes(ctx)
    assert not ok["closure-order-oracle"]
    assert ok["label-count"] and ok["minimal-representatives"]


@pytest.mark.parametrize("drop", [0, 97, -1])
def test_a_dropped_cover_fails_the_pair_suite(monkeypatch, drop):
    """``hasse`` missing one cover generates an order without that pair, so
    ``verify`` prints FAIL on the pair suite at (5,2); the ``hasse`` suite,
    which checks only the diagram's own shape, may still pass."""
    real = poset.hasse

    def dropped(ctx):
        g = real(ctx)
        covers = list(g.covers)
        del covers[drop]
        return g._replace(covers=tuple(covers))

    monkeypatch.setattr(poset, "hasse", dropped)
    passed, text = checks.report(Context(5, 2))
    assert not passed
    assert "FAIL closure-order-oracle: 60^2 ordered pairs\n" in text
    assert "ok   label-count" in text


def test_a_mask_missing_one_cover_fails_the_pair_suite(monkeypatch):
    """``t_k_masks`` on a table short of one cover loses the roots that
    only that cover brought in; the pair suite compares each target's mask
    with the walks it makes anyway and prints FAIL, and ``hasse``, built
    from the whole table, still passes."""
    ctx = Context(5, 2)
    real = tangent.t_k_masks
    table = poset.cover_table(ctx)

    def without(b, a):
        covers = list(table.covers)
        covers[b] = tuple(c for c in covers[b] if c != a)
        return table._replace(covers=tuple(covers))

    whole = real(ctx, table)
    b, a = next(
        (b, a)
        for b, below in enumerate(table.covers)
        for a in below
        if real(ctx, without(b, a)) != whole
    )
    monkeypatch.setattr(tangent, "t_k_masks", lambda ctx, t: real(ctx, without(b, a)))
    passed, text = checks.report(ctx)
    assert not passed
    assert "FAIL closure-order-oracle: 60^2 ordered pairs\n" in text
    assert "ok   hasse: 190 covers, 120 weak edges\n" in text


def test_a_relation_that_skips_a_level_fails_the_hasse_suite(monkeypatch):
    """Base below top is a true relation, so the pair suite still passes;
    the order is graded, so every cover rises by one dimension and this
    edge is no cover."""
    real = poset.hasse

    def padded(ctx):
        g = real(ctx)
        return g._replace(covers=tuple(sorted(g.covers + ((poset.minimum(g), poset.maximum(g)),))))

    monkeypatch.setattr(poset, "hasse", padded)
    passed, text = checks.report(Context(5, 2))
    assert not passed
    assert "FAIL hasse: 191 covers, 120 weak edges\n" in text
    assert "ok   closure-order-oracle: 60^2 ordered pairs\n" in text


@pytest.mark.parametrize("rule", ["R4", "R5", None])
def test_a_dimension_off_by_one_fails_the_verdicts_suite(monkeypatch, rule):
    """The sweep reads each label's dimension from ``table.dims``, and the
    one-label verdict reads lengths.  R4, R5 and the fall-through all
    write the dimension into the witness; R1-R3 never read it, so the
    fault sits on a label that R4-R6 reach.  ``hasse`` reads the same
    dimensions, and its suite fails too."""
    ctx = Context(5, 2)
    table = poset.cover_table(ctx)
    b = next(b for b, lbl in enumerate(table.labels) if tangent.verdict(ctx, lbl).rule == rule)
    dims = list(table.dims)
    dims[b] += 1
    monkeypatch.setattr(poset, "cover_table", lambda ctx: table._replace(dims=tuple(dims)))
    passed, text = checks.report(ctx)
    assert not passed
    assert "FAIL verdicts: " in text


def test_a_bracket_span_one_too_high_fails_the_verdicts_suite(monkeypatch):
    """Both the sweep and the one-label verdict read ``bracket_span``, so
    they agree; on an upper label the span must equal the exact count."""
    real = tangent.bracket_span
    monkeypatch.setattr(tangent, "bracket_span", lambda ctx, roots: real(ctx, roots) + 1)
    passed, text = checks.report(Context(5, 2))
    assert not passed
    assert "FAIL verdicts: 0 singular orbital varieties\n" in text
    assert [line[:4] for line in text.splitlines()[:len(SUITE_NAMES)]].count("FAIL") == 1


SRC = Path(__file__).resolve().parent.parent / "src"
#: Runs ``main`` on its arguments, then prints the peak resident set in kB:
#: ``VmHWM``, the high-water mark of the interpreter's own address space. On
#: Linux ``ru_maxrss`` also counts what the spawning test process held
#: before ``exec``.
PEAK_PROBE = (
    "import re, sys\n"
    "from borbit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "status = open('/proc/self/status').read()\n"
    "print(re.search(r'VmHWM:\\s*(\\d+) kB', status)[1], file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_every_suite_passes_at_8_2():
    """The longest label product at (8,2) has 21 inversions; the pair
    suite's subword intervals take the honest cap n(n-1)/2, and it holds
    one of them at a time, so a fresh interpreter peaks below 120 MB."""
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE, "--n", "8", "--k", "2", "verify"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    suites = [line.split(":")[0].split() for line in proc.stdout.splitlines()[: len(SUITE_NAMES)]]
    assert suites == [["ok", name] for name in SUITE_NAMES]
    assert int(proc.stderr.split()[-1]) < 120 * 1024


@pytest.mark.parametrize("n, k, count", [(5, 2, 60), (6, 1, 30)])
def test_the_sweep_builds_each_coset_once(monkeypatch, n, k, count):
    calls = []
    real = atlas.coset_of

    def counted(ctx, w):
        calls.append(w)
        return real(ctx, w)

    monkeypatch.setattr(atlas, "coset_of", counted)
    ok, _ = outcomes(Context(n, k))
    assert all(ok.values())
    assert len(calls) == count


@pytest.mark.parametrize("drop", [0, -1])
def test_a_coset_missing_a_member_fails_a_coset_suite(monkeypatch, drop):
    """Dropping the first member, the swept permutation itself, takes some
    label products out of their cosets, and dropping the last leaves a
    permutation to start a coset of its own; either way a suite fails and
    nothing raises."""
    real = atlas.coset_of

    def short(ctx, w):
        members = list(real(ctx, w).members)
        del members[drop]
        return OrbitCoset(tuple(members))

    monkeypatch.setattr(atlas, "coset_of", short)
    ok, _ = outcomes(Context(4, 2))
    assert not (ok["label-count"] and ok["minimal-representatives"])


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 1)])
def test_an_involution_map_onto_one_image_fails_the_bijection_suite(monkeypatch, n, k):
    """Every upper label goes to one involution with ``k`` two-cycles: the
    upper labels still match the closed-form count, their images do not.
    No other suite reads ``involution_tau``."""
    ctx = Context(n, k)
    upper = next(lbl for lbl in enumerate_labels(ctx) if atlas.is_upper_label(ctx, lbl))
    image = springer.involution_tau(ctx, upper)
    monkeypatch.setattr(springer, "involution_tau", lambda ctx, lbl: image)
    ok, _ = outcomes(ctx)
    assert not ok["involution-bijection"]
    assert all(passed for name, passed in ok.items() if name != "involution-bijection")


def test_an_off_by_one_rank_fails_the_representative_suite(monkeypatch):
    """Each representative loses one entry: still square-zero, but of rank
    ``k - 1``, which the suite's echelon counts."""
    real = atlas.rep_matrix

    def dropped(ctx, lbl):
        m = real(ctx, lbl)
        del m[min(m)]
        return m

    monkeypatch.setattr(atlas, "rep_matrix", dropped)
    ok, _ = outcomes(Context(4, 2))
    assert not ok["representative-matrices"]
    assert all(passed for name, passed in ok.items() if name != "representative-matrices")
