"""The benchmark's checks accept the program's outputs and refuse perturbed
ones.  Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import copy
import itertools
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckError  # noqa: E402


def item(workload, name, seed=1):
    return next(it for it in workloads.WORKLOADS[workload](seed) if it.name == name)


def computed(workload, name):
    it = item(workload, name)
    return it, it.compute(*copy.deepcopy(it.inputs))


def refused(it, out):
    with pytest.raises(CheckError):
        it.check(out)


@pytest.mark.parametrize("name", ["k+V#2", "End(V)#4"])
def test_moduli_outputs_pass_and_perturbations_fail(name):
    it, out = computed("moduli", name)
    it.check(out)
    mc, classes = out
    assert len(classes) >= 2 and len(mc) >= 2

    merged = [c[:] for c in classes[:-2]] + [classes[-2] + classes[-1]]
    refused(it, (mc, merged))  # one class too few
    big = max(range(len(classes)), key=lambda n: len(classes[n]))
    split = [c[:] for c in classes] + [[classes[big][-1]]]
    split[big] = split[big][:-1]
    refused(it, (mc, split))  # one class too many
    refused(it, (mc[:-1], [[x for x in c if x is not mc[-1]] for c in classes]))  # an MC element dropped
    refused(it, (mc[:-1], classes))


def css_item_with_radical(field):
    for it in workloads.radical_items(1):
        if not it.name.startswith(field):
            continue
        try:
            out = it.compute(*copy.deepcopy(it.inputs))
        except ValueError:  # a known fault of the rational splitting
            continue
        if out[4].radical:
            return it, out
    raise AssertionError("no item with a nonzero radical")


@pytest.mark.parametrize("field", ["F2", "QQ"])
def test_radical_outputs_pass_and_a_removed_row_fails(field):
    it, out = css_item_with_radical(field)
    it.check(out)
    bad = copy.deepcopy(out)
    bad[4].radical.pop()
    refused(it, bad)


def test_section_perturbation_fails():
    for it in workloads.radical_items(1):
        if it.name.startswith("F2"):
            out = it.compute(*copy.deepcopy(it.inputs))
            if out[5]:
                break
    it.check(out)
    bad = copy.deepcopy(out)
    sec = bad[5][0][1]
    j = next(iter(sec.f.entries))
    sec.f.entries[j] = {}
    refused(it, bad)


def test_fibration_outputs_pass_and_perturbations_fail():
    it, out = computed("fibration", "k | I_1")
    it.check(out)
    nx, ny = out["mc_counts"]
    for bad in [dict(out, verdict=False),
                dict(out, mc_counts=[nx + 1, ny], pairs_checked=out["pairs_checked"] + 1),
                dict(out, mc_counts=[nx, ny - 1])]:
        refused(it, bad)


def test_rectification_outputs_pass_and_a_wrong_lift_fails():
    it, out = computed("fibration", "k -> I_1 (vertex)")
    it.check(out)
    convb, rects = out
    X, g0, rep = rects[0]
    others = [x for x in workloads.mc_hom_enumerate(it.inputs[1], it.inputs[3]) if x != rep["lift"]]
    assert others
    refused(it, (convb, [(X, g0, dict(rep, lift=others[0]))]))


def test_own_elimination_matches_brute_force():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(20):
            cols = [{i: rng.randrange(p) for i in range(4) if rng.random() < 0.6} for _ in range(5)]
            ker = oracle.kernel(p, cols, 5)
            brute = 0
            for c in itertools.product(range(p), repeat=5):
                v = {}
                for a, col in zip(c, cols):
                    v = oracle.axpy(p, a, col, v)
                brute += not v
            assert p ** len(ker) == brute
            assert oracle.rank(p, cols) == 5 - len(ker)


def test_unsplit_rational_product_is_a_known_fault():
    """k x k over Q comes back as one type-1 factor (the rational splitting
    fault): the check flags it as a known fault, and the same algebra over
    F_2 decomposes and passes."""
    from curvlab.algebra import direct_product, ground_algebra
    from curvlab.fields import GF, QQ

    for F, fault in ((QQ, True), (GF(2), False)):
        A = direct_product(ground_algebra(F), ground_algebra(F))
        out = workloads.compute_css(A)
        if fault:
            with pytest.raises(oracle.KnownFault):
                workloads.check_css(out)
        else:
            workloads.check_css(out)
