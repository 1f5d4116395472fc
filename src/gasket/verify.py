"""Self-contained verification suites exposed through the CLI.

Each suite runs a list of named checks and reports a JSON-friendly
summary.  The checks mirror the invariants the library is built on:
group identities, canonical-form classification, packing geometry,
completion identities, and window symmetries.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Dict, List

from .classify import kappa, orbit_census, printed_form, reduced_form
from .complete import (complete, complex_descartes_linear_holds,
                       complex_descartes_quadratic_holds,
                       strong_integrality_from_three)
from .core import (PairRelation, W_STANDARD, circle_from_row, identity_matrix,
                   mat_mul, mat_neg, pair_relation, transpose)
from .group import (ALL_LETTERS, ALL_PERMUTATIONS, D_MATRIX, GeneratorLetter,
                    GroupWord, J0, apply, conjugate_J0, generator_matrix,
                    is_aut_QD, is_lorentz_integer, lorentz_point,
                    normalize_word, perm_matrix, stabilizer_matrix)
from .packing import (EnumerationBudget, Window, generate_superpacking,
                      nesting_depth_geometric, reflect_row_x, translate_row)
from .svg import residue_symmetry_check


def _check_group() -> List[Dict]:
    checks = []
    ident = identity_matrix(4)
    ok = all(mat_mul(l.matrix(), l.matrix()) == ident for l in ALL_LETTERS)
    checks.append({"name": "generators are involutions", "passed": ok})
    ok = all(is_aut_QD(l.matrix()) for l in ALL_LETTERS)
    checks.append({"name": "generators preserve the quadruple form",
                   "passed": ok})
    prods_ok = True
    for perm in ALL_PERMUTATIONS:
        p = perm_matrix(perm)
        p_inv = transpose(p)
        for i in (1, 2, 3, 4):
            lhs = mat_mul(mat_mul(p, generator_matrix(GeneratorLetter("s", i))),
                          p_inv)
            j = perm.index(i - 1) + 1
            if lhs != generator_matrix(GeneratorLetter("s", j)):
                prods_ok = False
    checks.append({"name": "permutations relabel the swap generators",
                   "passed": prods_ok})
    ok = mat_mul(J0, J0) == ident and mat_mul(D_MATRIX, D_MATRIX) == ident
    checks.append({"name": "J0 and the dual swap are involutions",
                   "passed": ok})
    jd = conjugate_J0(D_MATRIX)
    ok = jd == ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
    checks.append({"name": "dual swap conjugates to a Lorentz sign flip",
                   "passed": ok})
    ok = all(is_lorentz_integer(conjugate_J0(l)) for l in ALL_LETTERS)
    checks.append({"name": "conjugated generators are integer Lorentz",
                   "passed": ok})
    sm = stabilizer_matrix(1, 1).matrix
    sn = stabilizer_matrix(2, 0).matrix
    both = stabilizer_matrix(3, 1).matrix
    ok = mat_mul(sm, sn) == both and is_lorentz_integer(sm)
    checks.append({"name": "stabilizer translations compose additively",
                   "passed": ok})
    y = lorentz_point((0, 0, 1, 1))
    ok = y == (1, -1, 0, 0) and \
        -y[0] ** 2 + y[1] ** 2 + y[2] ** 2 + y[3] ** 2 == 0
    checks.append({"name": "ground quadruple lands on the light cone",
                   "passed": ok})
    rng = random.Random(7)
    norm_ok = True
    for _ in range(200):
        letters = tuple(rng.choice(ALL_LETTERS) for _ in range(rng.randrange(12)))
        w = GroupWord(letters)
        nw = normalize_word(w)
        if nw.matrix() != w.matrix() or len(nw) > len(w):
            norm_ok = False
    checks.append({"name": "word normalization preserves the element",
                   "passed": norm_ok})
    return checks


def _check_forms() -> List[Dict]:
    checks = []
    seen = set()
    idempotent = True
    for family in "AB":
        for m in (0, 1):
            for n in (0, 1):
                base = printed_form(family, m, n, 1)
                for perm in ALL_PERMUTATIONS:
                    for sgn in (1, -1):
                        var = tuple(base[perm[i]] for i in range(4))
                        if sgn < 0:
                            var = mat_neg(var)
                        seen.add(var)
                        word, label = reduced_form(var)
                        if len(word) != 0 or label.instantiate() != var:
                            idempotent = False
    checks.append({"name": "384 decorated forms are distinct",
                   "passed": len(seen) == 384})
    checks.append({"name": "reduction is idempotent on decorated forms",
                   "passed": idempotent})
    a = printed_form("A", 1, 0, 1)
    b = printed_form("B", 0, 1, 1)
    _, la = reduced_form(a)
    _, lb = reduced_form(b)
    checks.append({"name": "parity-profile clash pair is separated",
                   "passed": kappa(a) == kappa(b) and
                   (la.family, lb.family) == ("A", "B")})
    rows = orbit_census()
    checks.append({"name": "census totals 672 orbits",
                   "passed": sum(r.count for r in rows) == 672})
    return checks


def _check_packing() -> List[Dict]:
    checks = []
    budget = EnumerationBudget(max_curvature=40, window=Window(0, 1, 0, 1))
    circles = generate_superpacking(W_STANDARD, budget)
    crossing = False
    depth_clash = False
    for c1, c2 in combinations(circles, 2):
        rel = pair_relation(c1.circle, c2.circle)
        if rel == PairRelation.CROSSING:
            crossing = True
        if c1.depth == c2.depth and rel not in (
                PairRelation.DISJOINT, PairRelation.EXTERNALLY_TANGENT):
            depth_clash = True
    checks.append({"name": "no two circles cross", "passed": not crossing})
    checks.append({"name": "same-depth circles have disjoint interiors",
                   "passed": not depth_clash})
    depth_ok = all(
        nesting_depth_geometric(pc.circle, circles) == pc.depth
        for pc in circles[:80])
    checks.append({"name": "witness depth matches geometric nesting",
                   "passed": depth_ok})
    return checks


def _random_tangent_triples(count: int, seed: int):
    rng = random.Random(seed)
    triples = []
    while len(triples) < count:
        length = rng.randrange(1, 10)
        letters = []
        last = None
        for _ in range(length):
            options = [l for l in ALL_LETTERS if l != last]
            last = rng.choice(options)
            letters.append(last)
        w = apply(GroupWord(tuple(reversed(letters))), W_STANDARD)
        drop = rng.randrange(4)
        rows = [w[i] for i in range(4) if i != drop]
        triples.append((tuple(rows), w[drop]))
    return triples


def _check_appendix(seed: int) -> List[Dict]:
    checks = []
    ok = True
    identity_ok = True
    for rows, dropped in _random_tangent_triples(200, seed):
        circles = [circle_from_row(r) for r in rows]
        if not strong_integrality_from_three(circles):
            ok = False
            continue
        w1, w2 = complete(*circles)
        for w in (w1, w2):
            if not all(isinstance(x, int) for r in w for x in r[1:]):
                ok = False
            if not (complex_descartes_quadratic_holds(w)
                    and complex_descartes_linear_holds(w)):
                identity_ok = False
        if dropped not in (w1[3], w2[3]):
            ok = False
    checks.append({"name": "completions of integral triples stay integral",
                   "passed": ok})
    checks.append({"name": "complex curvature-center identities hold exactly",
                   "passed": identity_ok})
    return checks


def _check_symmetry() -> List[Dict]:
    checks = []
    bound = 40
    base_set = generate_superpacking(
        W_STANDARD, EnumerationBudget(bound, window=Window(0, 1, 0, 1)))
    shifted = generate_superpacking(
        W_STANDARD, EnumerationBudget(bound, window=Window(2, 3, 0, 1)))
    moved = {translate_row(pc.circle.row(), 2, 0) for pc in base_set}
    checks.append({"name": "period-2 translation maps window sets exactly",
                   "passed": moved == {pc.circle.row() for pc in shifted}})
    mirrored = generate_superpacking(
        W_STANDARD, EnumerationBudget(bound, window=Window(-1, 0, 0, 1)))
    refl = {reflect_row_x(pc.circle.row()) for pc in base_set}
    checks.append({"name": "mirror symmetry maps window sets exactly",
                   "passed": refl == {pc.circle.row() for pc in mirrored}})
    ok, _ = residue_symmetry_check(base_set, 2, 1, "x=1-y",
                                   window=Window(0, 1, 0, 1))
    checks.append({"name": "odd curvatures symmetric across the diagonal",
                   "passed": ok})
    return checks


SUITES: Dict[str, Callable] = {
    "group": lambda seed: _check_group(),
    "forms": lambda seed: _check_forms(),
    "packing": lambda seed: _check_packing(),
    "appendix": lambda seed: _check_appendix(seed),
    "symmetry": lambda seed: _check_symmetry(),
}
SUITES["all"] = lambda seed: [c for name in
                              ("group", "forms", "packing", "appendix",
                               "symmetry")
                              for c in SUITES[name](seed)]


def run_suite(name: str, seed: int = 12345) -> Dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    checks = SUITES[name](seed)
    return {"suite": name, "seed": seed, "checks": checks,
            "passed": all(c["passed"] for c in checks)}
