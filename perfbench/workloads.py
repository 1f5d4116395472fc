"""The four workloads: seeded inputs and independent output checks.

Each workload turns a seed into the argv lists of one run and checks what
the program printed, using only ``oracle`` and the reference digests of
the seed commit's outputs in ``reference.json``.  A check returns one
verdict per operation: None when the output is right, else a reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import re
from fractions import Fraction

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

UNIT_WINDOW = (0, 1, 0, 1)
W_STANDARD = ((2, 0, 0, 1), (2, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))
# locate_in_unit_square((-1, 2, 2, 3)) at the seed commit.
PACKING_BASE = ((0, -1, -1, 0), (2, 2, 2, 1), (2, 2, 2, -1), (8, 3, 5, 0))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _s(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else str(x)


def _matrix_arg(rows):
    return json.dumps([[_s(x) for x in r] for r in rows])


# ---------------------------------------------------------------------------
# super_render: the headline picture over a symmetric copy of the unit square.

class SuperRender:
    """``render --mode super`` of a window the seed picks among the images
    of [0,1]^2 under x -> -x, y -> -y and translations by (2k, 0).  Those
    maps preserve the standard super-packing and the nesting depth, so every
    window carries the same circles and the output maps back onto the seed
    commit's picture.  (Translating by (0, 2) crosses a line and shifts
    every depth by one.)"""

    name = "super_render"
    in_process = False
    bound = REFERENCE["super_render"]["max_curvature"]

    def __init__(self, rng):
        self.motion = (rng.choice((1, -1)), rng.choice((1, -1)),
                       2 * rng.randrange(-1, 2), 0)
        sx, sy, tx, ty = self.motion
        xs = sorted((tx, sx + tx))
        ys = sorted((ty, sy + ty))
        self.window = (xs[0], xs[1], ys[0], ys[1])

    def requests(self):
        return [["render", "--mode", "super",
                 "--window=" + ",".join(map(str, self.window)),
                 "--max-curvature", str(self.bound), "--depth-shade"]]

    _CIRCLE = re.compile(r'<circle cx="([^"]+)" cy="([^"]+)" r="([^"]+)" '
                         r'stroke="#000000" stroke-width="[^"]+" fill="([^"]+)"/>')
    _LINE = re.compile(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" ')

    def _row(self, element):
        """Recover the integer row and depth an element was drawn from."""
        xmin, xmax, ymin, ymax = self.window
        m = self._CIRCLE.fullmatch(element)
        if m:
            cx, cy, r = (Fraction(g) for g in m.groups()[:3])
            if m[4] not in oracle.GRAYS:
                return None
            b = round(oracle.SCALE / r)
            bx = round(b * (cx / oracle.SCALE + xmin))
            by = round(b * (ymax - cy / oracle.SCALE))
            if b <= 0 or (bx * bx + by * by - 1) % b:
                return None
            return ((bx * bx + by * by - 1) // b, b, bx, by), \
                oracle.GRAYS.index(m[4])
        m = self._LINE.match(element)
        if m:
            x1, y1, x2 = (Fraction(g) for g in m.groups())
            ny = 1 if x1 > x2 else -1
            y = ymax - y1 / oracle.SCALE
            if y.denominator != 1:
                return None
            return (int(2 * y * ny), 0, 0, ny), 0
        return None

    def check(self, results):
        (res,) = results
        if res["rc"] != 0:
            return [f"exit {res['rc']}"]
        lines = res["stdout"].split("\n")
        if lines[:2] != oracle.svg_header(self.window) or \
                lines[-2:] != ["</svg>", ""]:
            return ["bad SVG frame"]
        rows = []
        for element in lines[2:-2]:
            got = self._row(element)
            if got is None or not oracle.row_is_valid(got[0]) or \
                    oracle.svg_element(*got, self.window) != element:
                return [f"element does not match an integer row: {element}"]
            rows.append(got)
        if any(a[0] >= b[0] for a, b in zip(rows, rows[1:])):
            return ["elements are not in row order"]
        back = sorted((oracle.unmove_row(row, *self.motion), depth)
                      for row, depth in rows)
        doc = "\n".join(oracle.svg_header(UNIT_WINDOW) + [
            oracle.svg_element(row, depth, UNIT_WINDOW) for row, depth in back]
            + ["</svg>", ""])
        if _sha(doc) != REFERENCE["super_render"]["sha256"]:
            return ["mapped-back picture differs from the seed commit's"]
        return [None]


# ---------------------------------------------------------------------------
# packing_jsonl: a bounded Apollonian packing streamed as JSON lines.

class PackingJsonl:
    """``generate --mode packing`` from the located (-1, 2, 2, 3) quadruple,
    translated by an even vector the seed picks.  Swaps only, no window,
    curvature pruning only; every circle carries its witness word."""

    name = "packing_jsonl"
    in_process = False
    bound = REFERENCE["packing_jsonl"]["max_curvature"]
    _KEYS = ["bbar", "b", "bx", "by", "depth", "witness"]

    def __init__(self, rng):
        self.shift = (2 * rng.randrange(-1, 2), 2 * rng.randrange(-1, 2))
        self.base = tuple(oracle.move_row(r, 1, 1, *self.shift)
                          for r in PACKING_BASE)

    def requests(self):
        return [["generate", "--mode", "packing", "--base",
                 _matrix_arg(self.base), "--max-curvature", str(self.bound)]]

    def check(self, results):
        (res,) = results
        if res["rc"] != 0:
            return [f"exit {res['rc']}"]
        memo = {(): self.base}

        def matrix(applied):
            # Witness prefixes repeat, so each configuration is built once.
            if applied not in memo:
                memo[applied] = oracle.act(applied[-1], matrix(applied[:-1]))
            return memo[applied]

        rows = []
        for text in res["stdout"].splitlines():
            obj = json.loads(text)
            if list(obj) != self._KEYS:
                return [f"bad record {text}"]
            row = tuple(int(obj[k]) for k in self._KEYS[:4])
            applied = tuple(reversed(obj["witness"].split()))
            made = matrix(applied)
            ok = oracle.row_is_valid(row) and \
                obj["depth"] == sum(1 for l in applied if l[0] == "t") and \
                (row in made if not applied else
                 made[int(applied[-1][1]) - 1] == row and abs(row[1]) <= self.bound)
            if not ok:
                return [f"record fails the row, witness or bound check: {text}"]
            rows.append((row, obj))
        if any(a[0] >= b[0] for a, b in zip(rows, rows[1:])):
            return ["records are not in row order"]
        back = []
        for row, obj in rows:
            orig = oracle.move_row(row, 1, 1, -self.shift[0], -self.shift[1])
            back.append((orig, dict(obj, **{k: str(v) for k, v in
                                            zip(self._KEYS, orig)})))
        back.sort(key=lambda item: item[0])
        doc = "".join(json.dumps(obj) + "\n" for _, obj in back)
        if _sha(doc) != REFERENCE["packing_jsonl"]["sha256"]:
            return ["mapped-back packing differs from the seed commit's"]
        return [None]


# ---------------------------------------------------------------------------
# suites: census plus every verification suite.

class Suites:
    """``census`` followed by ``verify all --seed <seed>``."""

    name = "suites"
    in_process = False

    def __init__(self, rng):
        self.seed = rng.randrange(1, 1 << 30)

    def requests(self):
        return [["census"], ["verify", "all", "--seed", str(self.seed)]]

    def check(self, results):
        census, verify = results
        expected = {"suite": "all", "seed": self.seed,
                    "checks": [{"name": n, "passed": True}
                               for n in REFERENCE["suites"]["checks"]],
                    "passed": True}
        return [
            None if census["rc"] == 0 and _sha(census["stdout"]) ==
            REFERENCE["suites"]["census_sha256"] else "census output differs",
            None if verify["rc"] == 0 and verify["stdout"] ==
            json.dumps(expected, indent=2) + "\n" else "verify all failed",
        ]


# ---------------------------------------------------------------------------
# queries: many small and large requests through cli.main in one process.

def _root_quadruples(max_abs_a):
    """Primitive sorted root quadruples (a, b, c, d) with a < 0.

    With q = sqrt(ab + bc + ca), a root has d = a + b + c - 2q >= c, so
    c = (q^2 - ab) / (a + b) for 0 <= q <= (a + b) / 2.
    """
    out = []
    for a in range(-1, -max_abs_a - 1, -1):
        for b in range(-a + 1, 3 * -a + 2):  # c >= b forces b < 2.16 |a|
            for q in range((a + b) // 2 + 1):
                c, rem = divmod(q * q - a * b, a + b)
                d = a + b + c - 2 * q
                if rem == 0 and b <= c <= d and oracle.gcd_all((a, b, c, d)) == 1:
                    out.append((a, b, c, d))
    return out


ROOTS = _root_quadruples(12)
FORMS = [(f, m, n, g) for f in "AB" for m in (0, 1) for n in (0, 1)
         for g in (1, 2, 3, 4)]


def _printed_form(family, m, n, g):
    if family == "A":
        return ((0, 0, 1), (0, 0, -1), (g, m, n), (g, m - 2, n))
    return ((0, 1, 0), (0, -1, 0), (g, m, n), (g, m, n - 2))


def _census_classes():
    """Form name -> g vector of the super-integral forms in the census."""
    out = {}
    for *gv, _, reps in list(csv.reader(REFERENCE["suites"]["census"].splitlines()))[1:]:
        if gv[0]:
            for rep in reps.split():
                out[rep] = [int(x) for x in gv]
    return out


CENSUS_CLASSES = _census_classes()


class Queries:
    """Seeded requests of six kinds, run back to back through cli.main.

    Inputs are root quadruples and printed forms moved by words that
    contain a parabolic run (x_i x_j)^k.  The k of the requests of a kind
    are log-uniform on [1, kmax], one at the middle of each of ``count``
    equal strata.  The rest of a request's shape (its root or form, its
    word, and for an invalid quadruple its command) is fixed by its
    stratum, so every seed carries the same load, from about a millisecond
    to about half a second a request.  The seed picks what leaves the cost
    alone: signs, the order of entries and rows, the dropped row, the entry
    that is made invalid, and the order of the requests.  Invalid
    quadruples must be rejected with exit code 1.
    """

    name = "queries"
    in_process = True
    # kind -> (requests per run, largest parabolic exponent)
    MIX = {"check": (36, 5000), "reduce": (36, 2000), "root": (36, 5000),
           "classify": (48, 1000), "locate": (24, 1), "complete": (36, 40),
           "invalid": (24, 1000)}
    EXTRA = 2  # random letters on each side of the parabolic run

    def __init__(self, rng):
        self.rng = rng
        self.items = []   # (argv, kind, expectation)
        for kind, (count, kmax) in self.MIX.items():
            for i in range(count):
                k = round(math.exp(math.log(kmax) * (i + 0.5) / count))
                shape = random.Random(f"{kind}-{i}")
                self.items.append(getattr(self, "_make_" + kind)(k, shape))
        rng.shuffle(self.items)

    def requests(self):
        return [argv for argv, _, _ in self.items]

    # -- input generation --------------------------------------------------

    def _word(self, k, shape, kinds="s"):
        """Applied-order letters: random, a parabolic run, random."""
        letters = []

        def push(l):
            if not letters or letters[-1] != l:
                letters.append(l)

        for _ in range(self.EXTRA):
            push(shape.choice(kinds) + str(shape.randrange(1, 5)))
        kind = shape.choice(kinds)
        i, j = shape.sample(range(1, 5), 2)
        for _ in range(k):
            push(f"{kind}{i}")
            push(f"{kind}{j}")
        for _ in range(self.EXTRA):
            push(shape.choice(kinds) + str(shape.randrange(1, 5)))
        return letters

    def _quadruple(self, k, shape):
        root = shape.choice(ROOTS)
        q = tuple(root)
        for l in self._word(k, shape):
            q = oracle.act(l, q)
        q = list(q)
        self.rng.shuffle(q)
        return tuple(q), root

    def _make_check(self, k, shape):
        q, root = self._quadruple(k, shape)
        sign = self.rng.choice((1, -1))
        q = tuple(sign * x for x in q)
        return ["check", "--"] + [str(x) for x in q], "check", (q, root)

    def _make_reduce(self, k, shape):
        q, _ = self._quadruple(k, shape)
        sign = self.rng.choice((1, -1))
        q = tuple(sign * x for x in q)
        return ["reduce", "--"] + [str(x) for x in q], "reduce", q

    def _make_root(self, k, shape):
        q, root = self._quadruple(k, shape)
        return ["root", "--"] + [str(x) for x in q], "root", root

    def _make_classify(self, k, shape):
        form = shape.choice(FORMS)
        rows = list(_printed_form(*form))
        self.rng.shuffle(rows)
        sign = self.rng.choice((1, -1))
        rows = tuple(tuple(sign * x for x in r) for r in rows)
        for l in self._word(k, shape, kinds="st"):
            rows = oracle.act(l, rows)
        return ["classify", "--matrix", _matrix_arg(rows)], "classify", (rows, form)

    def _make_locate(self, k, shape):
        root = shape.choice(ROOTS)
        return ["locate", "--"] + [str(x) for x in root], "locate", root

    def _make_complete(self, k, shape):
        w = W_STANDARD
        for l in self._word(k, shape, kinds="st"):
            w = oracle.act(l, w)
        drop = self.rng.randrange(4)
        rows = [r for i, r in enumerate(w) if i != drop]
        circles = [dict(zip(("bbar", "b", "bx", "by"), map(str, r))) for r in rows]
        return ["complete", "--circles", json.dumps(circles)], "complete", \
            (tuple(rows), w[drop])

    def _make_invalid(self, k, shape):
        q, _ = self._quadruple(k, shape)
        q = list(q)
        # Moving one entry by 1 changes the Descartes defect by an odd number.
        q[self.rng.randrange(4)] += self.rng.choice((1, -1))
        cmd = shape.choice(("reduce", "root", "locate"))
        return [cmd, "--"] + [str(x) for x in q], "invalid", None

    # -- checks -------------------------------------------------------------

    def check(self, results):
        return [self._verdict(kind, expect, res)
                for (_, kind, expect), res in zip(self.items, results)]

    def _verdict(self, kind, expect, res):
        if kind == "invalid":
            ok = res["rc"] == 1 and res["stdout"] == "" and \
                res["stderr"].startswith("error: ")
            return None if ok else "invalid input was not rejected"
        if res["rc"] != 0:
            return f"{kind}: exit {res['rc']}: {res['stderr'][:200]}"
        try:
            out = json.loads(res["stdout"])
            ok = getattr(self, "_ok_" + kind)(expect, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{kind}: unreadable output ({exc})"
        return None if ok else f"{kind}: wrong result"

    @staticmethod
    def _ok_check(expect, out):
        q, root = expect
        s = sum(q)
        want = {"curvatures": [str(x) for x in q], "defect": "0", "valid": True,
                "divisor": oracle.gcd_all(q), "orientation": 1 if s > 0 else -1,
                "root_quadruple": [str(x) for x in root]}
        return out == want

    @staticmethod
    def _ok_reduce(q, out):
        tokens = out["word"].split()
        ground = tuple(int(x) for x in out["ground"])
        sign = 1 if sum(q) > 0 else -1
        g = oracle.gcd_all(q)
        if oracle.replay(out["word"], q) != ground or \
                sorted(sign * x for x in ground) != [0, 0, g, g] or \
                len(out["steps"]) != len(tokens):
            return False
        v, size = q, abs(sum(q))
        for step, tok in zip(out["steps"], reversed(tokens)):
            v = oracle.act(tok, v)
            if step["letter"] != tok or step["quadruple"] != [str(x) for x in v] \
                    or int(step["size"]) != abs(sum(v)) or abs(sum(v)) >= size:
                return False
            size = abs(sum(v))
        return True

    @staticmethod
    def _ok_root(root, out):
        return out == {"root_quadruple": [str(x) for x in root]}

    @staticmethod
    def _ok_classify(expect, out):
        rows, (family, m, n, g) = expect
        label = out["label"]
        printed = _printed_form(label["family"], label["m"], label["n"], label["g"])
        perm, sign = label["row_permutation"], label["orientation"]
        target = tuple(tuple(sign * x for x in printed[perm[i]]) for i in range(4))
        gvector = CENSUS_CLASSES.get(f"{family}[{m},{n};{g}]")
        integrality = {"status": "super_integral" if gvector else
                       "strongly_integral_only", "g": g, "gvector": gvector}
        return oracle.replay(out["word"], rows) == target and \
            (label["family"], label["m"], label["n"], label["g"]) == (family, m, n, g) \
            and out["integrality"] == integrality

    @staticmethod
    def _ok_locate(root, out):
        w = tuple(tuple(int(x) for x in r) for r in out["matrix"])
        a = root[0]
        big = next(r for r in w if r[1] == a)
        center = [_s(Fraction(big[2], a)), _s(Fraction(big[3], a))]
        return oracle.augmented_is_valid(w) and \
            all(oracle.row_is_valid(r) for r in w) and \
            tuple(r[1] for r in w) == tuple(root) and \
            all(0 <= Fraction(c) <= 1 for c in center) and \
            out["largest_circle_center"] == center

    @staticmethod
    def _ok_complete(expect, out):
        rows, dropped = expect
        comps = [tuple(tuple(Fraction(x) for x in r) for r in m)
                 for m in out["completions"]]
        return out["strongly_integral_input"] is True and len(comps) == 2 and \
            all(c[:3] == rows and oracle.augmented_is_valid(c) for c in comps) \
            and dropped in (comps[0][3], comps[1][3])


WORKLOADS = {w.name: w for w in (SuperRender, PackingJsonl, Queries, Suites)}
