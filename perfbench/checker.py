"""Independent checks of the CLI's outputs.

Standard library only, and no call into the package: every predicate and
every bound is computed here from the mathematics, so a fault in the
program's own predicates cannot hide a wrong answer.  Each ``check_*``
function takes the captured standard output of one CLI call and returns
``(problems, work)``: the list of failed checks (empty when the output is
right) and the counts of work the output reports.
"""

from __future__ import annotations

import itertools
import json
from math import comb


def ekr_bound(n: int, k: int) -> int:
    return comb(n - 1, k - 1)


def hm_bound(n: int, k: int) -> int:
    return comb(n - 1, k - 1) - comb(n - k - 1, k - 1) + 1


def star_sets(n: int, k: int, v: int) -> list[tuple[int, ...]]:
    """All k-subsets of [n] containing v, sorted."""
    return [s for s in itertools.combinations(range(1, n + 1), k) if v in s]


def is_intersecting(sets) -> bool:
    return all(sets) and all(set(a) & set(b) for a, b in itertools.combinations(sets, 2))


def is_shifted(sets) -> bool:
    """Closed under replacing an element by any smaller element not in the set."""
    members = {tuple(sorted(s)) for s in sets}
    for s in members:
        for i in s:
            for j in range(1, i):
                if j not in s and tuple(sorted(set(s) - {i} | {j})) not in members:
                    return False
    return True


def common_element(sets) -> bool:
    return bool(sets) and bool(set.intersection(*(set(s) for s in sets)))


def family_problems(sets, n: int, k: int, size: int, what: str) -> list[str]:
    """A k-uniform intersecting shifted family of `size` distinct sets on [n]."""
    try:
        canon = [tuple(s) for s in sets]
    except TypeError:
        return [f"{what}: not a list of sets"]
    problems = []
    if len(canon) != size or len(set(canon)) != size:
        problems.append(f"{what}: {len(canon)} sets ({len(set(canon))} distinct), expected {size}")
    for s in canon:
        if (len(s) != k or len(set(s)) != k
                or not all(isinstance(a, int) and 1 <= a <= n for a in s)):
            problems.append(f"{what}: {list(s)} is not a {k}-subset of [{n}]")
            return problems
    if not is_intersecting(canon):
        problems.append(f"{what}: not intersecting")
    if not is_shifted(canon):
        problems.append(f"{what}: not shifted")
    return problems


def _parse(stdout: str):
    """The JSON object a verb prints after any one-line text summary, and
    the problems met reading it."""
    start = stdout.find("{")
    try:
        obj = json.loads(stdout[start:]) if start >= 0 else None
    except ValueError as exc:
        return None, [f"unreadable output: {exc}"]
    if not isinstance(obj, dict):
        return None, ["no JSON object in the output"]
    return obj, []


def check_pipeline(stdout: str, n: int, k: int, size: int, star: bool):
    """`pipeline` on the image of a k-uniform intersecting family of `size` sets."""
    obj, problems = _parse(stdout)
    if obj is None:
        return problems, {}
    if obj.get("size") != size:
        problems.append(f"size {obj.get('size')} != |F| = {size}")
    if obj.get("bound") != ekr_bound(n, k):
        problems.append(f"bound {obj.get('bound')} != C({n - 1},{k - 1}) = {ekr_bound(n, k)}")
    if obj.get("satisfied") is not True:
        problems.append("not satisfied")
    cert = obj.get("certificate") or {}
    family = cert.get("family")
    if not isinstance(family, list):
        return problems + ["certificate has no family"], {}
    problems += family_problems(family, n, k, size, "certificate family")
    steps = cert.get("steps")
    if not isinstance(steps, list):
        problems.append("certificate has no steps")
    else:
        bad = [st.get("step") for st in steps if st.get("dim") != size]
        if bad:
            problems.append(f"steps {bad[:5]} have dim != {size}")
    if star and n > 2 * k and sorted(map(tuple, family)) != star_sets(n, k, 1):
        problems.append("image of a full star did not end at the star at 1")
    return problems, {}


def check_hm_verify(stdout: str, n: int, k: int):
    obj, problems = _parse(stdout)
    if obj is None:
        return problems, {}
    bound = hm_bound(n, k)
    if obj.get("size") != bound or obj.get("bound") != bound:
        problems.append(f"size {obj.get('size')} / bound {obj.get('bound')}, expected both {bound}")
    cert = obj.get("certificate") or {}
    witnesses = cert.get("witnesses")
    if not isinstance(witnesses, list) or not witnesses:
        problems.append("no witnesses")
        witnesses = []
    for pos, w in enumerate(witnesses):
        problems += family_problems(w, n, k, bound, f"witness #{pos + 1}")
        if common_element(w):
            problems.append(f"witness #{pos + 1} is a star")
    enumerated = cert.get("enumerated")
    if not isinstance(enumerated, int) or enumerated < 1:
        problems.append(f"enumerated count {enumerated!r}")
        enumerated = 0
    return problems, {"families": enumerated}


def _monomial(text: str):
    """Index tuple of a unit monomial such as e1^e2^e5, or None."""
    parts = text.split("^")
    if not all(p.startswith("e") and p[1:].isdigit() for p in parts):
        return None
    return tuple(int(p[1:]) for p in parts)


def check_example_cross(stdout: str, k: int):
    obj, problems = _parse(stdout)
    if obj is None:
        return problems, {}
    n = 2 * k
    if obj.get("dim") != comb(2 * k - 1, k - 1):
        problems.append(f"dim {obj.get('dim')} != C({2 * k - 1},{k - 1})")
    if obj.get("annihilator_dim") != 0:
        problems.append(f"annihilator dimension {obj.get('annihilator_dim')} != 0")
    for key in ("self_annihilating", "spanning_elements_factor_free"):
        if obj.get(key) is not True:
            problems.append(f"{key} is not true")
    rows = [r for r in obj.get("spanning_rows") or [] if r != "..."]
    if not rows:
        problems.append("no spanning rows shown")
    for row in rows:
        terms = [_monomial(t) for t in str(row).split(" + ")]
        if len(terms) != 2 or None in terms:
            problems.append(f"row {row!r} is not a sum of two unit monomials")
            continue
        a, ac = terms
        if (1 not in a or len(a) != k or list(a) != sorted(a) or list(ac) != sorted(ac)
                or set(ac) != set(range(1, n + 1)) - set(a)):
            problems.append(f"row {row!r} is not A + complement with 1 in A")
    return problems, {}


def check_oracle(stdout: str, n: int, trials: int):
    obj, problems = _parse(stdout)
    if obj is None:
        return problems, {}
    if obj.get("match") is not True:
        problems.append("oracle reports a mismatch")
    if obj.get("pairs_per_trial") != n * (n - 1) // 2:
        problems.append(f"pairs_per_trial {obj.get('pairs_per_trial')} != {n * (n - 1) // 2}")
    if obj.get("trials") != trials:
        problems.append(f"trials {obj.get('trials')} != {trials}")
    return problems, {"pairs": trials * n * (n - 1) // 2}
