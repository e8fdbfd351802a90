"""Record formats for families, subspaces, and traces.

Families travel as ``{n, k, sets}`` with 1-based indices and lexicographically
sorted sets; subspaces as ``{n, k, order, basis}`` with canonical text rows.
A record comes from a file or inline JSON text.  Reading is where outside
input is checked: it re-canonicalizes (a subspace file may hold any spanning
set) and rejects invariant violations with positioned messages, so malformed
input ends in a ParseError, never a traceback.  Subspace rows are read as
integer term maps (``parse_terms``), checked for grade k once every row has
parsed, and spanned through ``Subspace._trusted`` with no Multivector or
Fraction in between.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .errors import ParseError
from .exterior import format_multivector, parse_terms
from .families import SetFamily
from .subspace import MonomialOrder, Subspace, _check_grade


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_types(obj: dict, what: str, list_key: str) -> None:
    for key in ("n", "k"):
        if not _is_int(obj[key]):
            raise ParseError(f"{what} record {key!r} must be an integer")
    if not isinstance(obj[list_key], list):
        raise ParseError(f"{what} record {list_key!r} must be a list")


def family_record(F: SetFamily) -> dict:
    return {"n": F.n, "k": F.k, "sets": [list(s) for s in F.sets]}


def family_from_record(obj: dict) -> SetFamily:
    for key in ("n", "k", "sets"):
        if key not in obj:
            raise ParseError(f"family record is missing {key!r}")
    _check_types(obj, "family", "sets")
    sets = obj["sets"]
    seen = set()
    for pos, s in enumerate(sets):
        if not isinstance(s, list) or not all(_is_int(i) for i in s):
            raise ParseError(f"set #{pos + 1} is not a list of integers")
        key = tuple(sorted(s))
        if key in seen:
            raise ParseError(f"duplicate set at position {pos + 1}: {sorted(s)}")
        seen.add(key)
    try:
        return SetFamily(obj["n"], obj["k"], tuple(tuple(s) for s in sets))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def subspace_record(V: Subspace) -> dict:
    return {
        "n": V.n,
        "k": V.k,
        "order": V.order.kind,
        "basis": [format_multivector(r) for r in V.rows],
    }


def subspace_from_record(obj: dict) -> Subspace:
    for key in ("n", "k", "basis"):
        if key not in obj:
            raise ParseError(f"subspace record is missing {key!r}")
    _check_types(obj, "subspace", "basis")
    kind = obj.get("order", "lex")
    if not isinstance(kind, str):
        raise ParseError("subspace record 'order' must be a string")
    try:
        order = MonomialOrder(kind, obj["n"], obj["k"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    rows = []
    for pos, text in enumerate(obj["basis"]):
        if not isinstance(text, str):
            raise ParseError(f"basis row #{pos + 1} is not a string")
        try:
            rows.append(parse_terms(text, obj["n"])[0])
        except ParseError as exc:
            raise ParseError(f"basis row #{pos + 1}: {exc}") from exc
    try:
        for row in rows:
            _check_grade(order, row)
    except ValueError as exc:
        raise ParseError(f"basis rows violate the subspace contract: {exc}") from exc
    return Subspace._trusted(order, rows)


def _decode(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{what} nests too deeply to decode") from None


def load_json(path: Union[str, Path]) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    obj = _decode(text, str(path))
    if not isinstance(obj, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return obj


def save_json(path: Union[str, Path], obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def parse_input(source: str) -> Union[SetFamily, Subspace]:
    """Decode a family or subspace record: inline JSON when the source starts
    with ``{``, else the path of a file holding one.

    The record kind is recognized by its fields (``sets`` against ``basis``).
    A multivector literal is not a record; parse it with parse_multivector."""
    text = source.strip()
    obj = _decode(text, "inline record") if text.startswith("{") else load_json(source)
    if "sets" in obj:
        return family_from_record(obj)
    if "basis" in obj:
        return subspace_from_record(obj)
    raise ParseError("JSON record is neither a family (sets) nor a subspace (basis)")
