"""Distant and almost-distant patterns and their expansion into finite
classical bases, plus the class-expression grammar used by the CLI.

A distant pattern writes a gap token between two letters of a classical
pattern q' of length k; avoiding it is the same as avoiding k+1 classical
patterns of length k+1, one per insertion value at the gap. An almost-distant
pattern drops exactly one of those k+1 patterns: the one whose inserted entry
at the gap has a designated value.

Grammar (CLI and config files)::

    classical       "123"            or "1 2 3"
    distant         "12#34"          '#' is the gap token
    almost-distant  "12[3]34"        bracketed value = the dropped insertion
    macros          "M(k,j,i)"       monotone almost-distant
                    "D(k,j)"         monotone distant (nothing dropped)
    union           parts joined by ';', e.g. "M(4,3,3);312456"

A compact part has one letter per digit 1-9; a part with whitespace reads
whitespace-separated decimal numbers. A repeated gap token, a sized gap
("#^r") or any other character is a usage error whose caret points at it.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .errors import ClassExpressionError, UsageError
from .perms import Perm, check_perm, format_perm, identity, reverse_complement

__all__ = [
    "MACRO_RE",
    "MAX_UNDERLYING",
    "PatternBasis",
    "make_basis",
    "expand_distant",
    "monotone_basis",
    "distant_monotone_basis",
    "basis_reverse_complement",
    "basis_union",
    "parse_class_expression",
]


# The longest underlying pattern a distant pattern may have. Its expansion
# holds k+1 patterns of length k+1, (k+1)^2 entries built before any node
# budget applies, so a huge k (say --k 100000) would exhaust memory instead
# of failing fast. Enumeration stops long before this length (the CLI caps
# n at 12), so a longer pattern could only ever forbid nothing.
MAX_UNDERLYING = 64


def _check_underlying(k: int) -> None:
    if k > MAX_UNDERLYING:
        raise UsageError(
            f"underlying pattern of length {k} is too long for a distant pattern "
            f"(at most {MAX_UNDERLYING})"
        )


def _insert_value(q: Perm, pos0: int, v: int) -> Perm:
    """Insert value ``v`` at 0-based position ``pos0`` of ``q``, shifting
    every entry >= v up by one.

    >>> _insert_value((1, 2, 3), 2, 1)
    (2, 3, 1, 4)
    """
    shifted = tuple(e + 1 if e >= v else e for e in q)
    return shifted[:pos0] + (v,) + shifted[pos0:]


class PatternBasis:
    """A finite, duplicate-free set of classical patterns defining Av_n(Q).

    Equality and hashing look at the pattern set only; the label is free-form
    provenance. Patterns are kept sorted by (length, values) so iteration is
    deterministic everywhere. Instances are immutable.
    """

    __slots__ = ("patterns", "label")
    patterns: tuple[Perm, ...]
    label: str

    def __init__(self, patterns: tuple[Perm, ...], label: str = "") -> None:
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError(f"PatternBasis is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PatternBasis is immutable: cannot delete {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return PatternBasis, (self.patterns, self.label)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def __contains__(self, q: Perm) -> bool:
        return q in self.patterns

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternBasis):
            return NotImplemented
        return self.patterns == other.patterns

    def __hash__(self) -> int:
        return hash(self.patterns)

    def __repr__(self) -> str:
        shown = ",".join(format_perm(q) for q in self.patterns)
        return f"PatternBasis({{{shown}}}, label={self.label!r})"

    def as_set(self) -> frozenset[Perm]:
        return frozenset(self.patterns)


def make_basis(patterns: Iterable[Perm], label: str = "") -> PatternBasis:
    cleaned = sorted({check_perm(q) for q in patterns}, key=lambda q: (len(q), q))
    return PatternBasis(tuple(cleaned), label)


def expand_distant(
    underlying: Perm, box_pos: int, removed: int | None = None, label: str | None = None
) -> PatternBasis:
    """The classical basis of a distant pattern: ``underlying`` (length k)
    with a gap token before its ``box_pos``-th letter, box_pos in 1..k+1
    (k+1 puts the gap after the last letter).

    The v-th of the k+1 patterns inserts value v at the gap position;
    deleting that entry recovers the underlying pattern. With ``removed``,
    the pattern with that value at the gap is dropped, which leaves the k
    patterns of the almost-distant pattern. ``label`` defaults to the
    pattern's text form ("12#34", "12[3]34").

    >>> sorted(expand_distant((1, 2, 3), 3).patterns)
    [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (2, 3, 1, 4)]
    >>> expand_distant((1, 2, 3), 3, removed=2).label
    '12[2]3'
    """
    _check_underlying(len(underlying))
    q = check_perm(underlying)
    k = len(q)
    if k < 1:
        raise UsageError("distant pattern needs a nonempty underlying pattern")
    if not 1 <= box_pos <= k + 1:
        raise UsageError(f"box position must be in 1..{k + 1}, got {box_pos}")
    if removed is not None and not 1 <= removed <= k + 1:
        raise UsageError(f"removed value must be in 1..{k + 1}, got {removed}")
    if label is None:
        parts = [str(v) for v in q]
        parts.insert(box_pos - 1, "#" if removed is None else f"[{removed}]")
        label = ("" if k <= 9 else " ").join(parts)
    return make_basis(
        (_insert_value(q, box_pos - 1, v) for v in range(1, k + 2) if v != removed), label
    )


def monotone_basis(k: int, j: int, i: int) -> PatternBasis:
    """The expanded basis of M(k,j,i): underlying 12...k, gap before letter
    j, insertion value i dropped; labeled canonically."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if not 1 <= j <= k + 1:
        raise UsageError(f"j must be in 1..{k + 1}, got {j}")
    if not 1 <= i <= k + 1:
        raise UsageError(f"i must be in 1..{k + 1}, got {i}")
    _check_underlying(k)
    return expand_distant(identity(k), j, i, label=f"M({k},{j},{i})")


def distant_monotone_basis(k: int, j: int) -> PatternBasis:
    """The expanded basis of D(k,j), labeled canonically."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    _check_underlying(k)
    return expand_distant(identity(k), j, label=f"D({k},{j})")


def basis_reverse_complement(b: PatternBasis) -> PatternBasis:
    """Apply reverse-complement to every member; an involution on bases."""
    return make_basis(
        (reverse_complement(q) for q in b.patterns),
        label=f"rc({b.label})" if b.label else "",
    )


def basis_union(bases: Iterable[PatternBasis], label: str = "") -> PatternBasis:
    merged: list[Perm] = []
    for b in bases:
        merged.extend(b.patterns)
    return make_basis(merged, label=label)


# ---------------------------------------------------------------------------
# Class-expression parsing


# One M(...) or D(...) macro spanning the whole text; group 1 is the name.
MACRO_RE = re.compile(r"^\s*([MD])\s*\(\s*(\d+)\s*,\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)\s*$")


def parse_class_expression(text: str) -> PatternBasis:
    """Parse a class expression into a pattern basis (see module docstring).

    Raises ClassExpressionError with an offset suitable for a caret
    diagnostic on bad input.
    """
    bases: list[PatternBasis] = []
    offset = 0
    parts = text.split(";")
    for raw in parts:
        if not raw.strip():
            raise ClassExpressionError("empty class expression part", text, offset)
        bases.append(_parse_part(raw, text, offset))
        offset += len(raw) + 1
    return basis_union(bases, label=text.strip())


def _parse_part(raw: str, full: str, offset: int) -> PatternBasis:
    m = MACRO_RE.match(raw)
    if m:
        return _parse_macro(m, full, offset)
    lead = offset + (len(raw) - len(raw.lstrip()))
    tokens = _tokenize(raw, full, offset)
    specials = [t for t in tokens if t[0] != "int"]
    if len(specials) > 1:
        kind = "gap" if specials[1][0] == "box" else "bracket"
        raise ClassExpressionError(
            f"at most one gap token per pattern (extra {kind} token)", full, specials[1][2]
        )
    try:
        underlying = check_perm(v for kind, v, _ in tokens if kind == "int")
    except UsageError as exc:
        raise ClassExpressionError(str(exc), full, lead) from None
    if not specials:
        return make_basis([underlying], label=raw.strip())
    _, value, pos = specials[0]
    if not underlying:
        raise ClassExpressionError("gap token needs surrounding pattern letters", full, pos)
    if value is not None and not 1 <= value <= len(underlying) + 1:
        raise ClassExpressionError(
            f"bracket value must be in 1..{len(underlying) + 1}, got {value}", full, pos
        )
    # the one special token has exactly its index's worth of letters before it
    box_pos = tokens.index(specials[0]) + 1
    return expand_distant(underlying, box_pos, value, label=raw.strip())


def _parse_macro(m: re.Match, full: str, offset: int) -> PatternBasis:
    name, pos = m.group(1), offset + m.start(1)
    args = [_number(m.group(g), full, offset + m.start(g)) for g in (2, 3, 4) if m.group(g)]
    try:
        if name == "M":
            if len(args) != 3:
                raise UsageError("M(k,j,i) takes three arguments")
            return monotone_basis(*args)
        if len(args) != 2:
            raise UsageError("D(k,j) takes two arguments")
        return distant_monotone_basis(*args)
    except UsageError as exc:
        raise ClassExpressionError(str(exc), full, pos) from None


def _number(digits: str, full: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on digits per int
        raise ClassExpressionError(f"number too long ({len(digits)} digits)", full, pos) from None


def _tokenize(raw: str, full: str, offset: int) -> list[tuple[str, int | None, int]]:
    # Tokens are ("int", value, pos), ("box", None, pos), ("bracket", value, pos).
    # A part with whitespace splits into words, a compact one into letters, '#',
    # '#^' and bracket tokens; one rule list reads both.
    spaced = any(ch.isspace() for ch in raw)
    out: list[tuple[str, int | None, int]] = []
    for m in re.finditer(r"\S+" if spaced else r"\[\d+\]|#\^?|.", raw):
        tok, pos = m.group(), offset + m.start()
        if tok.isdecimal() and (spaced or tok != "0"):
            out.append(("int", _number(tok, full, pos), pos))
        elif tok == "#":
            if any(kind == "box" for kind, _, _ in out):
                raise ClassExpressionError(
                    "at most one gap token per pattern (repeated '#')", full, pos
                )
            out.append(("box", None, pos))
        elif "#^" in tok or re.fullmatch(r"#\d+", tok):
            raise ClassExpressionError("sized gaps (#^r with r >= 2) are not supported", full, pos)
        elif re.fullmatch(r"\[\d+\]", tok):
            out.append(("bracket", _number(tok[1:-1], full, pos + 1), pos))
        elif spaced:
            raise ClassExpressionError(f"unexpected token {tok!r}", full, pos)
        elif tok == "0":
            raise ClassExpressionError(
                "compact form uses digits 1-9; use the spaced form for larger values", full, pos
            )
        elif tok[0] == "[":
            raise ClassExpressionError("malformed bracket token", full, pos)
        else:
            raise ClassExpressionError(f"unexpected character {tok!r}", full, pos)
    return out
