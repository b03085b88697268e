"""Seeded operation streams and source edits.

Every function here is a pure function of its arguments: the same seed
gives the same round orders, edit sites and edited texts in any process,
whatever ``PYTHONHASHSEED`` is (``random.Random`` seeds from a string
through SHA-512, not through ``hash``).  Nothing here imports ``repro``;
the checks that an edit changes the nests it claims to live in
``workloads.py``, which has the parser.
"""

from __future__ import annotations

import random
import re
from typing import List, Sequence, TypeVar

T = TypeVar("T")

#: the scalar a semantic edit assigns; a fresh name that no registry
#: kernel uses, so the statement only adds a private scalar to its nest
EDIT_SCALAR = "ed_tmp"


def rng_for(*parts: object) -> random.Random:
    """A generator seeded by ``parts`` joined into one string."""
    return random.Random(":".join(str(p) for p in parts))


def round_order(seed: int, round_index: int, items: Sequence[T]) -> List[T]:
    """``items`` in a seeded order that differs from round to round."""
    out = list(items)
    rng_for("round", seed, round_index).shuffle(out)
    return out


def _skip_comment(src: str, i: int) -> int:
    if src.startswith("//", i):
        end = src.find("\n", i)
        return len(src) if end < 0 else end
    if src.startswith("/*", i):
        end = src.find("*/", i + 2)
        return len(src) if end < 0 else end + 2
    return i


def nest_body_offsets(src: str) -> List[int]:
    """Offsets just past the ``{`` of every braced top-level ``for`` body.

    A top-level loop is a ``for`` keyword at brace depth 0.  Loops whose
    body is a single unbraced statement are skipped: a semantic edit
    needs a block to insert into.
    """
    out: List[int] = []
    depth = 0
    i, n = 0, len(src)
    while i < n:
        j = _skip_comment(src, i)
        if j != i:
            i = j
            continue
        c = src[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif (
            depth == 0
            and src.startswith("for", i)
            and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_"))
            and (i + 3 >= n or not (src[i + 3].isalnum() or src[i + 3] == "_"))
        ):
            k = src.index("(", i)
            paren = 0
            while True:
                if src[k] == "(":
                    paren += 1
                elif src[k] == ")":
                    paren -= 1
                    if paren == 0:
                        break
                k += 1
            k += 1
            while k < n and src[k].isspace():
                k += 1
            if k < n and src[k] == "{":
                out.append(k + 1)
            i = k
            continue
        i += 1
    return out


def format_edit(src: str, seed: int, index: int) -> str:
    """A formatting-only edit: a comment line and a re-indented line.

    The comment holds only digits and dots, so it cannot end early or
    merge tokens; re-indenting adds spaces at a line start.  The parsed
    program is therefore identical to ``src``.  ``index`` makes the text
    unique, so the edit misses every whole-program cache.
    """
    rng = rng_for("fmt", seed, index)
    lines = src.split("\n")
    target = rng.randrange(len(lines))
    lines[target] = " " * rng.randint(1, 4) + lines[target]
    lines.insert(rng.randrange(len(lines) + 1), f"/* edit {seed}.{index} */")
    return "\n".join(lines)


def semantic_edit(src: str, offset: int, index: int) -> str:
    """An edit to exactly one top-level nest: a new private scalar write.

    ``offset`` is one of :func:`nest_body_offsets` of ``src``: the edited
    nest.  The assigned literal carries ``index``, so each edit gives its
    nest a fingerprint never seen before and the analysis of that nest
    misses and stores once.
    """
    return src[:offset] + f" {EDIT_SCALAR} = {index};" + src[offset:]


_LOOP_ID = re.compile(r"\bL\d+\b")


def strip_loop_ids(text: str) -> str:
    """Loop ids come from a process-wide counter; mask them for comparison."""
    return _LOOP_ID.sub("L#", text)
