"""JSON text with the bytes of ``json.dumps(data, indent=2)``, made piece by piece.

The standard library's indenting encoder is pure Python and makes one
small string per number, and ``json.dumps`` joins them all at once.
``json_chunks`` instead makes one piece per list of plain ints and one per
scalar with its key or separator, and reads iterators as lists, so a
caller can write a document as it is made and print a matrix from a row
generator without keeping it.

A list is a row of plain ints when the set of its entries' types is
``{int}``, so ``True`` (a ``bool``) and ``IntEnum`` members take the
general path and print as ``json.dumps`` prints them.  A row is rendered
by joining the text of its entries, looked up in a table that holds the
``str`` of each distinct entry once; a pairing row holds a handful of
distinct values, so no Python code runs per entry.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

__all__ = ["json_chunks"]


def _scalar(value) -> str | None:
    """The JSON text of a scalar, as ``json.dumps`` writes it; None for a container."""
    if type(value) is int:
        return str(value)  # int.__repr__, which json writes for plain ints
    if isinstance(value, str):
        return encode_basestring_ascii(value)  # what json.dumps calls for a str
    if value is None or isinstance(value, (int, float)):
        return json.dumps(value)
    return None


def json_chunks(value, pad: str = "") -> Iterator[str]:
    """``json.dumps(value, indent=2)`` in pieces, for a value that starts
    ``pad`` deep.

    Dicts (with string keys), lists, tuples and iterators nest; an iterator
    prints as a list, read once.  A list of plain ``int`` (``bool`` is not
    one) comes out as one piece, and a scalar item with its key and
    separator.  Anything else raises ``TypeError``, as in ``json.dumps``.
    """
    text = _scalar(value)
    if text is not None:
        yield text
        return
    inner = pad + "  "
    if isinstance(value, dict):
        items = ((encode_basestring_ascii(key) + ": ", item) for key, item in value.items())
        opening, closing = "{", "}"
    elif type(value) is list and set(map(type, value)) == {int}:
        distinct = set(value)
        text = dict(zip(distinct, map(str, distinct)))
        yield "[\n" + inner + (",\n" + inner).join(map(text.__getitem__, value)) + "\n" + pad + "]"
        return
    elif isinstance(value, (list, tuple, Iterator)):
        items = (("", item) for item in value)
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    sep = opening + "\n" + inner
    for prefix, item in items:
        text = _scalar(item)
        if text is None:
            yield sep + prefix
            yield from json_chunks(item, inner)
        else:
            yield sep + prefix + text
        sep = ",\n" + inner
    yield "\n" + pad + closing if sep[0] == "," else opening + closing
