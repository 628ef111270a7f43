"""A JSON Schema validator for the draft-07 subset of qfcsim's two schemas.

Every command validates its run summary, and every config command its
config, against the schemas in qfcsim/data/.  Importing jsonschema costs
more than most commands compute, so this module implements only the
keywords those two files use, with jsonschema 4's semantics:

  * types: a bool is neither a number nor an integer, an integral float
    such as 7.0 is an integer, and NaN and +-inf are numbers;
  * enum and const keep bools apart from numbers (True != 1);
  * errors come in jsonschema's order, and ``best_match`` ranks them by its
    relevance rule, so a caller picks the error jsonschema would pick;
  * a keyword outside the subset raises SchemaError, so a schema edit
    cannot silently skip a rule.
"""

from __future__ import annotations

import numbers
import operator
import re
from collections.abc import Mapping, Sequence


class SchemaError(Exception):
    """The schema uses a keyword or a $ref this module does not implement."""


class ValidationError(Exception):
    """One broken rule.

    ``path`` holds the keys and indices from the root of the validated
    document to ``instance``; ``validator`` is the keyword, ``validator_value``
    its value and ``schema`` the (sub)schema that holds it.  A ``oneOf`` that
    no branch satisfies lists the errors of its branches in ``context``.
    """

    def __init__(self, path, validator, validator_value, instance, schema, context=()):
        where = ".".join(map(str, path)) or "instance"
        super().__init__(f"{where}: {validator} {validator_value!r}")
        self.path, self.validator, self.validator_value = path, validator, validator_value
        self.instance, self.schema, self.context = instance, schema, list(context)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


def _is_type(x, types) -> bool:
    return any(_TYPES[name](x) for name in ([types] if isinstance(types, str) else types))


def _equal(a, b) -> bool:
    """Equality that recurses into arrays and objects and keeps bools apart."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, Sequence) and isinstance(b, Sequence):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return False  # a is b failed, so not two equal bools
    return a == b


def _rule(key, applies, broken):
    """A keyword that checks ``instance`` alone and breaks at most once."""
    def check(value, x, schema, path, root):
        if applies(x) and broken(x, value):
            yield ValidationError(path, key, value, x, schema)
    return check


def _required(value, x, schema, path, root):
    if isinstance(x, dict):
        for key in value:
            if key not in x:
                yield ValidationError(path, "required", value, x, schema)


def _properties(value, x, schema, path, root):
    if isinstance(x, dict):
        for key, sub in value.items():
            if key in x:
                yield from _errors(x[key], sub, root, path + (key,))


def _additional_properties(value, x, schema, path, root):
    if not isinstance(x, dict):
        return
    extras = [key for key in x if key not in schema.get("properties", {})]
    if isinstance(value, dict):
        for key in extras:
            yield from _errors(x[key], value, root, path + (key,))
    elif not value and extras:
        yield ValidationError(path, "additionalProperties", value, x, schema)


def _items(value, x, schema, path, root):
    if isinstance(x, list):
        for i, item in enumerate(x):
            yield from _errors(item, value, root, path + (i,))


def _all_of(value, x, schema, path, root):
    for sub in value:
        yield from _errors(x, sub, root, path)


def _one_of(value, x, schema, path, root):
    subs = iter(value)
    context = []
    for sub in subs:
        errors = list(_errors(x, sub, root, path))
        if not errors:
            break
        context += errors
    else:
        yield ValidationError(path, "oneOf", value, x, schema, context)
    if any(_valid(x, sub, root, path) for sub in subs):
        yield ValidationError(path, "oneOf", value, x, schema)


def _if(value, x, schema, path, root):
    branch = "then" if _valid(x, value, root, path) else "else"
    if branch in schema:
        yield from _errors(x, schema[branch], root, path)


def _ref(value, x, schema, path, root):
    prefix = "#/definitions/"
    if not value.startswith(prefix):
        raise SchemaError(f"unsupported $ref {value!r}")
    yield from _errors(x, root["definitions"][value[len(prefix):]], root, path)


# keyword -> check; None marks a keyword that checks nothing by itself
KEYWORDS = {
    "type": _rule("type", lambda x: True, lambda x, types: not _is_type(x, types)),
    "enum": _rule("enum", lambda x: True, lambda x, v: not any(_equal(e, x) for e in v)),
    "const": _rule("const", lambda x: True, lambda x, v: not _equal(x, v)),
    "minItems": _rule("minItems", _TYPES["array"], lambda x, n: len(x) < n),
    "maxItems": _rule("maxItems", _TYPES["array"], lambda x, n: len(x) > n),
    "minimum": _rule("minimum", _TYPES["number"], operator.lt),
    "maximum": _rule("maximum", _TYPES["number"], operator.gt),
    "pattern": _rule("pattern", _TYPES["string"], lambda x, p: not re.search(p, x)),
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "allOf": _all_of,
    "oneOf": _one_of,
    "if": _if,
    "$ref": _ref,
    **dict.fromkeys(["then", "else", "definitions", "$schema", "$id", "title",
                     "description"]),
}


def _errors(x, schema, root, path):
    if schema is True:
        return
    if not isinstance(schema, dict):
        raise SchemaError(f"a schema must be an object or true, got {schema!r}")
    # draft 7 ignores the siblings of a $ref
    for key, value in [("$ref", schema["$ref"])] if "$ref" in schema else schema.items():
        if key not in KEYWORDS:
            raise SchemaError(f"unsupported schema keyword {key!r}")
        if KEYWORDS[key] is not None:
            yield from KEYWORDS[key](value, x, schema, path, root)


def _valid(x, schema, root, path) -> bool:
    return next(_errors(x, schema, root, path), None) is None


def iter_errors(instance, schema, root=None):
    """Yield a ValidationError for each rule of ``schema`` that ``instance`` breaks.

    ``root`` is the document that ``$ref`` pointers resolve in, by default
    ``schema`` itself.
    """
    return _errors(instance, schema, schema if root is None else root, ())


def _relevance(error):
    # jsonschema's by_relevance(): shallower errors rank higher, then later
    # paths, then any keyword but anyOf/oneOf, then an instance that is not
    # of the type its (sub)schema names
    schema = error.schema
    matches_type = "type" in schema and _is_type(error.instance, schema["type"])
    return (-len(error.path), error.path, error.validator not in ("anyOf", "oneOf"),
            not matches_type)


def best_match(errors):
    """The error that jsonschema 4's ``best_match`` picks, or None if there is none.

    The most relevant error wins; a ``oneOf`` then descends into the least
    relevant error of its branches, unless two of them tie.
    """
    best = max(errors, key=_relevance, default=None)
    while best is not None and best.context:
        smallest = sorted(best.context, key=_relevance)[:2]
        if len(smallest) == 2 and _relevance(smallest[0]) == _relevance(smallest[1]):
            return best
        best = smallest[0]
    return best


def validate(instance, schema) -> None:
    """Raise the ``best_match`` ValidationError if ``instance`` breaks ``schema``."""
    error = best_match(iter_errors(instance, schema))
    if error is not None:
        raise error
