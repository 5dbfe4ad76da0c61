"""Validate a report against its JSON Schema (draft 2020-12).

Only the keywords the shipped schemas under hpa/schemas/ use are
implemented: type, enum, oneOf, properties, patternProperties, required,
additionalProperties (false only), items, prefixItems, minItems and
maxItems.  The annotations $schema and title are ignored.  Any other
keyword raises SchemaError, so a schema edit cannot silently weaken
validation.  As in jsonschema, `integer` rejects bools and accepts floats
with an integral value.  A tuple counts as an array and a key that is not
a string is refused, so a payload that passes serializes to one that would.
"""

import re


class ValidationError(ValueError):
    """The instance does not match the schema."""


class SchemaError(Exception):
    """The schema uses a keyword or type this validator does not implement."""


_TYPES = {'object': dict, 'array': (list, tuple), 'string': str,
          'boolean': bool, 'null': type(None), 'integer': int}
_KEYWORDS = {'type', 'enum', 'oneOf', 'properties', 'patternProperties',
             'additionalProperties', 'required', 'items', 'prefixItems',
             'minItems', 'maxItems', '$schema', 'title'}


def _types(arg):
    return [arg] if isinstance(arg, str) else arg


def _is(value, name):
    if name == 'integer':
        if isinstance(value, float):
            return value.is_integer()
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def _audit(schema):
    """Raise SchemaError unless every subschema, whether the instance
    reaches it or not, keeps to the keywords and types implemented here."""
    if not isinstance(schema, dict):
        raise SchemaError(f"schema must be an object, got {schema!r}")
    for key, arg in schema.items():
        if key not in _KEYWORDS:
            raise SchemaError(f"unsupported schema keyword {key!r}")
        if key == 'type' and not set(_types(arg)) <= set(_TYPES):
            raise SchemaError(f"unsupported type in {arg!r}")
        if key == 'additionalProperties' and arg is not False:
            raise SchemaError("additionalProperties must be false")
        if key in ('properties', 'patternProperties'):
            subs = arg.values()
        elif key in ('oneOf', 'prefixItems'):
            subs = arg
        elif key == 'items':
            subs = [arg]
        else:
            subs = ()
        for sub in subs:
            _audit(sub)


def _fail(path, message):
    raise ValidationError(f"schema mismatch at {path or '/'}: {message}")


def _short(value):
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + '...'


def _matches(v, schema, path):
    try:
        _check(v, schema, path)
    except ValidationError:
        return False
    return True


def _plain(schema):
    """The exact types whose values pass `schema` at a glance: those of its
    scalar types when it has no other keyword, else none."""
    names = _types(schema['type']) if schema.keys() == {'type'} else ()
    return {_TYPES[n] for n in names if n not in ('object', 'array')}


def _check(v, schema, path):
    if isinstance(v, dict):
        for k in v:
            if not isinstance(k, str):
                _fail(path, f"key {_short(k)} is not a string")
    for key, arg in schema.items():
        if key == 'type':
            for name in _types(arg):
                if _is(v, name):
                    break
            else:
                _fail(path, f"{_short(v)} is not of type "
                            f"{' or '.join(_types(arg))}")
        elif key == 'enum':
            if not any(isinstance(v, bool) == isinstance(e, bool) and v == e
                       for e in arg):
                _fail(path, f"{_short(v)} is not one of {arg}")
        elif key == 'oneOf':
            n = sum(_matches(v, sub, path) for sub in arg)
            if n != 1:
                _fail(path, f"{_short(v)} matches {n} oneOf schemas, not 1")
        elif isinstance(v, dict):
            patterns = schema.get('patternProperties', {})
            if key == 'properties':
                for k, sub in arg.items():
                    if k in v:
                        _check(v[k], sub, f"{path}/{k}")
            elif key == 'patternProperties':
                for pattern, sub in arg.items():
                    for k in v:
                        if re.search(pattern, k):
                            _check(v[k], sub, f"{path}/{k}")
            elif key == 'additionalProperties':
                for k in v:
                    if k not in schema.get('properties', {}) and not any(
                            re.search(p, k) for p in patterns):
                        _fail(path, f"unexpected key {k!r}")
            elif key == 'required':
                for k in arg:
                    if k not in v:
                        _fail(path, f"missing key {k!r}")
        elif isinstance(v, (list, tuple)):
            if key == 'items':
                start = len(schema.get('prefixItems', ()))
                # one pass over the items' types; the walk names a bad item
                if not set(map(type, v[start:])) <= _plain(arg):
                    for i in range(start, len(v)):
                        _check(v[i], arg, f"{path}/{i}")
            elif key == 'prefixItems':
                for i, (item, sub) in enumerate(zip(v, arg)):
                    _check(item, sub, f"{path}/{i}")
            elif key == 'minItems' and len(v) < arg:
                _fail(path, f"{len(v)} items, fewer than {arg}")
            elif key == 'maxItems' and len(v) > arg:
                _fail(path, f"{len(v)} items, more than {arg}")


def validate(instance, schema):
    """Return None, or raise ValidationError naming the first mismatch.
    The whole schema is audited first (SchemaError)."""
    _audit(schema)
    _check(instance, schema, '')
