"""recordkit's one JSON layout, ``json.dumps(doc, indent=2, sort_keys=True)
+ "\\n"`` byte for byte (keys are strings), without json's pure-Python
indent encoder: each dict fills one ``%`` template per shape, and a dict of
floats is filled by ``float.__repr__``, json's text for a finite float."""

import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter


def dumps(doc) -> str:
    """The JSON text of ``doc``, as the module docstring says."""
    return _text(doc, 0, {}) + "\n"


def _text(o, depth: int, rows: dict) -> str:
    """JSON text of ``o`` at ``depth``. ``rows`` maps a dict shape to its
    template, values getter and, if its first dict held floats, texts."""
    if isinstance(o, dict):
        shape = (depth, *o)
        if shape not in rows:
            keys = sorted(o)
            pad = "\n" + "  " * (depth + 1)
            body = ",".join(pad + encode_basestring_ascii(k).replace(
                "%", "%%") + ": %s" for k in keys)
            rows[shape] = (
                "{%s\n%s}" % (body, "  " * depth) if keys else "{}",
                itemgetter(*keys) if len(keys) > 1
                else lambda d: tuple(map(d.__getitem__, keys)),
                {} if all(type(v) is float for v in o.values()) else None)
        template, values, texts = rows[shape]
        vals = values(o)
        if texts is not None:
            ids = tuple(map(id, vals))  # the doc keeps its values alive
            text = texts[ids] = texts.get(ids) or _floats(template, vals)
            if text:
                return text
        return template % tuple([_text(v, depth + 1, rows) for v in vals])
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _floats("%s", (o,)) or json.dumps(o)
    if isinstance(o, (list, tuple)):
        pad = "\n" + "  " * (depth + 1)
        items = ("," + pad).join([_text(v, depth + 1, rows) for v in o])
        return "[%s%s\n%s]" % (pad, items, "  " * depth) if o else "[]"
    raise TypeError("%r is not JSON serializable" % (o,))


def _floats(template: str, vals: tuple):
    """``template`` filled by ``float.__repr__`` (which raises on any other
    type), or None if a value is no finite float (spelt nan or inf)."""
    try:
        text = template % tuple(map(float.__repr__, vals))
    except TypeError:
        return None
    return None if "nan" in text or "inf" in text else text
