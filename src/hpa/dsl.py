"""Line-oriented quiver description language.

    # comment
    vertices: v0 v1 v2
    arrows:
      x: v0 -> v1
      y: v0 -> v1
    relations:
      x y' = y x'

Section headers may carry content on the same line ("arrows: a: v0->v1").
Identifiers are runs of characters excluding whitespace, '#', ':' and '=';
the token '->' is reserved.  Words are whitespace-separated arrow labels in
concatenation order (left to right).
"""

import re

from . import UsageError
from .quiver import CycleError, PathWord, Quiver, QuiverError
from .algebra import RelationSet, RelationError


class ParseError(UsageError):
    def __init__(self, message, line):
        self.line = line
        super().__init__(f"line {line}: {message}")


_ID_BAD = set(' \t:#=')


def _valid_id(tok):
    return tok and tok != '->' and not (set(tok) & _ID_BAD)


def parse_quiver(text):
    """Parse a DSL document into (Quiver, RelationSet)."""
    vertices = []
    arrow_specs = []       # (label, tail, head, line)
    relation_specs = []    # (list of label tuples, line)
    section = None

    seen_vertices = set()
    seen_labels = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        m = re.match(r'^(vertices|arrows|relations)\s*:\s*(.*)$', line)
        if m:
            # section headers win over arrow labels named like them
            section = m.group(1)
            line = m.group(2).strip()
            if not line:
                continue
        if section is None:
            raise ParseError(f"content before any section: {line!r}", lineno)
        if section == 'vertices':
            for tok in line.split():
                if not _valid_id(tok):
                    raise ParseError(f"bad vertex name {tok!r}", lineno)
                if tok in seen_vertices:
                    raise ParseError(f"duplicate vertex {tok!r}", lineno)
                seen_vertices.add(tok)
                vertices.append(tok)
        elif section == 'arrows':
            am = re.match(r'^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$', line)
            if not am:
                raise ParseError(f"bad arrow line {line!r} "
                                 "(want 'label: tail -> head')", lineno)
            label, tail, head = am.groups()
            for tok in (label, tail, head):
                if not _valid_id(tok):
                    raise ParseError(f"bad identifier {tok!r}", lineno)
            if label in seen_labels:
                raise ParseError(f"duplicate arrow label {label!r}", lineno)
            seen_labels.add(label)
            arrow_specs.append((label, tail, head, lineno))
        elif section == 'relations':
            sides = line.split('=')
            words = [tuple(s.split()) for s in sides]
            if len(words) < 2 or not all(words):
                raise ParseError(f"bad relation line {line!r} "
                                 "(want 'word = word [= word ...]')", lineno)
            # split on '#', '=' and whitespace, a label can only be bad
            # through ':' or by being the token '->'
            if ':' in line or '->' in line:
                for s, labels in zip(sides, words):
                    if not all(_valid_id(t) for t in labels):
                        raise ParseError(f"bad word {s.strip()!r}", lineno)
            relation_specs.append((words, lineno))

    try:
        quiver = Quiver(vertices, [(l, t, h) for l, t, h, _ in arrow_specs])
    except CycleError as e:
        # the line of the first declared arrow on the cycle
        steps = set(zip(e.cycle, e.cycle[1:]))
        raise ParseError(str(e), next(
            lineno for _, tail, head, lineno in arrow_specs
            if (tail, head) in steps))
    except QuiverError:
        # re-raise with a line number when it is attributable to one arrow
        for label, tail, head, lineno in arrow_specs:
            if tail not in vertices or head not in vertices:
                raise ParseError(f"unknown vertex in arrow {label!r}", lineno)
        raise

    # each word takes the tail of its first arrow and the head of its last;
    # RelationSet walks it, once, to check that it composes
    arrow = quiver.arrow_by_label
    try:
        return quiver, RelationSet(quiver, [
            [PathWord(arrow[w[0]].tail, arrow[w[-1]].head, w) for w in words]
            for words, _ in relation_specs])
    except (KeyError, QuiverError, RelationError) as e:
        # name the first line whose words do not compose (an unknown label
        # among them) or do not share their endpoints, else the group's error
        for words, lineno in relation_specs:
            try:
                parsed = [quiver.word_from_labels(labels) for labels in words]
            except QuiverError as err:
                raise ParseError(str(err), lineno)
            t, h = parsed[0].tail, parsed[0].head
            for w in parsed[1:]:
                if (w.tail, w.head) != (t, h):
                    raise ParseError(
                        "relation endpoints mismatch: "
                        f"{' '.join(parsed[0].labels)} is {t}->{h} but "
                        f"{' '.join(w.labels)} is {w.tail}->{w.head}", lineno)
        raise ParseError(str(e), relation_specs[e.group][1])


def emit_quiver(quiver, relations=None):
    """Render a Quiver (+ optional RelationSet) back into the DSL.  Output is
    stable: declaration order is preserved."""
    lines = ["vertices: " + ' '.join(quiver.vertices)]
    if quiver.arrows:
        lines.append("arrows:")
        for a in quiver.arrows:
            lines.append(f"  {a.label}: {a.tail} -> {a.head}")
    if relations is not None and len(relations):
        lines.append("relations:")
        for g in relations.groups:
            lines.append("  " + ' = '.join(' '.join(w.labels) for w in g))
    return '\n'.join(lines) + '\n'
