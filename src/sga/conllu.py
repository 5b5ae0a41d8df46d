"""Read dependency parses from CoNLL-U text.

Only the ID, FORM, HEAD and DEPREL columns are consumed. Multiword-token
ranges (``3-4``) and empty nodes (``5.1``) are skipped; enhanced dependency
graphs are out of scope. Parsing itself happens upstream -- this module
ingests its output.

All functions here are pure over immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, StructureError


@dataclass(frozen=True)
class Edge:
    head: int
    dependent: int
    label: str


@dataclass(frozen=True)
class DependencyTree:
    """Words of one sentence (1-based indices) plus labeled head->dependent edges."""

    forms: tuple[str, ...]
    edges: tuple[Edge, ...]
    root_index: int

    @property
    def n(self) -> int:
        return len(self.forms)

    def form(self, index: int) -> str:
        return self.forms[index - 1]


# ASCII digits only: str.isdigit and int() also take digits such as '²'.
_TOKEN_ID = re.compile(r"[0-9]+")
_HEAD = re.compile(r"-?[0-9]+")
# Multiword-token ranges (3-4) and empty nodes (5.1) carry no tree structure.
_SKIPPED_ID = re.compile(r"[0-9]+[-.][0-9]+")


def _finish_sentence(rows, sent_index: int, first_line: int) -> DependencyTree:
    ident = f"sentence {sent_index} (starting at line {first_line})"
    forms = tuple(form for _, form, _, _ in rows)
    n = len(forms)
    roots = [tid for tid, _, head, _ in rows if head == 0]
    if len(roots) != 1:
        raise StructureError(
            f"{ident}: expected exactly one root token, found {len(roots)}"
        )
    edges = []
    for tid, _, head, deprel in rows:
        if head == tid:
            raise StructureError(f"{ident}: token {tid} is its own head")
        if head > n or head < 0:
            raise StructureError(f"{ident}: token {tid} has head {head} out of range")
        if head != 0:
            edges.append(Edge(head=head, dependent=tid, label=deprel))
    tree = DependencyTree(forms=forms, edges=tuple(edges), root_index=roots[0])

    # Every word must hang off the root. Each token has one head, so the walk
    # meets it at most once, and the tokens of a cycle are unreachable.
    children: dict[int, list[int]] = {}
    for edge in tree.edges:
        children.setdefault(edge.head, []).append(edge.dependent)
    reached = [tree.root_index]
    for node in reached:  # grows as the walk goes
        reached.extend(children.get(node, ()))
    if len(reached) != n:
        raise StructureError(
            f"{ident}: {n - len(reached)} token(s) unreachable from the root (cycle)"
        )
    return tree


def read_conllu(text: str) -> list[DependencyTree]:
    """Parse CoNLL-U text into one DependencyTree per sentence.

    Sentences are blank-line separated; comment lines start with '#'.
    Token lines must carry 10 tab-separated columns with ASCII-integer ID and
    HEAD and a non-empty DEPREL other than the reserved ``self``. Errors name
    the offending line or sentence.
    """
    trees: list[DependencyTree] = []
    rows: list[tuple[int, str, int, str]] = []
    first_line = 0

    def finish():
        nonlocal rows
        if rows:
            expected = list(range(1, len(rows) + 1))
            if [r[0] for r in rows] != expected:
                raise StructureError(
                    f"sentence {len(trees) + 1} (starting at line {first_line}): "
                    f"token ids are not 1..{len(rows)}"
                )
            trees.append(_finish_sentence(rows, len(trees) + 1, first_line))
            rows = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            finish()
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(
                f"expected 10 tab-separated columns, found {len(cols)}", line=lineno
            )
        token_id, form, head, deprel = cols[0], cols[1], cols[6], cols[7]
        if _SKIPPED_ID.fullmatch(token_id):
            continue
        if not _TOKEN_ID.fullmatch(token_id):
            raise ParseError(f"ID is not an integer: {token_id!r}", line=lineno)
        if not rows:
            first_line = lineno
        if head in ("", "_"):
            raise ParseError("missing HEAD field", line=lineno)
        if not _HEAD.fullmatch(head):
            raise ParseError(f"HEAD is not an integer: {head!r}", line=lineno)
        if deprel in ("", "_"):
            raise ParseError("missing DEPREL field", line=lineno)
        if deprel == "self":
            raise ParseError("DEPREL 'self' is reserved for self-loops", line=lineno)
        if not form:
            raise ParseError("empty FORM field", line=lineno)
        rows.append((int(token_id), form, int(head), deprel))
    finish()
    return trees


def to_conllu(tree: DependencyTree) -> str:
    """Serialize the columns this package consumes (ID, FORM, HEAD, DEPREL)."""
    head_of = {e.dependent: e for e in tree.edges}
    lines = []
    for i, form in enumerate(tree.forms, start=1):
        edge = head_of.get(i)
        head = 0 if edge is None else edge.head
        deprel = "root" if edge is None else edge.label
        lines.append(f"{i}\t{form}\t_\t_\t_\t_\t{head}\t{deprel}\t_\t_")
    return "\n".join(lines) + "\n"
