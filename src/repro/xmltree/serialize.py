"""Serializing trees back to text forms.

The writers take any tree whose nodes carry ``label`` and ``children``
and, where present, a leaf ``value``: an :class:`~repro.xmltree.tree.XMLTree`
and a :class:`~repro.engine.nesting.NestingTree` go through the same
functions.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import TYPE_CHECKING, List, Union

from repro.xmltree.tree import XMLTree

if TYPE_CHECKING:
    from repro.engine.nesting import NestingTree


def to_etree(tree: Union[XMLTree, NestingTree]) -> ET.Element:
    """Convert a tree to an ``xml.etree`` Element tree.

    Leaf values (if the tree carries any, see the values extension) are
    emitted as text content.
    """
    root = ET.Element(tree.root.label)
    root.text = getattr(tree.root, "value", None)
    stack: List[tuple] = [(tree.root, root)]
    while stack:
        src, dst = stack.pop()
        for child in src.children:
            sub = ET.SubElement(dst, child.label)
            sub.text = getattr(child, "value", None)
            stack.append((child, sub))
    return root


def _escape(text: str) -> str:
    # ElementTree's character-data escaping, in its order.
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def to_xml(tree: Union[XMLTree, NestingTree]) -> str:
    """Serialize to XML text (no declaration, UTF-8 safe labels assumed).

    One iterative pre-order pass over ``tree.root``; closing tags wait on
    the same stack as the nodes still to open.  The text is exactly
    ``ET.tostring(to_etree(tree), encoding="unicode")``.  A ``{uri}local``
    label is ElementTree's namespace form, which it rewrites into
    prefixes and ``xmlns`` declarations, so such a tree is handed to
    ElementTree whole.
    """
    parts: List[str] = []
    stack: list = [tree.root]
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
            continue
        label = node.label
        if label[:1] == "{":
            return ET.tostring(to_etree(tree), encoding="unicode")
        text = getattr(node, "value", None)
        if text or node.children:
            parts.append("<" + label + ">")
            if text:
                parts.append(_escape(text))
            stack.append("</" + label + ">")
            stack.extend(reversed(node.children))
        else:
            parts.append("<" + label + " />")
    return "".join(parts)


def to_compact(tree: XMLTree, indent: int = 1) -> str:
    """Serialize to the compact one-node-per-line form.

    The inverse of :func:`repro.xmltree.parser.parse_compact` (up to the
    indent step size).
    """
    lines: List[str] = []
    stack: List[tuple] = [(tree.root, 0)]
    while stack:
        node, level = stack.pop()
        lines.append(" " * (indent * level) + node.label)
        for child in reversed(node.children):
            stack.append((child, level + 1))
    return "\n".join(lines)


def xml_byte_size(tree: XMLTree) -> int:
    """Size in bytes of the document serialized as XML text.

    Used by the experiment harness for the paper's Table 1 "File Size"
    column.
    """
    return len(to_xml(tree).encode("utf-8"))
