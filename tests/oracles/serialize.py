"""Whole-document oracle for ``xml_model.serialize_pieces``.

The canonical XML as ``serialize`` rendered it before the writer took it
a piece at a time: every line appended to one list, joined once. Kept
to check the pieces against.
"""

from bindery import xml_model


def serialize(book):
    xml_model.validate(book)
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<book>\n']
    xml_model._write_meta(out, book)
    xml_model._write_matter(out, "front", book.front)
    xml_model._write_matter(out, "back", book.back)
    if book.characters:
        out.append("  <characters>\n")
        for record in book.characters:
            xml_model._write_character(out, record)
        out.append("  </characters>\n")
    out.append("  <body>\n")
    for section in book.body:
        _write_section(out, section)
    out.append("  </body>\n</book>\n")
    return "".join(out)


def _write_section(out, section):
    out.append("    <section>\n")
    if section.header is not None:
        number = "" if section.header.number is None else f' n="{section.header.number}"'
        out.append(
            f'      <header kind="{section.header.kind}"{number}>'
            f"{xml_model._esc_text(section.header.text)}</header>\n")
    for paragraph in section.paragraphs:
        if paragraph.is_raw:
            out.append(
                f'      <p o="{paragraph.offset}">'
                f"{xml_model._esc_text(paragraph.raw)}</p>\n")
            continue
        out.append("      <p>\n")
        for sentence in paragraph.sentences:
            out.append("        <s>\n")
            for token in sentence.tokens:
                out.append(xml_model._token_line(token))
            out.append("        </s>\n")
        out.append("      </p>\n")
    out.append("    </section>\n")
