"""Token-walk oracle for ``pipeline.body_text_of``.

The body text reconstruction as it was before it shared its offset walk
with ``pipeline.to_raw_stage``: raw paragraphs joined by a blank line, or
else every header and token written at its offset into a buffer of
spaces. Kept to check the shared walk against.
"""


def body_text_of(book):
    raws = [p.raw for p in book.iter_paragraphs() if p.is_raw]
    if raws:
        return "\n\n".join(raws)
    pieces = []
    cursor = 0
    for section in book.body:
        if section.header is not None:
            offset = cursor + 2 if cursor > 0 else 0
            pieces.append((offset, section.header.text))
            cursor = offset + len(section.header.text)
        for paragraph in section.paragraphs:
            for sentence in paragraph.sentences:
                for token in sentence.tokens:
                    pieces.append((token.offset, token.text))
                    cursor = max(cursor, token.offset + len(token.text))
    if not pieces:
        return ""
    buffer = [" "] * cursor
    for offset, text in pieces:
        buffer[offset:offset + len(text)] = text
    return "".join(buffer)
