"""Line counts of the ljlayer source: `wc -l` and code-only lines per file.

A line counts as code when it holds a token other than a comment, a line
break, an indent change or a docstring.  Every string that makes up a whole
statement counts as a docstring, as the first statement of a module, class or
function does.

Usage: python tools/loc.py [SOURCE_DIR]   (default: src/ljlayer)
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that carry no code; NEWLINE, which ends a statement, is kept to find docstrings
_IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Lines of `path` holding a token that is neither layout nor part of a docstring."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _IGNORED]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        # a string that makes up a whole statement is a docstring
        if (tok.type == tokenize.STRING and tokens[i + 1].type == tokenize.NEWLINE
                and (i == 0 or tokens[i - 1].type == tokenize.NEWLINE)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "ljlayer"
    total_wc = total_code = 0
    print(f"{'file':<16}{'wc -l':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        wc = len(path.read_bytes().splitlines())
        code = code_lines(path)
        total_wc += wc
        total_code += code
        print(f"{path.name:<16}{wc:>8}{code:>8}")
    print(f"{'total':<16}{total_wc:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
