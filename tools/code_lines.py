"""Count the code lines of Python files: docstrings, comments and blank
lines left out.

    python tools/code_lines.py src/rmcdp/*.py

prints each file's count, then the total.
"""

import ast, io, sys, tokenize
layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
total = 0
for path in sys.argv[1:]:
    text = open(path).read()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    total += len(code - docs)
    print(f"{len(code - docs):6d} {path}")
print(f"{total:6d} total")
