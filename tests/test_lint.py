"""Static checks over the source of src/simtlab."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "simtlab"


def einsum_contracts(subscripts: str) -> bool:
    """True when some input index of an einsum is summed away, i.e. missing from its output."""
    spec = subscripts.replace(" ", "").replace("...", "")
    inputs, arrow, output = spec.partition("->")
    letters = inputs.replace(",", "")
    if not arrow:  # implicit output: the indices that appear once
        output = [c for c in letters if letters.count(c) == 1]
    return any(c not in output for c in letters)


def contraction_problems(source: str, name: str) -> list:
    """One line per einsum call in ``source`` that contracts or cannot be checked."""
    problems = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call)
                and "einsum" in (getattr(func, "attr", None), getattr(func, "id", None))):
            continue
        arg = node.args[0] if node.args else None
        where = f"{name}:{node.lineno}"
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            problems.append(f"{where}: subscripts are not a literal string")
        elif einsum_contracts(arg.value):
            problems.append(f"{where}: {arg.value!r} is a contraction")
    return problems


def test_no_einsum_contraction_in_src():
    """Unoptimised einsum contractions skip BLAS; at the visual projection's shapes
    they were measured about 10x slower than one GEMM, so write them as matmuls."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        problems += contraction_problems(path.read_text(encoding="utf-8"), path.name)
    assert not problems, "\n".join(problems)


def test_contraction_check_tells_contractions_from_outer_products():
    assert not einsum_contracts("bs,bd->bsd")    # _sum_outer's outer product
    assert not einsum_contracts("ii->i")         # a diagonal sums nothing
    assert not einsum_contracts("...i,...j->...ij")
    assert einsum_contracts("brd,dk->brk")
    assert einsum_contracts("brd,brk->dk")
    assert einsum_contracts("ij,jk")             # implicit output drops the repeated j
    assert einsum_contracts("ii")                # implicit trace
    assert not einsum_contracts("ij")

    source = ("import numpy as np\n"
              "from numpy import einsum\n"
              "a = np.einsum('bs,bd->bsd', x, y)\n"
              "b = np.einsum('brd,dk->brk', x, w)\n"
              "c = einsum(spec, x)\n")
    assert contraction_problems(source, "m.py") == [
        "m.py:4: 'brd,dk->brk' is a contraction",
        "m.py:5: subscripts are not a literal string"]
