"""Property tests of the mesh and field reader against the reference token
reader kept here: numpy's C parser reads each number block, and whatever it
cannot vouch for goes to the reader's token walker, so every file must give
the arrays, or the exception class and message, that the reference gives."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jittered_mesh
from dcl0 import fem
from dcl0.fem import MeshFormatError, _validate, import_mesh, read_field

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=50)


def token_sections(text, sections):
    """The ``(count, width)`` arrays of the ``sections`` of a file's text,
    token by token."""
    tokens = text.split()
    pos = 0

    def take(count, dtype):
        nonlocal pos
        if pos + count > len(tokens):
            raise MeshFormatError("file ended prematurely")
        block = tokens[pos:pos + count]
        for token in block if dtype is int else ():
            try:
                value = int(token)
            except ValueError:
                break
            if not -2**63 <= value < 2**63:
                raise MeshFormatError(
                    f"bad value near token {pos}: {token} is beyond the "
                    "64-bit integer range")
        try:
            out = np.array(block, dtype=dtype)
        except ValueError as exc:
            raise MeshFormatError(f"bad value near token {pos}: {exc}") from exc
        pos += count
        return out

    arrays = []
    for word, width, dtype in sections:
        if pos >= len(tokens) or tokens[pos] != word:
            raise MeshFormatError(f"expected '{word}' at token {pos}")
        pos += 1
        count = int(take(1, int)[0])
        if count < 0:
            raise MeshFormatError(f"negative {word} count {count}")
        arrays.append(take(width * count, dtype).reshape(count, width))
    if pos != len(tokens):
        raise MeshFormatError(f"trailing data after the {word} section")
    return arrays


def finite_field(values):
    """``values`` flattened, or the error of the first non-finite one."""
    values = values.ravel()
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        raise MeshFormatError(f"field value {bad} is not finite: {values[bad]}")
    return values


def outcome(fn, *args):
    """What ``fn(*args)`` gives: its arrays' dtypes, shapes and bytes, or
    its exception's class and message."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, fem.TriMesh):
        result = (result.nodes, result.triangles, result.boundary_nodes,
                  result.areas)
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (result if isinstance(result, tuple) else (result,))]


#: whitespace of both parsers, and whitespace of Python's str.split alone
SPACE = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c",
                         " \n\t "])
ODD_SPACE = st.sampled_from(["\x1c", "\x1f", "\xa0", " "])


@st.composite
def real_spelling(draw, x):
    """A spelling of the float ``x``: its repr, 17 or 18 significant
    digits, a plus sign, and integral values as integers."""
    forms = [repr(x), f"{x:.17g}", f"{x:.16e}", f"{x:.17E}"]
    if x.is_integer() and abs(x) < 1e15:
        forms += [str(int(x)), f"{int(x)}.", f"{x:.1f}"]
    if not repr(x).startswith("-"):
        forms.append("+" + repr(x))
    return draw(st.sampled_from(forms))


@st.composite
def index_spelling(draw, i):
    return draw(st.sampled_from([str(i), "0" * draw(st.integers(1, 3)) + str(i),
                                 "+" + str(i)]))


def render(draw, tokens, odd=False):
    """``tokens`` joined by drawn whitespace, with drawn leading and
    trailing whitespace; ``odd`` lets Python-only whitespace in."""
    space = st.one_of(SPACE, ODD_SPACE) if odd else SPACE
    parts = [draw(st.sampled_from(["", "\n", "  "]))]
    for k, token in enumerate(tokens):
        if k:
            parts.append(draw(space))
        parts.append(token)
    parts.append(draw(st.sampled_from(["", "\n", "\n\n", " "])))
    return "".join(parts)


@st.composite
def mesh_tokens(draw):
    """The tokens of a valid mesh: a jittered n x n grid (n = 2, 3) or a
    single triangle with a subnormal, a negative zero and a small or huge
    scale."""
    if draw(st.booleans()):
        mesh = jittered_mesh(draw(st.integers(2, 3)),
                             seed=draw(st.integers(0, 5)))
        nodes, tris = mesh.nodes, mesh.triangles
    else:
        scale = draw(st.sampled_from([1e-5, 1.0, 1e16]))
        tiny = draw(st.sampled_from([5e-324, 2.2e-308]))
        nodes = np.array([[-0.0, tiny], [scale, -0.0], [0.0, scale]])
        tris = np.array([[0, 1, 2]])
    tokens = ["nodes", str(len(nodes))]
    tokens += [draw(real_spelling(float(x))) for x in nodes.ravel()]
    tokens += ["triangles", str(len(tris))]
    tokens += [draw(index_spelling(int(i))) for i in tris.ravel()]
    return tokens


#: tokens on which the C and Python parsers differ, or that no reader takes
BAD_TOKENS = ["0.5-0.3", "1_0", "1__0", "0x1p3", "0x10", "nan", "-inf",
              "inf", "1e999", "1.5", "2.0", "-1", "-", "+", "1e", ".", "1..2",
              "e5", "99999999999999999999", "-99999999999999999999",
              "9223372036854775807", "18446744073709551616", "x", "nodes",
              "triangles", "field", "١"]


#: the section keywords of mesh and field files
KEYWORDS = [word for word, _, _ in fem._MESH + fem._FIELD]


@st.composite
def malformed(draw, tokens):
    """``tokens`` with one drawn defect."""
    tokens = list(tokens)
    kind = draw(st.sampled_from(["replace", "truncate", "trailing", "fuse",
                                 "negative-count", "drop"]))
    k = draw(st.integers(0, len(tokens) - 1))
    if kind == "replace":
        tokens[k] = draw(st.sampled_from(BAD_TOKENS))
    elif kind == "truncate":
        del tokens[k:]
    elif kind == "trailing":
        tokens.append(draw(st.sampled_from(["7", "0", "x", "0.5"])))
    elif kind == "fuse" and k + 1 < len(tokens):
        tokens[k:k + 2] = [tokens[k] + tokens[k + 1]]
    elif kind == "negative-count":
        counts = [i + 1 for i, t in enumerate(tokens) if t in KEYWORDS]
        tokens[counts[k % len(counts)]] = "-2"
    else:
        del tokens[k]
    return tokens


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    """One file that every example overwrites."""
    return tmp_path_factory.mktemp("text_io") / "file.txt"


def check_mesh(path, text):
    path.write_bytes(text.encode())
    expected = outcome(lambda: _validate(*token_sections(text, fem._MESH)))
    assert outcome(import_mesh, path) == expected
    return expected


def check_field(path, text):
    path.write_bytes(text.encode())
    expected = outcome(
        lambda: finite_field(*token_sections(text, fem._FIELD)))
    assert outcome(read_field, path) == expected
    return expected


class TestMeshReader:
    @PROPERTY
    @given(data=st.data())
    def test_valid_layouts_read_bit_identically(self, scratch_file, data):
        tokens = data.draw(mesh_tokens())
        text = render(data.draw, tokens, odd=data.draw(st.booleans()))
        assert isinstance(check_mesh(scratch_file, text), list)

    @PROPERTY
    @given(data=st.data())
    def test_malformed_files_raise_the_token_error(self, scratch_file, data):
        tokens = data.draw(malformed(data.draw(mesh_tokens())))
        check_mesh(scratch_file, render(data.draw, tokens))

    def test_written_meshes_take_the_c_parser(self, tmp_path):
        path = tmp_path / "mesh.txt"
        mesh = jittered_mesh(12, seed=2)
        fem.export_mesh(mesh, path)
        nodes, tris = fem._c_sections(path.read_bytes(), fem._MESH)
        assert np.array_equal(nodes, mesh.nodes)
        assert np.array_equal(tris, mesh.triangles)
        assert tris.dtype == np.array([0]).dtype

    def test_keyword_joined_to_a_number_ends_no_block(self):
        # the token walker reads "1triangles" as one bad node value
        data = b"nodes 3\n0 0\n1 0\n0 1triangles 1\n0 1 2\n"
        assert fem._c_sections(data, fem._MESH) is None
        assert fem._c_sections(data.replace(b"1tri", b"1 tri"),
                               fem._MESH) is not None

    def test_whitespace_block_is_no_number(self):
        # numpy reads a block of whitespace alone as one number (-1.0)
        assert fem._block_values(b" \n", float, 1) is None
        assert fem._block_values(b" \n", int, 1) is None
        assert fem._block_values(b" \n", float, 0).size == 0

    def test_lone_sign_is_no_index(self):
        # numpy joins a lone sign to the next integer: "1 - 2" -> [1, -2];
        # index blocks take no sign, and the token count differs as well
        assert fem._block_values(b"1 - 2", int, 2) is None
        assert fem._block_values(b"1 -2", int, 2) is None

    def test_saturated_index_goes_to_the_token_reader(self):
        assert fem._block_values(b"0 99999999999999999999", int, 2) is None


class TestFieldReader:
    @PROPERTY
    @given(data=st.data())
    def test_valid_layouts_read_bit_identically(self, scratch_file, data):
        values = data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), max_size=12))
        tokens = ["field", str(len(values))]
        tokens += [data.draw(real_spelling(v)) for v in values]
        text = render(data.draw, tokens, odd=data.draw(st.booleans()))
        assert isinstance(check_field(scratch_file, text), list)

    @PROPERTY
    @given(data=st.data())
    def test_malformed_files_raise_the_token_error(self, scratch_file, data):
        values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1,
                                    max_size=6))
        tokens = ["field", str(len(values))] + [repr(v) for v in values]
        tokens = data.draw(malformed(tokens))
        check_field(scratch_file, render(data.draw, tokens))

    def test_written_fields_take_the_c_parser(self, tmp_path):
        path = tmp_path / "field.txt"
        values = np.random.default_rng(4).standard_normal(50)
        fem.write_field(path, values)
        parsed, = fem._c_sections(path.read_bytes(), fem._FIELD)
        assert parsed.shape == (50, 1)
        assert np.array_equal(parsed.ravel(), values)

    def test_reading_ignores_the_locale(self, tmp_path):
        # U+00A0 is whitespace to str.split; an ASCII locale cannot decode it
        path = tmp_path / "field.txt"
        path.write_bytes("field 2\n1.0\u00a02.0\n".encode())
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(fem.__file__).parents[1]))
        script = ("import sys; from dcl0.fem import read_field; "
                  "print(read_field(sys.argv[1]).tolist())")
        result = subprocess.run([sys.executable, "-c", script, str(path)],
                                env=env, capture_output=True, text=True,
                                timeout=60)
        assert read_field(path).tolist() == [1.0, 2.0]
        assert (result.returncode, result.stdout) == (0, "[1.0, 2.0]\n")
