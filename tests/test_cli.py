"""CLI contract: values, formats, determinism and exit codes."""

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import multiport
from multiport import cli, device, exact
from multiport.cli import build_parser, main, parse_complex, to_json
from multiport.errors import ConfigError
from multiport.matrices import Matrix

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "multiport/1"
    return payload


def _walk_code(capsys, tmp_path, walk, mode="float"):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps({"walk": walk}))
    return run_cli(capsys, "walk", "--config", str(path), "--mode", mode)


def test_parse_complex_forms():
    assert parse_complex("0.5+0.5i") == 0.5 + 0.5j
    assert parse_complex("-i") == -1j
    assert parse_complex("1@1.5707963267948966") == pytest.approx(1j)
    assert parse_complex([0.1, -0.2]) == 0.1 - 0.2j
    assert parse_complex("1+i") == 1 + 1j
    assert parse_complex("inf") == complex(math.inf, 0)
    assert parse_complex("-inf") == complex(-math.inf, 0)
    assert parse_complex("infi") == complex(0, math.inf)
    assert math.isnan(parse_complex("nan").real)
    with pytest.raises(ConfigError):
        parse_complex("wat")
    with pytest.raises(ConfigError):
        parse_complex("1i+2")


def test_exits_exact_matches_reference_table(capsys):
    payload = run_json(
        capsys, "exits", "--n", "3", "--input", "A", "--steps", "10", "--mode", "exact"
    )
    rows = payload["data"]["rows"]
    by_n = {r["n"]: r for r in rows}
    assert by_n[2]["amplitudes"][0]["im"] == {}
    assert by_n[2]["amplitudes"][1]["im"] == {"rational": [1, 2]}
    assert by_n[4]["amplitudes"][0]["im"] == {"rational": [-1, 2]}
    assert by_n[10]["amplitudes"][2]["im"] == {"rational": [-1, 32]}
    assert by_n[4]["cumulative_probability"]["rational"] == [7, 8]
    assert by_n[10]["cumulative_probability"]["approx"] == pytest.approx(0.998046875)
    for n in (1, 3, 5, 7, 9):
        assert all(a["im"] == {} and a["re"] == {} for a in by_n[n]["amplitudes"])


def test_exits_input_b_is_cyclic_permutation(capsys):
    a = run_json(capsys, "exits", "--input", "A", "--steps", "8", "--mode", "exact")
    b = run_json(capsys, "exits", "--input", "B", "--steps", "8", "--mode", "exact")
    for row_a, row_b in zip(a["data"]["rows"], b["data"]["rows"]):
        for port in range(3):
            assert row_b["amplitudes"][(port + 1) % 3] == row_a["amplitudes"][port]


def test_exits_csv_one_row_per_step_and_port(capsys):
    code, out, _err = run_cli(
        capsys, "exits", "--steps", "6", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,port,re,im,step_probability,cumulative_probability"
    assert len(lines) == 1 + 6 * 3
    n4b = [l for l in lines if l.startswith("4,B")][0]
    assert float(n4b.split(",")[3]) == pytest.approx(0.25)


def test_output_is_byte_stable(capsys):
    one = run_cli(capsys, "bell-table", "--mode", "exact")
    two = run_cli(capsys, "bell-table", "--mode", "exact")
    assert one == two
    c1 = run_cli(capsys, "exits", "--steps", "8", "--format", "csv")
    c2 = run_cli(capsys, "exits", "--steps", "8", "--format", "csv")
    assert c1 == c2


# sha256 of the exact-mode stdout of each command, in JSON and CSV.  Exact
# output is ints plus correctly rounded floats, so these bytes are the
# same on every IEEE-754 machine; a change to them is a change of output.
_EXACT_DIGESTS = [
    (("exits",), "json",
     "fc7bc16b21658b10a7526aad13d0fe196ba92b9604229d355e11abe65e860e44"),
    (("paths", "--length", "6"), "json",
     "e4d3a3c3ded3f6b457513382064ab7b97b9b884c784aa08d2ff57a3c5116640d"),
    (("unitary", "--n", "3"), "json",
     "275b8fbf950bd9355c30be6b80159e0ea9663b999327ecead9cb097c906a9e8d"),
    (("unitary", "--n", "6"), "json",
     "7cedf7ef7f0ee2f9751d941d9f8a3ed23b4b61ad9877d2eeaae72b69ccc55420"),
    (("unitary", "--n", "7"), "json",
     "7a9cb91ecd4a141b786780e93b91d4e4b96b761992a259acfaed92371d848734"),
    (("bell-table",), "json",
     "0ceb031c0e23312b8815671d9394cb9d479fb5d12eaba1bc12be0a226bcab18e"),
    (("group-table", "--condition", "s"), "json",
     "7878f6c3f3f5d26dd35feb862a11e7d707f5bf9c3b3ebf4b077adc1e3cfc6882"),
    (("group-table", "--condition", "o"), "json",
     "cc2c20a6d85e43bb230e75abdf7de582d5f0a6a82b57a88f5af3ec888e7970a0"),
    (("cnot",), "json",
     "3dce32867523e72042c7c615ead6b347ab661b04bb52eb7d4eec1f3560dcd985"),
    (("exits",), "csv",
     "9f7162cc0c7e2e3d35437a4cadcd318e4c77f92620c6b162d53749e4dcf59d1f"),
    (("paths", "--length", "6"), "csv",
     "cc5ba5ab46939d36ccd7ff6cbc615842b43e279fd34b1da1a8370caa6d690867"),
    (("unitary", "--n", "3"), "csv",
     "c7a51ed9876704d8cffd2f364665c9bfb91b26883185cd379f19fe3b47d80ad9"),
    (("unitary", "--n", "6"), "csv",
     "7c297f6cbdeabb02b17b0932ab186659c70ad8b4f99dd4ca95a564cedc515a19"),
    (("unitary", "--n", "7"), "csv",
     "0bc54dd37df3e0925b69182851ed80f0983b63a34de5501d1d3b6a4622a92d93"),
    (("bell-table",), "csv",
     "9b4a14b882619389ae897d70a87d13241f838f16cc257367c2988c2817492e9e"),
    (("group-table", "--condition", "s"), "csv",
     "62935f537a5dfed26c3f084b76d3c7a68a78d845bc5f8e1374ef89d75225a7b6"),
    (("group-table", "--condition", "o"), "csv",
     "29739b34ff4b3da6fc99e436956b784b27d10e218075d7e948f25724678daa0a"),
    (("cnot",), "csv",
     "732f7efb6654268a17e6e1d46c1e5c5adc62bd3099e124033f027c1ce2c2f5a0"),
]


@pytest.mark.parametrize("argv, fmt, digest", _EXACT_DIGESTS)
def test_exact_output_matches_recorded_digest(capsys, argv, fmt, digest):
    code, out, err = run_cli(capsys, *argv, "--mode", "exact", "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of more exact stdout: every exact walk config, a 4-port device
# with pi/4 mirror and edge phases (written by the test as PHASED_DEVICE),
# a long exit table and more exact long-time matrices.  "{device}" stands
# for that config's path.
PHASED_DEVICE = {"device": {"n": 4, "mirror_phase": [k * math.pi / 4 for k in (1, 2, 5, 7)],
                            "edge_phase": [k * math.pi / 4 for k in (3, 0, 6, 1)]}}
_MORE_EXACT_DIGESTS = [
    (("walk", "--config", os.path.join(CONFIG_DIR, "walk_single_triport.json")), "json",
     "3459eb64e1d482df90fbb412cc92a0bcbdafe9a4e90bd83d60aa09840fac5ad4"),
    (("walk", "--config", os.path.join(CONFIG_DIR, "walk_single_triport.json")), "csv",
     "484f93d14f79204855240a94af5458f52d141b69893b4742fdc269e7903d355e"),
    (("walk", "--config", os.path.join(CONFIG_DIR, "walk_triangle_ideal.json")), "json",
     "6474c4feccf75efe66017aa0ca0c7a43eee529676bd093f75123ca5631e3c17e"),
    (("walk", "--config", os.path.join(CONFIG_DIR, "walk_triangle_ideal.json")), "csv",
     "73c05012e51f1722f471e39241a24991c55437b8e6d7728f2afa01c550899edc"),
    (("walk", "--config", os.path.join(CONFIG_DIR, "walk_two_triports.json")), "json",
     "ddfaf1f1153b32c9aea6742c30ac2fcaeaacae20b33d08c2262a3a0015bfd2ce"),
    (("walk", "--config", os.path.join(CONFIG_DIR, "walk_two_triports.json")), "csv",
     "93ef93abc3e1d538dd2492caed1cf7155a706e81c25057aa76c1dbe734b81b8b"),
    (("exits", "--config", "{device}", "--input", "B", "--steps", "12"), "json",
     "feaad86130873f083e3be78a7a339b89cb6131c089904faba1341b4eabcb44f2"),
    (("exits", "--config", "{device}", "--input", "B", "--steps", "12"), "csv",
     "6ccb93af4e798d702e7168801b40cb24f6eb6df0e9f2f0e15c7a6a77bb28267b"),
    (("paths", "--config", "{device}", "--input", "A", "--exit", "C", "--length", "8"), "json",
     "124e263165b6bdb43aef0182e0775240829e31d55982502e457385f2ca81c41c"),
    (("paths", "--config", "{device}", "--input", "A", "--exit", "C", "--length", "8"), "csv",
     "d3c871a8331a0ce9d3f319ea95781583b46c91a6bb1ed8547974c4de4409f124"),
    (("exits", "--steps", "40"), "json",
     "6165f0400be768646f9c9bdeb3c51031e4531fcd6edfde261524440b2ddf1e45"),
    (("exits", "--steps", "40"), "csv",
     "08b8b18e779f22e3c7316e66bdcbd826888ca6bcfa976f2525e64d8d275cc3cd"),
    (("unitary", "--n", "4"), "json",
     "77a80ad934fa652c55c37874f022f178cee18750b19ce778b7dd5ad4ea631569"),
    (("unitary", "--n", "4"), "csv",
     "e9ed6cee107b9893ca93af075568b7217a83ef752913931c638c826d29990669"),
    (("unitary", "--n", "5"), "json",
     "4fa89f377d66089ca84f8f4cd18a4c01b2b5dbf3645d2a502b41f55de61276f7"),
    (("unitary", "--n", "5"), "csv",
     "dc51d8b3e6ceb1f260a3a4dea74bebd223e843bf3c896fdff4d9f2a6056350c0"),
    (("unitary", "--n", "8"), "json",
     "f102980950a6eff10c7ce8b076fbeeb6a6540ab19fffb96893ac2af3dcf977ce"),
    (("unitary", "--n", "8"), "csv",
     "b4ded64709d7e7d8ba531277ac3818489bd8b2fc1301466ee390054b186935e7"),
    (("unitary", "--config", "{device}"), "json",
     "25c0e8aa04475f81bc19d31cd579c35cc4471429ccbb2b7a855fd84a8aa3bb03"),
    (("unitary", "--config", "{device}"), "csv",
     "42f025d564f3a64d7de5e98ef8c1590d0576d1b3d21df8dd49d350eb34f890e6"),
]


@pytest.mark.parametrize("argv, fmt, digest", _MORE_EXACT_DIGESTS)
def test_more_exact_output_matches_recorded_digest(capsys, tmp_path, argv, fmt, digest):
    path = tmp_path / "device.json"
    path.write_text(json.dumps(PHASED_DEVICE))
    argv = [str(path) if a == "{device}" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--mode", "exact", "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _as_lists(obj):
    """``obj`` with each ndarray replaced by its ``tolist()``, every
    complex entry as [re, im]: what ``to_json`` writes for it."""
    if isinstance(obj, np.ndarray):
        return _as_lists(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


_ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.complex128]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2 ** 64, 2 ** 200).map(lambda i: -i),
    st.integers(2 ** 64, 2 ** 200), st.floats(), st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]), st.text(), _ARRAYS,
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(payload=_PAYLOADS)
def test_writer_equals_json_dumps(payload):
    """The stdout writer is ``json.dumps(indent=2, sort_keys=True)`` byte
    for byte: empty and nested containers, tuples, any string, NaN,
    +-Infinity, -0.0, huge ints, bools, np.float64, and float and complex
    arrays (0-length axes and non-finite entries included) as their lists."""
    assert to_json(payload) == json.dumps(_as_lists(payload), indent=2, sort_keys=True)


# The exact encodings as dicts, as the CLI built them before ``to_json``
# wrote exact scalars from their integers: the reference that writer must
# match byte for byte, with each coefficient a Fraction and the text built
# from those Fractions.
_COEFFICIENT_NAMES = ("rational", "sqrt2", "sqrt3", "sqrt6")


def _reference_text(value):
    def part(quad):
        pieces = []
        for coeff, name in zip(quad, ("", "*sqrt2", "*sqrt3", "*sqrt6")):
            if coeff:
                if not pieces:
                    pieces.append(f"{coeff}{name}")
                else:
                    pieces.append(f"+ {coeff}{name}" if coeff > 0 else f"- {-coeff}{name}")
        return " ".join(pieces) if pieces else "0"

    re_s, im_s = part(value.re_coefficients), part(value.im_coefficients)
    if im_s == "0":
        return re_s
    return f"({im_s})*i" if re_s == "0" else f"({re_s}) + ({im_s})*i"


def _reference_part(coefficients):
    return {n: [c.numerator, c.denominator] for n, c in zip(_COEFFICIENT_NAMES, coefficients) if c}


def _reference_encode_real(value):
    out = _reference_part(value.re_coefficients)
    if not out:
        out["rational"] = [0, 1]
    out["approx"] = complex(value).real
    return out


def _reference_encode_scalar(value):
    re, im = _reference_part(value.re_coefficients), _reference_part(value.im_coefficients)
    z = complex(value)
    return {"re": re, "im": im, "approx": [z.real, z.imag], "text": _reference_text(value)}


class _Exact:
    """A payload leaf: an exact scalar, encoded whole or as its real part."""

    def __init__(self, value, real):
        self.value, self.real = value, real


def _encoded(payload, reference):
    if isinstance(payload, _Exact):
        if reference:
            encode = _reference_encode_real if payload.real else _reference_encode_scalar
            return encode(payload.value)
        return (cli.encode_real if payload.real else cli.encode_scalar)(payload.value, "exact")
    if isinstance(payload, list):
        return [_encoded(v, reference) for v in payload]
    if isinstance(payload, dict):
        return {k: _encoded(v, reference) for k, v in payload.items()}
    return payload


def _exact_from(mask, numerators, den):
    """The scalar whose eight numerators over ``den`` are ``numerators``
    where ``mask`` has a bit set and 0 elsewhere."""
    nums = [n if mask >> k & 1 else 0 for k, n in enumerate(numerators)]
    return exact.ExactComplex(
        tuple(Fraction(n, den) for n in nums[:4]), tuple(Fraction(n, den) for n in nums[4:])
    )


_NUMERATORS = st.one_of(
    st.integers(-60, 60).filter(bool), st.integers(2 ** 64, 2 ** 130),
    st.integers(2 ** 64, 2 ** 130).map(lambda i: -i),
)
_DENOMINATORS = st.one_of(st.integers(1, 720), st.integers(2 ** 64, 2 ** 130))
_EXACT_SCALARS = st.builds(
    _exact_from, st.integers(0, 255), st.lists(_NUMERATORS, min_size=8, max_size=8), _DENOMINATORS
)
_EXACT_PAYLOADS = st.recursive(
    st.one_of(st.builds(_Exact, _EXACT_SCALARS, st.booleans()), st.integers(), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(payload=_EXACT_PAYLOADS)
def test_writer_writes_exact_scalars_as_their_dicts(payload):
    """Exact scalars, whole (``encode_scalar``) and real parts
    (``encode_real``), nested in lists and dicts at several depths, are
    written as ``json.dumps`` writes the dicts they used to be encoded
    as: any zero/nonzero pattern of the numerators, zero, negative and
    huge numerators, large denominators."""
    want = json.dumps(_encoded(payload, True), indent=2, sort_keys=True)
    assert to_json(_encoded(payload, False)) == want


def test_writer_writes_every_numerator_pattern():
    """Each of the 256 zero/nonzero patterns of the eight numerators, at
    two depths, whole and as a real part, over a small and a huge
    denominator."""
    for den, numerators in ((12, (3, -4, 5, -6, 7, 8, -9, 10)),
                            (3 ** 50, (2 ** 70, -5, 3 ** 49, -(2 ** 65), 1, -1, 6 ** 30, 7))):
        for mask in range(256):
            value = _exact_from(mask, numerators, den)
            whole, real = _Exact(value, False), _Exact(value, True)
            payload = {"a": [whole, {"b": real}], "c": whole}
            want = json.dumps(_encoded(payload, True), indent=2, sort_keys=True)
            assert to_json(_encoded(payload, False)) == want, mask
            assert str(value) == _reference_text(value)


def test_writer_refuses_what_json_dumps_refuses():
    """Unencodable values raise TypeError, as in ``json.dumps``; so does any
    dict key that is not a str, which ``json.dumps`` would convert."""
    for bad in (object(), {1, 2}, 1j, np.int64(3), np.array([1, 2]), [1, {"a": b"x"}],
                {(1,): 2}, {"a": 1, 2: 3}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            to_json(bad)
    for keyed in ({1: "a"}, {"a": {None: 1}}):
        with pytest.raises(TypeError, match="keys must be str"):
            to_json(keyed)


def _exit_rows_as_dicts(record):
    """An exit record's rows as the dicts ``cmd_exits`` used to build, with
    exact scalars in their reference encodings."""
    if record.mode == "float":
        def scalar(a):
            return [a.real, a.imag]
        real = float
    else:
        scalar, real = _reference_encode_scalar, _reference_encode_real
    return [
        {"n": k, "amplitudes": [scalar(a) for a in row], "step_probability": real(p),
         "cumulative_probability": real(c)}
        for k, row, p, c in zip(range(1, len(record.amplitudes) + 1), record.amplitudes.tolist(),
                                record.step_probabilities, record.cumulative_probabilities)
    ]


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_exit_rows_are_written_as_json_dumps_writes_their_dicts(mode):
    """``to_json`` writes an ``exits`` payload's rows from the record's
    arrays, one row format per port count, mode and indent: the bytes
    ``json.dumps(indent=2, sort_keys=True)`` writes for the rows' dicts,
    for n = 3..8 ports and seeded step counts, and one level deeper."""
    rng = random.Random(27)
    for n in range(3, 9):
        steps, port = rng.randint(2, 100), rng.randrange(n)
        argv = ["exits", "--n", str(n), "--steps", str(steps), "--input", "ABCDEFGH"[port],
                "--mode", mode]
        data = cli.cmd_exits(cli._parse(argv), {})[0]
        record = data["rows"]
        assert (record.n_ports, len(record.amplitudes)) == (n, steps)
        payload = {"schema": cli.SCHEMA, "data": data}
        want = {"schema": cli.SCHEMA, "data": dict(data, rows=_exit_rows_as_dicts(record))}
        assert to_json(payload) == json.dumps(want, indent=2, sort_keys=True), (n, steps)
        assert to_json([payload]) == json.dumps([want], indent=2, sort_keys=True), (n, steps)


def test_exit_rows_with_non_finite_and_negative_zero_floats():
    """A float record holding NaN, +-inf or -0.0 is written as ``json.dumps``
    writes its dicts: NaN, Infinity, -Infinity and -0.0."""
    nan, inf = math.nan, math.inf
    finite = device.ExitRecord(
        0, 3, "float", np.array([[-0.0, complex(0.5, -0.0), 1e-300j], [0j, -1e300, 2.5]]),
        [-0.0, 0.25], [0.0, 0.25], 0.0,
    )
    odd = device.ExitRecord(
        1, 3, "float", np.array([[complex(nan, -0.0), complex(inf, 1), -inf], [0j, -0.0, 1j]]),
        [nan, -0.0], [inf, -inf], nan,
    )
    for record in (finite, odd):
        payload = {"data": {"rows": record}}
        want = {"data": {"rows": _exit_rows_as_dicts(record)}}
        assert to_json(payload) == json.dumps(want, indent=2, sort_keys=True)


def test_float_stdout_is_json_dumps_of_itself(capsys):
    """Float stdout reads back into the bytes ``json.dumps(indent=2,
    sort_keys=True)`` would write for it."""
    argvs = [("exits", "--n", str(n), "--steps", "12") for n in range(3, 9)]
    argvs += [("unitary", "--n", str(n)) for n in range(3, 9)]
    for name in sorted(os.listdir(CONFIG_DIR)):
        config = os.path.join(CONFIG_DIR, name)
        if name.startswith("walk_"):
            argvs.append(("walk", "--config", config, "--steps", "12"))
        elif name.startswith("device_"):
            argvs += [("unitary", "--config", config), ("exits", "--config", config)]
        else:
            argvs.append(("feasibility", "--config", config))
    argvs += [("family", "--phi-sweep", "0:3.14159:5"), ("feasibility", "--d", "1e-4")]
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv, "--mode", "float")
        assert code == 0, (argv, err)
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


def test_paths_command(capsys):
    payload = run_json(
        capsys,
        "paths",
        "--input",
        "A",
        "--exit",
        "A",
        "--length",
        "4",
        "--mode",
        "exact",
    )
    paths = payload["data"]["paths"]
    assert sorted(p["symbols"] for p in paths) == ["rrMrr", "ttMtt"]
    assert all(p["mirror_count"] == 1 for p in paths)
    assert payload["data"]["amplitude_sum"]["im"] == {"rational": [-1, 2]}


def test_unitary_command(capsys):
    payload = run_json(capsys, "unitary", "--n", "3", "--tol", "1e-12")
    data = payload["data"]
    assert data["converged"] is True
    assert data["residual"] < 1e-12
    assert (data["method"], data["reachable_dim"], data["trapped_modes"]) == ("resolvent", 7, 2)
    assert data["unitarity_dev"] < 1e-12
    assert "steps_used" not in data
    m = data["matrix"]
    assert m[0][0][1] == pytest.approx(-1 / 3, abs=1e-9)
    assert m[0][1][1] == pytest.approx(2 / 3, abs=1e-9)


def test_family_sweep(capsys):
    payload = run_json(capsys, "family", "--phi-sweep", "0:3.14159:5")
    rows = payload["data"]["rows"]
    assert len(rows) == 5
    assert all(r["unitarity_dev"] < 1e-12 for r in rows)
    assert rows[0]["alpha"] == pytest.approx(1 / 3)


def test_bell_table_and_restriction(capsys):
    payload = run_json(capsys, "bell-table", "--mode", "exact")
    rows = payload["data"]["rows"]
    assert len(rows) == 16
    lookup = {(r["input"], r["control"]): r for r in rows}
    assert lookup[("Phi-", "Psi-")]["out_s"] == "Psi+"
    assert lookup[("Phi-", "Psi-")]["out_o"] == "Phi+"
    assert lookup[("Psi+", "Psi+")]["prob_o"] == pytest.approx(169 / 13122)


def test_group_table_command(capsys):
    payload = run_json(capsys, "group-table", "--condition", "s")
    data = payload["data"]
    assert data["axioms"]["identity"] == "Phi+"
    assert data["axioms"]["klein_isomorphic"] is True
    assert data["table"][0][0] == "Phi+"  # Psi+ * Psi+
    o = run_json(capsys, "group-table", "--condition", "o")
    assert o["data"]["axioms"]["identity"] == "Psi+"


def test_cnot_command(capsys):
    payload = run_json(capsys, "cnot")
    rows = payload["data"]["rows"]
    assert [(r["input_bit"], r["control_bit"], r["output_bit"]) for r in rows] == [
        (0, 0, 0),
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
    ]


def test_walk_single_vertex_matches_reference_cumulative(capsys):
    payload = run_json(
        capsys,
        "walk",
        "--config",
        f"{CONFIG_DIR}/walk_single_triport.json",
        "--steps",
        "10",
    )
    steps = payload["data"]["steps"]
    cum = [sum(s["lead_cumulative_probability"]) for s in steps]
    assert cum[1] == pytest.approx(0.5)
    assert cum[3] == pytest.approx(0.875)
    assert cum[9] == pytest.approx(0.998046875)


def test_float_walk_writes_the_lead_amplitudes_of_its_run(capsys):
    """Float ``walk`` writes each step's lead amplitudes as [re, im] pairs
    of the run's own amplitudes, bit for bit, on every walk config."""
    for name in sorted(os.listdir(CONFIG_DIR)):
        if not name.startswith("walk_"):
            continue
        path = os.path.join(CONFIG_DIR, name)
        payload = run_json(capsys, "walk", "--config", path, "--steps", "30", "--mode", "float")
        with open(path, encoding="utf-8") as fh:
            walk = json.load(fh)["walk"]
        spec = cli._graph_from_config(walk, "float")
        schedule = walk.get("schedule")
        if schedule is not None:
            schedule = cli._schedule_from_config(schedule, "float")
        result = multiport.build_network(spec).run(0, 30, schedule)
        for written, step in zip(payload["data"]["steps"], result.steps, strict=True):
            assert written["lead_step_amplitudes"] == [
                [complex(a).real, complex(a).imag] for a in step.lead_step_amplitudes
            ], name


def test_walk_with_schedule_runs(capsys):
    payload = run_json(
        capsys,
        "walk",
        "--config",
        f"{CONFIG_DIR}/walk_triangle_ideal.json",
        "--steps",
        "8",
    )
    assert payload["data"]["conservation_dev"] < 1e-12


def test_feasibility_command(capsys):
    payload = run_json(
        capsys, "feasibility", "--config", f"{CONFIG_DIR}/feasibility_chip.json"
    )
    data = payload["data"]
    assert data["decay_time"] == pytest.approx(3.3e-12, rel=0.02)
    assert data["max_sampling_rate"] == pytest.approx(0.3e12, rel=0.02)
    assert data["constraints_ok"] is True


def test_heterogeneous_config_loads(capsys):
    payload = run_json(
        capsys, "exits", "--config", f"{CONFIG_DIR}/device_heterogeneous.json",
        "--steps", "6",
    )
    assert payload["data"]["conservation_dev"] < 1e-12


def test_exit_codes(capsys, tmp_path):
    # 1: config parse
    assert run_cli(capsys, "exits", "--config", "/does/not/exist.json")[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "exits", "--config", str(bad))[0] == 1
    # 1: a config that is not UTF-8, or nested deeper than json decodes
    bad.write_bytes(b'{"device": {"n": 3}}\xff')
    assert run_cli(capsys, "unitary", "--config", str(bad))[:2] == (1, "")
    bad.write_text("[" * 100000)
    assert run_cli(capsys, "unitary", "--config", str(bad))[:2] == (1, "")
    assert run_cli(capsys, "bogus-command")[0] == 1
    assert run_cli(capsys, "family", "--phi-sweep", "0:1:0")[0] == 1
    # 2: invalid spec
    assert run_cli(capsys, "exits", "--n", "2")[0] == 2
    assert run_cli(capsys, "exits", "--r", "0.5", "--t", "0.5")[0] == 2
    assert run_cli(capsys, "unitary", "--r", "nan", "--t", "nan")[0] == 2
    assert run_cli(capsys, "exits", "--input", "AB")[0] == 2
    assert run_cli(capsys, "paths", "--exit", "AB", "--length", "4")[0] == 2
    assert run_cli(capsys, "unitary", "--r", "inf", "--t", "0")[0] == 2
    assert run_cli(capsys, "unitary", "--r=-inf", "--t", "0")[0] == 2
    assert run_cli(capsys, "unitary", "--r", "nan", "--t", "0")[0] == 2
    assert run_cli(capsys, "unitary", "--r", "1e400", "--t", "0")[0] == 2
    assert run_cli(capsys, "exits", "--mode", "exact", "--mirror-phase", "0.5")[0] == 2
    assert run_cli(capsys, "paths", "--input", "Z", "--exit", "A", "--length", "4")[0] == 2
    assert run_cli(capsys, "paths", "--length", "0")[0] == 2
    assert run_cli(capsys, "paths", "--length", "-3")[0] == 2
    # more ports than the bound, refused before any operator is allocated
    assert run_cli(capsys, "exits", "--n", str(10 ** 12))[0] == 2
    assert run_cli(capsys, "unitary", "--n", "257", "--mode", "exact")[0] == 2
    # more paths than are listed, counted before any is built
    too_many = ("paths", "--input", "A", "--exit", "A", "--length", "60", "--max-steps", "200")
    assert run_cli(capsys, *too_many)[0] == 2
    triport = {"vertices": [{"multiport": {"n": 3}}], "edges": [], "leads": [0, 0, 0]}
    grover = {"vertices": [{"coin": "grover", "dim": 3}], "edges": [], "leads": [0, 0, 0]}
    # 2: an edge, a lead or a schedule override naming a vertex outside the graph
    assert _walk_code(capsys, tmp_path, {**triport, "edges": [[0, 5]]})[0] == 2
    assert _walk_code(capsys, tmp_path, {**triport, "edges": [[0, -1]]})[0] == 2
    assert _walk_code(capsys, tmp_path, {**triport, "leads": [0, 0, 5]})[0] == 2
    far = {"2": {"7": {"mirror_phase": 0.5}}}
    assert _walk_code(capsys, tmp_path, {**triport, "schedule": far})[0] == 2
    # exact-mode schedules honour the numeric mode
    quarter = {"2": {"0": {"mirror_phase": math.pi / 4}}}
    assert _walk_code(capsys, tmp_path, {**triport, "schedule": quarter}, "exact")[0] == 0
    off_grid = {"2": {"0": {"mirror_phase": 0.5}}}
    assert _walk_code(capsys, tmp_path, {**triport, "schedule": off_grid}, "exact")[0] == 2
    rt = {"2": {"0": {"r": "0.6i", "t": "0.8"}}}
    assert _walk_code(capsys, tmp_path, {**triport, "schedule": rt}, "float")[0] == 0
    assert _walk_code(capsys, tmp_path, {**triport, "schedule": rt}, "exact")[0] == 1
    custom = {"2": {"0": {"coin": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}}
    assert _walk_code(capsys, tmp_path, {**grover, "schedule": custom}, "float")[0] == 0
    assert _walk_code(capsys, tmp_path, {**grover, "schedule": custom}, "exact")[0] == 1
    named = {"2": {"0": {"coin": "identity", "dim": 3}}}
    assert _walk_code(capsys, tmp_path, {**grover, "schedule": named}, "exact")[0] == 0
    # 1: a port count, encounter limit or coin dimension that is not an integer
    device_cfg = tmp_path / "device.json"
    for dev in ({"n": 3.7}, {"n": math.inf}, {"n": "3.5"}, {"max_steps": 50.5},
                {"max_steps": math.nan}):
        device_cfg.write_text(json.dumps({"device": dev}))
        assert run_cli(capsys, "unitary", "--config", str(device_cfg))[0] == 1
    for vertex in ({"multiport": {"n": 3.7}}, {"coin": "grover", "dim": 2.5},
                   {"coin": "grover", "dim": math.inf}):
        assert _walk_code(capsys, tmp_path, {**triport, "vertices": [vertex]})[0] == 1
    # integral values keep working, and a huge one meets the port bound
    device_cfg.write_text(json.dumps({"device": {"n": 4.0, "max_steps": 50.0}}))
    payload = run_json(capsys, "unitary", "--config", str(device_cfg))
    assert len(payload["data"]["matrix"]) == 4
    device_cfg.write_text(json.dumps({"device": {"n": 1e300}}))
    assert run_cli(capsys, "unitary", "--config", str(device_cfg))[0] == 2
    three = {"multiport": {"n": 3.0}}
    assert _walk_code(capsys, tmp_path, {**triport, "vertices": [three]})[0] == 0
    # 1: the config names vertices by something other than an integer
    assert _walk_code(capsys, tmp_path, {**triport, "leads": [0, 0, "0"]})[0] == 1
    assert _walk_code(capsys, tmp_path, {**triport, "edges": [[0, 1, 2]]})[0] == 1
    assert _walk_code(capsys, tmp_path, {**triport, "schedule": [1]})[0] == 1
    # the long-time matrix is solved, so an encounter limit cannot cut it short
    payload = run_json(capsys, "unitary", "--max-steps", "8", "--tol", "1e-12")
    m = np.array([[complex(*v) for v in row] for row in payload["data"]["matrix"]])
    assert np.abs(m - 1j * (np.full((3, 3), 2 / 3) - np.eye(3))).max() < 1e-12
    # 3: a residual bound the float solve cannot reach
    assert run_cli(capsys, "unitary", "--n", "5", "--mode", "float", "--tol", "1e-300")[0] == 3


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_stdout_exits_141(fmt):
    """Output into a pipe whose read end is closed ends with exit 141
    (128 + SIGPIPE) and an empty stderr, not a BrokenPipeError traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(multiport.__file__)))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "multiport.cli", "exits", "--format", fmt],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_coin_dim_above_the_port_bound_is_refused_before_the_coin_is_built(
    capsys, tmp_path, monkeypatch
):
    built = []
    monkeypatch.setattr(device, "grover_coin", lambda n, mode="float": built.append(n))
    identity = classmethod(lambda cls, n, mode="float": built.append(n))
    monkeypatch.setattr(Matrix, "identity", identity)
    for coin in ("grover", "identity"):
        walk = {"vertices": [{"coin": coin, "dim": device._MAX_PORTS + 1}], "edges": [],
                "leads": [0, 0, 0]}
        code, _out, err = _walk_code(capsys, tmp_path, walk)
        assert code == 2
        assert f"at most {device._MAX_PORTS} channels" in err
    assert built == []


def test_env_var_sets_default_mode(capsys, monkeypatch):
    monkeypatch.setenv("MULTIPORT_NUMERIC_MODE", "exact")
    payload = run_json(capsys, "exits", "--steps", "2")
    assert payload["mode"] == "exact"
    assert payload["data"]["rows"][1]["amplitudes"][1]["im"] == {"rational": [1, 2]}
    monkeypatch.setenv("MULTIPORT_NUMERIC_MODE", "bogus")
    assert run_cli(capsys, "exits", "--steps", "2")[0] == 1


def test_repeated_calls_share_no_state(capsys):
    """The parser is built once per process; no call may see another's flags."""
    sequences = [
        (("unitary", "--max-steps", "8"), ("unitary",)),
        (("exits", "--input", "B"), ("exits",)),
        (("exits", "--mode", "exact", "--steps", "4"), ("paths", "--length", "4")),
        (("family", "--phi-sweep", "0:1:3"), ("family",)),
    ]
    for sequence in sequences:
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert [run_cli(capsys, *argv) for argv in sequence] == fresh
    assert build_parser() is build_parser()


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``; an argparse exit
    (help, usage) gives its SystemExit code."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = ("SystemExit", stop.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_PARSE_CASES = [
    [], ["--help"], ["bogus"], ["Exits"], ["exits", "--help"], ["unitary", "-h"],
    ["unitary", "--bogus"], ["paths"], ["paths", "--length", "x"], ["exits", "--st", "3"],
    ["exits", "--steps", "4", "extra"], ["exits", "--", "--steps", "4"], ["--mode", "exact", "exits"],
    ["family", "--phi-sweep", "0:1:2"], ["cnot", "--format", "xml"],
]


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parse_path_gives_what_the_full_parser_gives(capsys, monkeypatch, argv):
    """A command's own parser reads its arguments, and the full parser
    anything else; stdout, stderr and the exit code are those of a parse
    by the full parser: usage text, help, errors and their exit codes."""
    fast = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse", lambda args: build_parser().parse_args(args))
    assert fast == _outcome(capsys, argv)


def test_parse_reads_sys_argv_and_skips_the_full_parser_for_a_command(capsys, monkeypatch):
    """``main()`` reads ``sys.argv``; a known command is parsed without the
    top-level parse, which no longer runs."""
    want = _outcome(capsys, ["unitary", "--n", "4", "--format", "csv"])
    monkeypatch.setattr(sys, "argv", ["multiport", "unitary", "--n", "4", "--format", "csv"])
    assert _outcome(capsys, None) == want
    full = build_parser()

    def refused(*args, **kwargs):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(full, "parse_known_args", refused)
    assert _outcome(capsys, None) == want
    assert _outcome(capsys, ["exits", "--steps", "4"])[0] == 0
    with pytest.raises(AssertionError, match="full parser"):
        main(["bogus"])


_JUNK = st.sampled_from([None, 3, -1, 1.5, True, "x", "0", [], {}, [0, 1, 2], [[0]]])
_FAULTS = (
    "edge outside", "lead outside", "lead type", "self-loop", "disconnected", "degree",
    "phase", "r/t", "coin rows", "override outside", "override kind", "junk", "oversize",
)


@st.composite
def _walk_configs(draw):
    """(mode, walk section): a well-formed connected walk with a schedule,
    or the same with one fault: a vertex outside the graph, a mismatched
    degree, an off-grid or non-finite phase, r/t or explicit coin rows in
    exact mode, an override of the wrong kind, junk in one field, or a
    named coin's dim or a multiport's n one above ``device._MAX_PORTS``."""
    mode = draw(st.sampled_from(["float", "exact"]))
    fault = draw(st.one_of(st.none(), st.sampled_from(_FAULTS)))
    ideal = draw(st.booleans())
    count = draw(st.integers(1, 4))
    edges = [[draw(st.integers(0, v - 1)), v] for v in range(1, count)]
    degree = [0] * count
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    want = [max(d, 2 if ideal else 3) + draw(st.integers(0, 1)) for d in degree]
    leads = draw(st.permutations([v for v in range(count) for _ in range(want[v] - degree[v])]))

    def phase():
        if fault == "phase" and draw(st.booleans()):
            return draw(st.sampled_from([0.5, math.nan, math.inf, "x", None, 1e16, 1.5e308]))
        if mode == "exact":
            return draw(st.integers(-8, 8)) * math.pi / 4
        return draw(st.floats(-7, 7))

    def params():
        out = {}
        if draw(st.booleans()):
            out["mirror_phase"] = phase()
        if draw(st.booleans()) and (mode == "float" or fault == "r/t"):
            out["r"], out["t"] = draw(st.sampled_from([("0.6i", "0.8"), ("i", "0"), ("inf", "0"), ("x", "1")]))
        return out

    def coin(dim):
        if draw(st.booleans()) and (mode == "float" or fault == "coin rows"):
            shift = draw(st.integers(0, dim - 1))
            rows = [[1 if (i + shift) % dim == j else 0 for j in range(dim)] for i in range(dim)]
            if fault == "coin rows":
                rows[0][0] = draw(st.sampled_from(["0.5", "nan", "x", "1@0.3"]))
            return {"coin": rows}
        return {"coin": draw(st.sampled_from(["grover", "identity"])), "dim": dim}

    vertices = []
    for v in range(count):
        if ideal:
            vertices.append(coin(want[v]))
        else:
            d = {"n": want[v], **params()}
            if draw(st.booleans()):
                d["edge_phase"] = phase()
            vertices.append({"multiport": d})
    schedule = {}
    for step in draw(st.lists(st.integers(0, 6), max_size=3)):
        targets = draw(st.lists(st.integers(0, count - 1), max_size=2))
        schedule[str(step)] = {
            str(v): coin(want[v]) if ideal != (fault == "override kind") else params()
            for v in targets
        }
    walk = {"vertices": vertices, "edges": edges, "leads": leads, "schedule": schedule}
    if fault == "edge outside":
        edges.append([draw(st.integers(0, count - 1)), draw(st.sampled_from([-1, count, count + 3]))])
    elif fault == "lead outside":
        leads.append(draw(st.sampled_from([-1, count])))
    elif fault == "lead type":
        leads.append(draw(st.sampled_from(["0", 0.0, None, True])))
    elif fault == "self-loop":
        edges.append([0, 0])
    elif fault == "disconnected":
        vertices.append(vertices[0])
        leads.extend([count] * want[0])
    elif fault == "degree":
        vertices[draw(st.integers(0, count - 1))] = coin(want[0] + 1) if ideal else {"multiport": {"n": 2}}
    elif fault == "override outside":
        schedule["1"] = {str(count + draw(st.integers(0, 2))): coin(2) if ideal else params()}
    elif fault == "oversize":
        big = device._MAX_PORTS + 1
        vertices[draw(st.integers(0, count - 1))] = (
            {"coin": draw(st.sampled_from(["grover", "identity"])), "dim": big} if ideal
            else {"multiport": {"n": big}}
        )
    elif fault == "junk":
        walk[draw(st.sampled_from(["vertices", "edges", "leads", "schedule"]))] = draw(_JUNK)
    return mode, walk


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    config=st.one_of(_walk_configs(), st.tuples(st.just("float"), _JUNK)),
    lead=st.integers(-1, 4),
    steps=st.sampled_from([*range(7), device._MAX_RECORD_AMPLITUDES + 1]),
)
def test_walk_config_never_escapes(config, lead, steps):
    """Generated walk graphs and schedules map to an exit code; nothing
    escapes as a traceback."""
    mode, walk = config
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "walk.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"walk": walk}, fh)
        argv = ["walk", "--config", path, "--mode", mode,
                "--input-lead", str(lead), "--steps", str(steps)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in {0, 1, 2, 3, 4}


_OPTION_VALUES = {
    "--condition": ["s", "o"],
    "--mode": ["exact", "float"],
    "--format": ["json", "csv"],
}
_GATE_FAULTS = (
    "option value", "missing value", "extra token", "config missing", "config malformed",
    "config not object", "config mode", "env mode",
)
_TOKENS = st.text(alphabet="sofxacjnE-=1 ", max_size=5)


@st.composite
def _gate_argv(draw):
    """(argv, config, config file text, MULTIPORT_NUMERIC_MODE) for
    ``bell-table``, ``group-table`` or ``cnot``: a valid call, or one with
    a fault: a junk option value, an option without its value, a stray
    token, the config missing, malformed or not an object, or a junk
    numeric mode in the config or the environment."""
    fault = draw(st.one_of(st.none(), st.sampled_from(_GATE_FAULTS)))
    command = draw(st.sampled_from(["bell-table", "group-table", "cnot"]))
    argv = [command]
    flags = [flag for flag in _OPTION_VALUES if flag != "--condition" or command == "group-table"]
    for flag in flags:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(_OPTION_VALUES[flag]))]
    if fault == "option value":
        argv += [draw(st.sampled_from(list(_OPTION_VALUES))), draw(_TOKENS)]
    elif fault == "missing value":
        argv.append(draw(st.sampled_from(list(_OPTION_VALUES))))
    elif fault == "extra token":
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "x", "-n"])))
    config, text = None, None
    if fault == "config missing":
        config = "missing"
    elif fault in ("config malformed", "config not object"):
        config = "file"
        text = draw(st.sampled_from(["{", '{"numeric_mode": }', ""] if fault == "config malformed"
                                    else ["[]", "3", '"exact"', "null"]))
    elif fault == "config mode" or draw(st.booleans()):
        config = "file"
        mode = _JUNK if fault == "config mode" else st.sampled_from(["exact", "float"])
        text = json.dumps({"numeric_mode": draw(mode)})
    env_modes = ["", "x", "EXACT", "exact "] if fault == "env mode" else [None, "exact", "float"]
    return argv, config, text, draw(st.sampled_from(env_modes))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_gate_argv())
def test_gate_commands_never_escape(case):
    """Generated argv, configs and numeric-mode environments for the gate
    commands map to an exit code; nothing escapes as a traceback, and a
    failed command prints nothing on stdout."""
    argv, config, text, env = case
    saved = os.environ.get("MULTIPORT_NUMERIC_MODE")
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "gate.json")
            if config == "file":
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            argv = argv + ["--config", path]
        if env is None:
            os.environ.pop("MULTIPORT_NUMERIC_MODE", None)
        else:
            os.environ["MULTIPORT_NUMERIC_MODE"] = env
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            if saved is None:
                os.environ.pop("MULTIPORT_NUMERIC_MODE", None)
            else:
                os.environ["MULTIPORT_NUMERIC_MODE"] = saved
    assert code in {0, 1, 2, 3, 4}
    assert (code == 0) == bool(out.getvalue())


_OVER_RECORD_BOUND = str(device._MAX_RECORD_AMPLITUDES + 1)
_DEVICE_OPTIONS = {
    "--mode": ["exact", "float", "x"],
    "--format": ["json", "csv", "xml"],
    "--n": ["3", "4", "8", "2", "-1", "x", "3.5"],
    "--r": ["0.6i", "i", "inf", "x", "1@0.3"],
    "--t": ["0.8", "0", "nan", "x"],
    "--mirror-phase": ["0", "0.7853981633974483", "0.5", "nan", "x", "1e16", "1.5e308"],
    "--edge-phase": ["0", "1.5707963267948966", "0,0,0", "1,x", "inf", "", "1e16", "1.5e308"],
    "--max-steps": ["2", "1", "50", "x", "-3"],
}
_COMMAND_OPTIONS = {
    "unitary": {**_DEVICE_OPTIONS, "--tol": ["1e-12", "1e-300", "0", "-1", "nan", "inf", "x"]},
    "exits": {**_DEVICE_OPTIONS, "--input": ["A", "C", "Z", "", "ab"],
              "--steps": ["2", "10", "40", "1", "200", "x", _OVER_RECORD_BOUND],
              "--max-steps": [*_DEVICE_OPTIONS["--max-steps"], _OVER_RECORD_BOUND]},
    "paths": {**_DEVICE_OPTIONS, "--input": ["A", "B", "Z", ""], "--exit": ["A", "C", "7"],
              "--length": ["1", "4", "9", "12", "0", "-2", "x"]},
    "family": {"--format": ["json", "csv", "xml"], "--phi": ["0", "1.2", "nan", "inf", "x"],
               "--phi-a": ["0", "-1.5", "-inf", "x"],
               "--phi-sweep": ["0:1:3", "0:1:0", "0:inf:2", "a:b", "1:2:x"]},
    "feasibility": {"--format": ["json", "csv", "xml"],
                    "--d": ["1e-4", "1", "0", "-1", "1e-320", "inf", "nan", "x"],
                    "--index": ["1", "1.5", "0.5", "nan", "x"],
                    "--dt": ["1e-10", "0", "1e-320", "inf", "x"],
                    "--dnu": ["1e9", "-1", "inf", "x"],
                    "--td": ["1e-10", "0", "nan", "x"]},
}


def _section(keys, good):
    return st.one_of(_JUNK, st.fixed_dictionaries(
        {}, optional={key: st.one_of(st.sampled_from(good), _JUNK) for key in keys}))


_CONFIGS = st.one_of(_JUNK, st.fixed_dictionaries({}, optional={
    "numeric_mode": st.sampled_from(["exact", "float", "x", 3]),
    "device": _section(("n", "r", "t", "mirror_phase", "edge_phase", "max_steps"),
                       [3, 4, 0.0, 4.0, 3.7, math.inf, 1e300, math.pi / 4, "0.6i",
                        [0.0, 0.0, 0.0]]),
    "feasibility": _section(("d", "refractive_index", "pulse_duration", "spectral_width",
                             "detector_time"), [1e-4, 1.5, 1e-10, "1e9"]),
}))


@st.composite
def _device_argv(draw):
    """(argv, config file text or None) for ``unitary``, ``exits``,
    ``paths``, ``family`` or ``feasibility``: options drawn with good or
    junk values, maybe an option without its value or a stray token, and
    maybe a config file that is missing, malformed, junk, or holds junk in
    its sections.  Paths are at most 12 encounters long."""
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    options = _COMMAND_OPTIONS[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=5, unique=True)):
        argv += [flag, draw(st.sampled_from(options[flag]))]
    fault = draw(st.sampled_from([None, None, "missing value", "extra token"]))
    if fault == "missing value":
        argv.append(draw(st.sampled_from(sorted(options))))
    elif fault == "extra token":
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "x", "-n"])))
    text = draw(st.one_of(
        st.none(), st.just("missing"), st.sampled_from(["{", "", "[]"]),
        _CONFIGS.map(json.dumps),
    ))
    return argv, text


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_device_argv())
def test_device_commands_never_escape(case):
    """Generated argv and configs for the device, family and feasibility
    commands map to an exit code; nothing escapes as a traceback, and a
    failed command prints nothing on stdout."""
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = os.path.join(tmp, "device.json")
            if text != "missing":
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            argv = argv + ["--config", path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in {0, 1, 2, 3, 4}
    assert (code == 0) == bool(out.getvalue())


def test_walk_config_refuses_keys_it_never_reads(capsys, tmp_path):
    """A key that a vertex entry, a multiport entry or a schedule override
    never reads is a config error naming it; it used to be ignored, so a
    misspelt override ran the walk without it."""
    with open(os.path.join(CONFIG_DIR, "walk_two_triports.json"), encoding="utf-8") as fh:
        walk = json.load(fh)["walk"]
    overrides = {"edge_phase": {"edge_phase": 1.0}, "edge_phases": {"edge_phases": 1.0},
                 "bogus": {"mirror_phase": 0.5, "bogus": 1},
                 "mirror_phase": {"coin": "identity", "dim": 3, "mirror_phase": 0.5}}
    for key, override in overrides.items():
        code, out, err = _walk_code(capsys, tmp_path, {**walk, "schedule": {"2": {"0": override}}})
        assert (code, out) == (1, "")
        assert key in err
    triport = {"edges": [], "leads": [0, 0, 0]}
    vertices = {"edge_phases": {"multiport": {"n": 3, "edge_phases": 0.5}},
                "bogus": {"multiport": {"n": 3}, "bogus": 1},
                "mirror_phase": {"coin": "grover", "dim": 3, "mirror_phase": 0.5}}
    for key, vertex in vertices.items():
        code, out, err = _walk_code(capsys, tmp_path, {**triport, "vertices": [vertex]})
        assert (code, out) == (1, "")
        assert key in err
    valid = {**walk, "schedule": {"2": {"0": {"mirror_phase": 0.5}}}}
    code, out, _err = _walk_code(capsys, tmp_path, valid)
    assert code == 0
    assert out != _walk_code(capsys, tmp_path, walk)[1]


def test_device_and_feasibility_sections_refuse_keys_they_never_read(capsys, tmp_path):
    """A misspelt key in a ``device`` or ``feasibility`` section is a config
    error naming it, with nothing on stdout; it used to be dropped, so the
    command ran as if the key were absent.  Every key the heterogeneous
    example config holds is read: its exit table is that of the device
    built from the same values through the library."""
    path = tmp_path / "config.json"
    repros = [
        ("unitary", {"device": {"n": 3, "edge_phases": [0.5, 0, 0], "mirror-phase": 1.0}},
         ("edge_phases", "mirror-phase")),
        ("feasibility", {"feasibility": {"d": 0.01, "pulse-duration": 1e-12}},
         ("pulse-duration",)),
    ]
    for command, config, keys in repros:
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out) == (1, "")
        assert all(key in err for key in keys), err
    config = os.path.join(CONFIG_DIR, "device_heterogeneous.json")
    with open(config, encoding="utf-8") as fh:
        section = json.load(fh)["device"]
    rows = run_json(capsys, "exits", "--config", config, "--steps", "6")["data"]["rows"]
    spec = device.MultiportSpec(
        n=section["n"],
        r=[parse_complex(v) for v in section["r"]],
        t=[parse_complex(v) for v in section["t"]],
        mirror_factor=[cmath.exp(1j * p) for p in section["mirror_phase"]],
        edge_phases=[float(p) for p in section["edge_phase"].split(",")],
    )
    want = device.exit_record(spec, 0, 6)
    got = [[complex(*a) for a in row["amplitudes"]] for row in rows]
    assert got == [list(step.amplitudes) for step in want.steps]


def test_config_sections_must_be_objects(capsys, tmp_path):
    """A ``device`` or ``feasibility`` section that is not a JSON object is
    a config error naming the section; a list of [key, value] pairs, or an
    empty list, used to be read as the object it spells."""
    path = tmp_path / "config.json"
    repros = [
        ("unitary", {"device": [["n", 4]]}, "device"),
        ("feasibility", {"feasibility": [["d", 0.01]]}, "feasibility"),
        ("unitary", {"device": []}, "device"),
    ]
    for command, config, section in repros:
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out) == (1, ""), config
        assert f"{section} section" in err, err


def test_walk_entries_read_parameters_as_the_device_section_does(capsys, tmp_path):
    """``r``, ``t`` and ``mirror_phase`` in a multiport entry or a schedule
    override are one value or one per vertex, as in the ``device``
    section, so a bare [re, im] pair is a per-vertex list, refused for a
    3-port."""
    walk = {"edges": [], "leads": [0, 0, 0]}
    one = {"n": 3, "r": "0.6i", "t": "0.8", "mirror_phase": 0.5}
    each = {"n": 3, "r": ["0.6i"] * 3, "t": ["0.8"] * 3, "mirror_phase": [0.5] * 3}
    runs = [_walk_code(capsys, tmp_path, {**walk, "vertices": [{"multiport": m}]})
            for m in (one, each)]
    assert runs[0][0] == 0 and runs[0] == runs[1]
    override = {"r": ["0.6i"] * 3, "t": ["0.8"] * 3, "mirror_phase": [0.5, 0.0, 1.0]}
    scheduled = {**walk, "vertices": [{"multiport": {"n": 3}}], "schedule": {"2": {"0": override}}}
    assert _walk_code(capsys, tmp_path, scheduled)[0] == 0
    pair = {"n": 3, "r": [0.0, 0.6], "t": [0.8, 0.0]}
    assert _walk_code(capsys, tmp_path, {**walk, "vertices": [{"multiport": pair}]})[0] == 2


def test_schedule_steps_must_be_integers_from_one(capsys, tmp_path):
    """A schedule step below 1 never applies, so it is an invalid spec
    (exit 2) rather than a walk that ignores it; a step beyond the walk's
    last is allowed."""
    triport = {"vertices": [{"multiport": {"n": 3}}], "edges": [], "leads": [0, 0, 0]}
    for step in ("0", "-2"):
        walk = {**triport, "schedule": {step: {"0": {"r": 0, "t": 1}}}}
        code, out, err = _walk_code(capsys, tmp_path, walk)
        assert (code, out) == (2, "")
        assert f"a schedule step must be an integer >= 1, got {int(step)}" in err
    beyond = {**triport, "schedule": {"99": {"0": {"r": 0, "t": 1}}}}
    assert _walk_code(capsys, tmp_path, beyond)[:2] == _walk_code(capsys, tmp_path, triport)[:2]


def test_r_without_t_names_its_section(capsys, tmp_path):
    """r without t (or t without r) is a config error (exit 1) that names
    the device section, the multiport entry or the schedule override."""
    code, out, err = run_cli(capsys, "unitary", "--r", "0.6i")
    assert (code, out) == (1, "") and "the device section must set r and t together" in err
    walk = {"vertices": [{"multiport": {"n": 3, "r": "nan"}}], "edges": [], "leads": [0, 0, 0]}
    code, out, err = _walk_code(capsys, tmp_path, walk)
    assert (code, out) == (1, "") and "a multiport entry must set r and t together" in err
    walk = {**walk, "vertices": [{"multiport": {"n": 3}}], "schedule": {"2": {"0": {"t": 1}}}}
    code, out, err = _walk_code(capsys, tmp_path, walk)
    assert (code, out) == (1, "")
    assert "schedule step 2: an override must set r and t together" in err
