"""Byte-level regression: SHA-256 of the Pauli text and QASM the package emits.

The digests were recorded from the letter-keyed ``PauliSum`` and must not
move when the representation or the algebra behind it changes.  A single
changed byte fails, a ``-0.0`` printed where ``0.0`` was included.
"""

import hashlib
import json

import pytest

from bosonsim import models
from bosonsim.cli import run
from bosonsim.encodings import boson_ops_binary, boson_ops_unary, fermion_ops_jw


def _digest(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def _ops_text(label, ops):
    return [f"# {label} {name}\n{op.to_text()}" for name, op in sorted(ops.items())]


def _operator_family(family):
    if family == "unary":
        return [t for Nb in range(1, 8) for t in _ops_text(f"Nb={Nb}", boson_ops_unary(Nb))]
    if family == "binary":
        return [t for Nq in range(1, 4) for t in _ops_text(f"Nq={Nq}", boson_ops_binary(Nq))]
    return [t for n in range(1, 5) for site in range(n)
            for t in _ops_text(f"site={site}/{n}", fermion_ops_jw(site, n))]


OPERATOR_DIGESTS = {
    "unary": "bf139e94e245b690a531ebd7e1a528b631a88a3e401a2539f865e9f5641d28e0",
    "binary": "9a5134b350bebd1834cb9168ac0fc55836dd085566eaf5c1fdc0045b4f32d2dd",
    "fermion_jw": "6cdcb1fede313f1a83232836ddd501fcff4bc8c468015c1cb3e39ce55b8ed333",
}


@pytest.mark.parametrize("family", sorted(OPERATOR_DIGESTS))
def test_operator_text_digests_are_frozen(family):
    assert _digest(_operator_family(family)) == OPERATOR_DIGESTS[family]


MODELS = {
    "bose_hubbard": (models.build_bose_hubbard,
                     models.BoseHubbardParams(n_sites=3, t=0.734521, U=1.30917, V=0.218734,
                                              mu=(0.311872, -0.42137, 0.0517391), Nb=3)),
    "spin_boson": (models.build_spin_boson,
                   models.SpinBosonParams(delta=0.927183, epsilon=-0.384512,
                                          omegas=(1.21738, 0.672911),
                                          couplings=(0.417263, 0.128493), cutoffs=(3, 2))),
    "holstein": (models.build_holstein,
                 models.HolsteinParams(n_sites=3, v=1.10384, omega=0.871263, g=0.61827,
                                       Nb=3, boundary="periodic")),
}

MODEL_DIGESTS = {
    ("bose_hubbard", "unary"): "c09e69ddf006a2a29b533559ffc14680391ad6f0c5011c957226e634c378e3c8",
    ("bose_hubbard", "binary"): "bbefeec566cc343ea1acf32dc65c3db3d2aa4ef9943b09c7cebdc50477ced42c",
    ("spin_boson", "unary"): "0589cf8a54122bbe6ca64beb02130fec826ef730214dc2069363f93e4a132016",
    ("spin_boson", "binary"): "8e903f2d49223c04464ea227762ecea7b258251ab4be2e30dd3e2fe47cf5e0a5",
    ("holstein", "unary"): "cd60a52f3fedb1d29075eeb957f62aed282a47848efd51f52fa7ccdd3fed64e9",
    ("holstein", "binary"): "80911ad6932ba36992056f0e0bfe58ff146a5fb151b84b5bb0e1035f9be93eb5",
}


@pytest.mark.parametrize("kind,encoding", sorted(MODEL_DIGESTS))
def test_model_text_digests_are_frozen(kind, encoding):
    build, params = MODELS[kind]
    text = build(params, encoding).pauli.to_text()
    assert _digest([text]) == MODEL_DIGESTS[kind, encoding]


# bench-shaped compile inputs: binary registers, six significant digits
COMPILE_SPECS = {
    "bose_hubbard_3x3": {"model": "bose_hubbard", "n_sites": 3, "Nb": 3, "t": 0.912873,
                         "U": 1.52841, "V": 0.371926,
                         "mu": [-0.218374, 0.401827, 0.0918273]},
    "holstein_4": {"model": "holstein", "n_sites": 4, "Nb": 1, "v": 1.31827,
                   "omega": 0.718293, "g": 1.20381, "boundary": "periodic"},
    "spin_boson_7_3": {"model": "spin_boson", "delta": 0.561728, "epsilon": -0.718263,
                       "omegas": [1.81726, 0.938271], "couplings": [0.471829, 0.0928371],
                       "cutoffs": [7, 3]},
}

COMPILE_DIGESTS = {
    ("bose_hubbard_3x3", "text"): "6e85dd3dc4b26f37572eb85f6cd68c3ce3701f9ab9bae48e2cb281ab6b5f0aed",
    ("bose_hubbard_3x3", "qasm"): "81a59815173d02596f7118c7c5532c40bbfc3256f5ad9a9fc81b0772cf9a8e63",
    ("holstein_4", "text"): "5da1b2a5fd05e29a0982cd50275e6e5832589e00690d6652e43bac7646c9b41c",
    ("holstein_4", "qasm"): "adf433fd1bd7e4c8059eee6102549cbac1dbd6c4a23abd9d2714cff06cbe78b9",
    ("spin_boson_7_3", "text"): "fc848192932f3c7dfde3541f1efb9ed8604631c751fa1592750566bda99c9f2c",
    ("spin_boson_7_3", "qasm"): "7c3ee5895ad0d428dd038f5b51b16771cdc382a36b801baf69c9043adeac9af3",
}


@pytest.mark.parametrize("name", sorted(COMPILE_SPECS))
def test_compile_text_and_qasm_digests_are_frozen(name, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(COMPILE_SPECS[name]))
    text, qasm = tmp_path / "out.txt", tmp_path / "out.qasm"
    assert run(["compile", "--model", str(model), "--out", str(text),
                "--circuits", str(qasm), "--dt", "0.0731"]) == 0
    assert _digest([text.read_text()]) == COMPILE_DIGESTS[name, "text"]
    assert _digest([qasm.read_text()]) == COMPILE_DIGESTS[name, "qasm"]
