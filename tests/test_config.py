import math

import numpy as np
import pytest
import yaml

from weakkam import config
from weakkam.config import load_config, parse_config
from weakkam.errors import ConfigurationError


def base():
    return {
        "model": {"family": "quadratic-discounted", "lambda": 1.0,
                  "potential": [[1, 1.0]]},
        "grid": {"N": 64, "dt": 0.0625, "v_max": 4.0},
    }


def test_defaults_are_resolved():
    cfg = parse_config(base())
    assert cfg.T == 1.0
    assert cfg.tol == 1e-10
    assert cfg.quadrature == "left"
    assert cfg.checkpoints == (50.0,)
    assert cfg.seed == 0
    assert cfg.out_dir is None
    assert cfg.alpha > 0 and cfg.dt_fd > 0
    resolved = cfg.resolved()
    assert resolved["grid.N"] == 64
    assert resolved["model.potential"] == [[1, 1.0]]


def test_default_v_max_covers_audited_gradient_range():
    doc = base()
    del doc["grid"]["v_max"]
    doc["grid"]["dt"] = 0.25
    cfg = parse_config(doc)
    # |H_p| = |p| <= 4 on the audit box, so the default is 2*(1+4)
    assert cfg.v_max == 2.0 * (1.0 + cfg.audit.max_Hp)
    assert cfg.v_max == pytest.approx(10.0, rel=0.05)


def test_dt_lambda_coupling_is_rejected():
    doc = base()
    doc["model"]["lambda"] = 20.0
    with pytest.raises(ConfigurationError, match="grid.dt"):
        parse_config(doc)


def test_empty_stencil_is_rejected_at_parse_time():
    doc = base()
    doc["grid"] = {"N": 64, "dt": 0.001, "v_max": 2.0}
    with pytest.raises(ConfigurationError, match="grid.dt"):
        parse_config(doc)


def test_unknown_block_and_key_are_named():
    doc = base()
    doc["mystery"] = {}
    with pytest.raises(ConfigurationError, match="mystery"):
        parse_config(doc)
    doc = base()
    doc["solver"] = {"warp": 9}
    with pytest.raises(ConfigurationError, match="solver.warp"):
        parse_config(doc)
    # the Picard certificate always ends within the march: no iteration cap
    doc["solver"] = {"max_iter": 60}
    with pytest.raises(ConfigurationError, match="solver.max_iter`: is not a recognized key"):
        parse_config(doc)


def _docstring_schema():
    """Block name -> the keys the config module docstring lists under it."""
    text = config.__doc__.split("Schema (defaults in parentheses):\n\n")[1].split("\n\n")[0]
    schema, block = {}, None
    for line in text.splitlines():
        indent = len(line) - len(line.lstrip())
        name = line.split(":")[0].strip()
        if indent == 4:
            block = name
            schema[block] = set()
        elif indent == 6:
            schema[block].add(name)
    return schema


def test_schema_docstring_lists_exactly_the_accepted_keys():
    assert _docstring_schema() == {
        "model": config._MODEL_KEYS,
        "grid": config._GRID_KEYS,
        "solver": config._SOLVER_KEYS,
        "char": config._CHAR_KEYS,
        "oracle": config._ORACLE_KEYS,
        "output": config._OUTPUT_KEYS,
        "seed": set(),
    }
    assert set(_docstring_schema()) == config._BLOCKS


def test_potential_mode_shape_is_checked():
    doc = base()
    doc["model"]["potential"] = [[1, 2, 0.5]]
    with pytest.raises(ConfigurationError, match="model.potential"):
        parse_config(doc)


def test_oracle_cfl_is_checked():
    doc = base()
    doc["oracle"] = {"alpha": 4.1, "dt_fd": 0.01}
    with pytest.raises(ConfigurationError, match="oracle.dt_fd"):
        parse_config(doc)


def test_oracle_u_sensitivity_is_checked():
    # within the CFL bound, dt_fd*lambda_L = 1.5 still breaks monotonicity
    doc = base()
    doc["model"]["lambda"] = 1000.0
    doc["grid"] = {"N": 64, "dt": 0.001, "v_max": 20.0}
    doc["oracle"] = {"alpha": 4.1, "dt_fd": 0.0015}
    with pytest.raises(ConfigurationError, match="`oracle.dt_fd`: dt_fd\\*lambda_L"):
        parse_config(doc)


def test_oracle_discretization_and_horizon():
    doc = base()
    doc["solver"] = {"T": 0.3}
    doc["oracle"] = {"alpha": 4.1, "dt_fd": 0.0017}
    cfg = parse_config(doc)
    lf = cfg.lf()
    assert (lf.model, lf.grid, lf.alpha, lf.dt_fd) == (cfg.model, cfg.grid, 4.1, 0.0017)
    assert cfg.T_fd == 176 * 0.0017  # 0.3 / 0.0017 = 176.47 rounds to 176 steps
    doc["solver"] = {"T": 0.0001}
    assert parse_config(doc).T_fd == 0.0017


def test_phi_field_from_modes():
    doc = base()
    doc["solver"] = {"phi": [[1, 0.5]]}
    cfg = parse_config(doc)
    f = cfg.phi_field()
    x = cfg.grid.points()[:, 0]
    assert np.allclose(f.values, 0.5 * np.cos(2 * np.pi * x))


def same_objects(a, b) -> bool:
    """Equal YAML objects: the same types throughout and the same repr at the
    leaves, so NaN matches NaN and -0.0 only -0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_objects(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_objects, a, b))
    return repr(a) == repr(b)


def assert_loaders_agree(path):
    """The loader load_config uses reads the document at path as PyYAML's
    pure-Python SafeLoader does."""
    with open(path) as fh:
        text = fh.read()
    assert same_objects(yaml.load(text, Loader=config._LOADER),
                        yaml.load(text, Loader=yaml.SafeLoader))


def test_loader_is_libyaml_where_pyyaml_has_it():
    assert config._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


EDGE_DOCUMENT = """\
model: {family: quadratic-nonlinear-u, potential: [[1, .nan], [2, -.inf]], action_shift: 1.0e+308}
grid: {N: 16, dt: .inf, v_max: -.NaN, N2: 0x10, N3: 1_000}
solver:
  phi: [[1, [2, [3, 1.0e-308, -0.0]]], []]
  checkpoints: [-0.0, 1e3, 2.5e-3, .5]
flags: [true, false, True, yes, no, on, off, null, ~, "true"]
"""


def test_loader_reads_edge_values_as_the_pure_python_loader(tmp_path):
    path = tmp_path / "edge.yaml"
    path.write_text(EDGE_DOCUMENT)
    assert_loaders_agree(path)
    data = yaml.load(EDGE_DOCUMENT, Loader=config._LOADER)
    assert math.isnan(data["model"]["potential"][0][1])
    assert data["model"]["potential"][1][1] == -math.inf
    assert data["model"]["action_shift"] == 1e308
    assert data["solver"]["phi"][0][1] == [2, [3, 1e-308, -0.0]]
    assert data["flags"][:9] == [True, False, True, True, False, True, False, None, None]
    # the planted difference: same_objects tells a NaN from a string, 0.0 from -0.0
    assert not same_objects({"a": [float("nan")]}, {"a": ["nan"]})
    assert not same_objects([0.0], [-0.0]) and not same_objects([1], [True])


def test_load_config_rejects_bad_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("model: [unclosed\n")
    with pytest.raises(ConfigurationError, match="YAML"):
        load_config(str(p))


def test_t_max_is_validated_and_recorded():
    doc = base()
    doc["solver"] = {"T_max": 2.0}
    with pytest.raises(ConfigurationError, match="solver.T_max"):
        parse_config(doc)
    doc["solver"]["T_max"] = 32.0
    assert parse_config(doc).resolved()["solver.T_max"] == 32.0
