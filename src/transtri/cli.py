"""Scenario runner.

Scenario files are flat structured text: [section] headers and key =
value lines, values being words or space-separated numbers.  See
scenarios/ in the repository for worked examples.

Commands:

    transtri run <scenario> --seed N --out DIR
    transtri verify-only <scenario> --out DIR

--density (curve_density) is for curve maps only, --max-retries and --seed for run.

Exit status 0 when the final report passes, 1 on a failing report or a
pipeline failure, 2 on a scenario parse error.  TRANSTRI_LOG sets the log
level.
"""

import argparse
import inspect
import logging
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .charts import TriangulationState, dump_chain_metadata
from .config import PipelineConfig
from .errors import ConfigError, DomainError, MeshError, PerturbationError
from .perturb import make_transverse
from .render import atomic_write, write_curve_csv, write_obj, write_svg
from .simplicial import grid_triangulation, read_mesh
from .smoothmap import MAP_FAMILIES, map_from_params
from .verify import report_summary, report_to_csv, verify_triangulation

log = logging.getLogger(__name__)

__all__ = ["Scenario", "load_scenario", "run", "verify_only", "main"]


# ---------------------------------------------------------------------------
# scenario file parsing


_SECTIONS = ("scenario", "mesh", "map", "pipeline", "output")


def _parse_sections(path):
    sections = {}
    current = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                if current not in _SECTIONS:
                    raise ConfigError(f"unknown section [{current}]", line=lineno)
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
            if current is None:
                raise ConfigError("key outside any [section]", line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError("empty key", line=lineno)
            key = key.lower()
            if key in sections[current]:
                raise ConfigError(f"key {key!r} repeated in [{current}], first on line "
                                  f"{sections[current][key][1]}", line=lineno)
            sections[current][key] = (value, lineno)
    return sections


def _floats(value, line):
    try:
        return [float(tok) for tok in value.split()]
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {value!r}", line=line) from exc


def _scalar(value, line):
    nums = _floats(value, line)
    if len(nums) != 1:
        raise ConfigError(f"expected one number, got {value!r}", line=line)
    return nums[0]


def _integer(value, line):
    num = _scalar(value, line)
    if not num.is_integer():
        raise ConfigError(f"expected an integer, got {value!r}", line=line)
    return int(num)


def _boolean(value, line):
    v = value.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}", line=line)


@dataclass
class Scenario:
    """Parsed scenario: mesh source, map spec, pipeline knobs, outputs."""

    ambient_dim: int
    mesh_spec: dict
    map_family: str
    map_params: dict
    config: PipelineConfig
    outputs: dict = field(default_factory=dict)
    base_dir: str = "."


_PIPELINE_TYPES = {f.name: type(f.default) for f in fields(PipelineConfig)}


def load_scenario(path):
    """Parse a scenario file; raises ConfigError with a line number."""
    sections = _parse_sections(path)
    try:
        scen = sections["scenario"]
        mesh = sections["mesh"]
        mp = sections["map"]
    except KeyError as exc:
        raise ConfigError(f"missing section [{exc.args[0]}]") from exc

    for key, (_, line) in scen.items():
        if key != "ambient_dim":
            raise ConfigError(f"unknown scenario key {key!r}", line=line)
    if "ambient_dim" not in scen:
        raise ConfigError("missing ambient_dim in [scenario]")
    m = _integer(*scen["ambient_dim"])
    if m not in (2, 3):
        raise ConfigError(f"ambient_dim must be 2 or 3, got {m}",
                          line=scen["ambient_dim"][1])

    mesh_spec = {}
    gen = mesh.get("generator", ("grid", None))[0].lower()
    mesh_spec["generator"] = gen
    if gen == "grid":
        allowed_mesh = {"generator", "box_lo", "box_hi", "resolution"}
        for key in ("box_lo", "box_hi"):
            if key not in mesh:
                raise ConfigError(f"grid mesh needs {key}")
            vals = _floats(*mesh[key])
            if len(vals) != m:
                raise ConfigError(f"{key} needs {m} numbers", line=mesh[key][1])
            mesh_spec[key] = vals
        mesh_spec["resolution"] = _integer(*mesh.get("resolution", ("1", None)))
    elif gen == "file":
        allowed_mesh = {"generator", "path"}
        if "path" not in mesh:
            raise ConfigError("file mesh needs path")
        mesh_spec["path"] = mesh["path"][0]
    else:
        raise ConfigError(f"unknown mesh generator {gen!r}")
    for key, (_, line) in mesh.items():
        if key not in allowed_mesh:
            raise ConfigError(f"unknown mesh key {key!r}", line=line)

    if "family" not in mp:
        raise ConfigError("missing family in [map]")
    family = mp["family"][0].lower()
    if family not in MAP_FAMILIES:
        raise ConfigError(f"unknown map family {family!r}", line=mp["family"][1])
    params = _map_params(family, mp, m)

    overrides = {}
    for key, (value, line) in sections.get("pipeline", {}).items():
        kind = _PIPELINE_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"unknown pipeline key {key!r}", line=line)
        unread = _unread_density(key, family, params)
        if unread:
            raise ConfigError(unread, line=line)
        overrides[key] = _integer(value, line) if kind is int else _scalar(value, line)
    try:
        config = PipelineConfig(**overrides)
    except ValueError as exc:
        raise ConfigError(f"[pipeline] {exc}") from exc

    outputs = {"svg": m == 2, "obj": m == 3, "curve_csv": m == 3}
    for key, (value, line) in sections.get("output", {}).items():
        if key not in outputs:
            raise ConfigError(f"unknown output key {key!r}", line=line)
        outputs[key] = _boolean(value, line)

    return Scenario(ambient_dim=m, mesh_spec=mesh_spec, map_family=family,
                    map_params=params, config=config, outputs=outputs,
                    base_dir=os.path.dirname(os.path.abspath(path)))


_POINT_KEYS = {"value", "origin", "direction", "center", "u1", "u2"}

# the seed density each domain kind reads; a map of another kind ignores it
_DENSITY_DOMAIN = {"curve_density": "interval", "surface_density": "box"}


def _unread_density(key, family, params):
    """Why a map of the family would ignore the [pipeline] key, or None."""
    want = _DENSITY_DOMAIN.get(key)
    kind = want and map_from_params(family, params).domain.kind
    if kind != want:
        return f"{key} is read only by maps with {want} domains; a {family} map has a {kind} domain"


def _map_params(family, section, m):
    # keys the family's constructor takes; coeff* rows stand for coeffs
    accepted = set(inspect.signature(MAP_FAMILIES[family]).parameters)
    params = {}
    coeff_rows = {}
    for key, (value, line) in section.items():
        if key == "family":
            continue
        if ("coeffs" if key.startswith("coeff") else key) not in accepted:
            raise ConfigError(f"unknown map key {key!r} for family {family}", line=line)
        vals = _floats(value, line)
        # a point or coefficient row has one number per ambient axis
        if key.startswith("coeff") or key in _POINT_KEYS:
            count = m
        else:
            count = 2 if key in ("lo", "hi") and family == "surface_patch" else 1
        if len(vals) != count:
            raise ConfigError(f"map key {key!r} for family {family} needs {count} "
                              f"number{'s' * (count > 1)}, got {value!r}", line=line)
        if key.startswith("coeff"):
            coeff_rows[key] = (vals, line)
        elif count > 1:
            params[key] = vals
        else:
            params[key] = _integer(value, line) if key in ("p", "q") else vals[0]
    if family == "poly_curve":
        if not coeff_rows:
            raise ConfigError("poly_curve needs coeff0, coeff1, ...")
        rows = []
        for k in range(len(coeff_rows)):
            name = f"coeff{k}"
            if name not in coeff_rows:
                raise ConfigError(f"missing {name} in [map]")
            rows.append(coeff_rows[name][0])
        params["coeffs"] = np.array(rows)
    elif family == "surface_patch":
        if not coeff_rows:
            raise ConfigError("surface_patch needs coeff_<j>_<k> rows")
        degs = []
        for name in coeff_rows:
            try:
                _, j, k = name.split("_")
                degs.append((int(j), int(k)))
            except ValueError as exc:
                raise ConfigError(f"bad coefficient key {name!r}",
                                  line=coeff_rows[name][1]) from exc
        dj = max(d[0] for d in degs) + 1
        dk = max(d[1] for d in degs) + 1
        coeffs = np.zeros((dj, dk, m))
        for name, (vals, line) in coeff_rows.items():
            _, j, k = name.split("_")
            coeffs[int(j), int(k)] = vals
        params["coeffs"] = coeffs
    return params


# ---------------------------------------------------------------------------
# execution


def _build_inputs(scenario):
    spec = scenario.mesh_spec
    if spec["generator"] == "grid":
        cplx, real = grid_triangulation(spec["box_lo"], spec["box_hi"], spec["resolution"])
    else:
        path = spec["path"]
        if not os.path.isabs(path):
            path = os.path.join(scenario.base_dir, path)
        cplx, real = read_mesh(path)
    if real.ambient_dim != scenario.ambient_dim:
        raise MeshError(f"mesh is {real.ambient_dim}-dimensional, scenario says "
                        f"{scenario.ambient_dim}")
    h = map_from_params(scenario.map_family, scenario.map_params)
    if h.ambient_dim != scenario.ambient_dim:
        raise MeshError("map codomain dimension does not match the scenario")
    return cplx, real, h


def _write_artifacts(out_dir, scenario, state, h, report, elapsed):
    os.makedirs(out_dir, exist_ok=True)
    atomic_write(os.path.join(out_dir, "report.csv"), report_to_csv(report))
    summary = report_summary(report) + f"elapsed-seconds: {elapsed:.2f}\n"
    atomic_write(os.path.join(out_dir, "summary.txt"), summary)
    atomic_write(os.path.join(out_dir, "chain_metadata.txt"), dump_chain_metadata(state))
    if scenario.outputs.get("svg"):
        write_svg(os.path.join(out_dir, "mesh.svg"), state, h, report)
    if scenario.outputs.get("obj"):
        write_obj(os.path.join(out_dir, "mesh.obj"), state)
    if scenario.outputs.get("curve_csv") and h.domain.kind != "point":
        write_curve_csv(os.path.join(out_dir, "curve_samples.csv"), h)


def run(scenario, seed=None, out_dir="out"):
    """Full pipeline on a scenario; writes artifacts; 0 iff report passes."""
    config = scenario.config if seed is None else scenario.config.replace(seed=seed)
    cplx, real, h = _build_inputs(scenario)
    t0 = time.monotonic()
    try:
        state, report = make_transverse(cplx, real, h, config)
    except PerturbationError as exc:
        log.error("pipeline failed: %s", exc)
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return 1
    return _finish(out_dir, scenario, state, h, report, t0)


def verify_only(scenario, out_dir="out"):
    """Verifier on the unperturbed mesh; useful to exhibit degeneracies."""
    cplx, real, h = _build_inputs(scenario)
    state = TriangulationState(cplx, real)
    t0 = time.monotonic()
    report = verify_triangulation(state, h, scenario.config)
    return _finish(out_dir, scenario, state, h, report, t0)


def _finish(out_dir, scenario, state, h, report, t0):
    """Write the artifacts of a report computed since t0, print the verdict
    and return the exit status: 0 iff the report passes."""
    elapsed = time.monotonic() - t0
    _write_artifacts(out_dir, scenario, state, h, report, elapsed)
    print(f"{'PASS' if report.passed else 'FAIL'} in {elapsed:.2f}s; "
          f"artifacts in {out_dir}")
    return 0 if report.passed else 1


def _apply_cli_overrides(scenario, args):
    flags = {"density": "curve_density", "max_retries": "max_retries",
             "tol_rank": "tol_rank", "seed": "seed"}
    overrides = {key: getattr(args, flag) for flag, key in flags.items()
                 if getattr(args, flag, None) is not None}
    try:
        scenario.config = scenario.config.replace(**overrides)
    except ValueError as exc:
        raise ConfigError(f"command line: {exc}") from exc
    if args.density is not None:
        unread = _unread_density("curve_density", scenario.map_family, scenario.map_params)
        if unread:
            raise ConfigError(f"command line: --density: {unread}")


def main(argv=None):
    level = os.environ.get("TRANSTRI_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="transtri", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify-only"):
        p = sub.add_parser(name)
        p.add_argument("scenario")
        p.add_argument("--out", required=True)
        p.add_argument("--density", type=int, default=None)
        p.add_argument("--tol-rank", type=float, default=None)
        if name == "run":  # verify-only samples no shifts
            p.add_argument("--max-retries", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        _apply_cli_overrides(scenario, args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return run(scenario, out_dir=args.out)
        return verify_only(scenario, out_dir=args.out)
    except (MeshError, DomainError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
