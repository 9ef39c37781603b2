"""Custom workload construction and (de)serialization.

Downstream users rarely want exactly the paper's eight benchmarks; this
module gives them three ways to make their own:

* :func:`spec_from_dict` / :func:`spec_to_dict` — JSON-friendly
  round-tripping, so specs can live in config files
  (``python -m repro`` accepts them via the registry after
  :func:`register`);
* :func:`derive` — start from a registered benchmark and override
  fields (``derive("zeus", ws_factor=5.0)``);
* :class:`WorkloadBuilder` — a guided builder with named presets for
  the common axes (footprint, streaming behaviour, compressibility).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Union

from repro.core import durable
from repro.workloads.base import WorkloadSpec
from repro.workloads.registry import WORKLOADS, get_spec
from repro.workloads.values import VALUE_CLASSES

_TUPLE_FIELDS = ("stream_strides", "value_mix")


def spec_to_dict(spec: WorkloadSpec) -> Dict:
    data = dataclasses.asdict(spec)
    for field in _TUPLE_FIELDS:
        data[field] = [list(pair) for pair in data[field]]
    return data


def spec_from_dict(data: Dict) -> WorkloadSpec:
    kwargs = dict(data)
    for field in _TUPLE_FIELDS:
        if field in kwargs:
            kwargs[field] = tuple((item[0], item[1]) for item in kwargs[field])
    unknown = set(kwargs) - {f.name for f in dataclasses.fields(WorkloadSpec)}
    if unknown:
        raise ValueError(f"unknown workload fields: {sorted(unknown)}")
    return WorkloadSpec(**kwargs)


def save_spec(spec: WorkloadSpec, path: Union[str, Path]) -> None:
    text = json.dumps(spec_to_dict(spec), indent=2)
    durable.atomic_write(str(path), text.encode("utf-8"))


def load_spec(path: Union[str, Path]) -> WorkloadSpec:
    return spec_from_dict(json.loads(Path(path).read_text()))


def derive(base: Union[str, WorkloadSpec], **overrides) -> WorkloadSpec:
    """A registered (or given) spec with fields overridden.

    >>> big_zeus = derive("zeus", name="zeus-5x", ws_factor=5.0)
    """
    spec = get_spec(base) if isinstance(base, str) else base
    return dataclasses.replace(spec, **overrides)


def register(spec: WorkloadSpec, *, overwrite: bool = False) -> WorkloadSpec:
    """Add a spec to the global registry (so CLI/benches can name it)."""
    if spec.name in WORKLOADS and not overwrite:
        raise ValueError(f"workload {spec.name!r} already registered")
    WORKLOADS[spec.name] = spec
    return spec


class WorkloadBuilder:
    """Guided construction of a synthetic workload.

    >>> spec = (WorkloadBuilder("myapp")
    ...         .footprint(ws_factor=2.5, locality=1.8)
    ...         .streaming(fraction=0.3, length=20, strides=((1, 0.8), (4, 0.2)))
    ...         .instruction_mix(footprint_factor=4.0, instr_per_event=35.0)
    ...         .sharing(shared_fraction=0.1, store_fraction=0.2)
    ...         .values(("byte_text", 0.5), ("random", 0.5))
    ...         .core(tolerance=0.3)
    ...         .build())
    """

    def __init__(self, name: str) -> None:
        # Start from a neutral mid-point; every axis can be overridden.
        self._fields: Dict = dict(
            name=name,
            ws_factor=2.0,
            locality=1.8,
            stride_fraction=0.3,
            stream_length=32,
            stream_strides=((1, 1.0),),
            streams_per_core=4,
            store_fraction=0.2,
            shared_fraction=0.1,
            i_footprint_l1i_factor=2.0,
            i_jump_prob=0.2,
            i_locality=2.0,
            instr_per_event=35.0,
            tolerance=0.35,
            cpi_base=1.0,
            value_mix=(("small_int", 0.5), ("random", 0.5)),
            description=f"custom workload {name!r}",
        )

    def footprint(self, *, ws_factor: float, locality: float,
                  hot_fraction: float = None, hot_l1d_factor: float = None) -> "WorkloadBuilder":
        self._fields.update(ws_factor=ws_factor, locality=locality)
        if hot_fraction is not None:
            self._fields["hot_fraction"] = hot_fraction
        if hot_l1d_factor is not None:
            self._fields["hot_l1d_factor"] = hot_l1d_factor
        return self

    def streaming(self, *, fraction: float, length: int, strides=None,
                  streams_per_core: int = None) -> "WorkloadBuilder":
        self._fields.update(stride_fraction=fraction, stream_length=length)
        if strides is not None:
            self._fields["stream_strides"] = tuple(strides)
        if streams_per_core is not None:
            self._fields["streams_per_core"] = streams_per_core
        return self

    def instruction_mix(self, *, footprint_factor: float, instr_per_event: float,
                        jump_prob: float = None) -> "WorkloadBuilder":
        self._fields.update(
            i_footprint_l1i_factor=footprint_factor, instr_per_event=instr_per_event
        )
        if jump_prob is not None:
            self._fields["i_jump_prob"] = jump_prob
        return self

    def sharing(self, *, shared_fraction: float, store_fraction: float) -> "WorkloadBuilder":
        self._fields.update(shared_fraction=shared_fraction, store_fraction=store_fraction)
        return self

    def values(self, *mix) -> "WorkloadBuilder":
        for name, _ in mix:
            if name not in VALUE_CLASSES:
                raise ValueError(f"unknown value class {name!r}")
        self._fields["value_mix"] = tuple(mix)
        return self

    def core(self, *, tolerance: float, cpi_base: float = None) -> "WorkloadBuilder":
        self._fields["tolerance"] = tolerance
        if cpi_base is not None:
            self._fields["cpi_base"] = cpi_base
        return self

    def build(self) -> WorkloadSpec:
        return WorkloadSpec(**self._fields)
