"""Deterministic per-client round-time model and capability ingestion/synthesis.

The synthesis bounds (CapabilityBounds) are a config section, defined in `config`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CapabilityBounds
from .errors import ParseError


@dataclass(frozen=True)
class ClientProfile:
    """Hardware capability of one client."""

    client_id: str
    time_per_sample_s: float
    down_bw_Bps: float
    up_bw_Bps: float

    def __post_init__(self):
        if self.time_per_sample_s <= 0:
            raise ValueError(f"{self.client_id}: time_per_sample must be > 0")
        if self.down_bw_Bps <= 0 or self.up_bw_Bps <= 0:
            raise ValueError(f"{self.client_id}: bandwidths must be > 0")


@dataclass(frozen=True)
class TaskDims:
    """The task numbers the cost model needs."""

    model_size_bytes: float
    local_epochs: int
    batch_size: int

    def __post_init__(self):
        if self.model_size_bytes <= 0:
            raise ValueError("model_size_bytes must be > 0")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("local_epochs and batch_size must be >= 1")


def round_time(profile: ClientProfile, num_samples: int, dims: TaskDims) -> float:
    """Download + epochs * num_samples (shard size) * per-sample time + upload, in s.

    Shared by the engine (ground truth) and FedCS/TiFL (estimate), so the
    estimation error is zero by construction.
    """
    if num_samples < 0:
        raise ValueError(f"{profile.client_id}: num_samples must be >= 0")
    down = dims.model_size_bytes / profile.down_bw_Bps
    up = dims.model_size_bytes / profile.up_bw_Bps
    compute = dims.local_epochs * num_samples * profile.time_per_sample_s
    return down + compute + up


def parse_capability_file(text: str) -> list[ClientProfile]:
    """Parse `<client_id> <time_per_sample_s> <down_bw_Bps> <up_bw_Bps>` lines."""
    profiles: list[ClientProfile] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        cid = fields[0]
        if cid in seen:
            raise ParseError(f"line {lineno}: duplicate client id {cid!r}")
        seen.add(cid)
        try:
            tps, down, up = (float(v) for v in fields[1:])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric capability value") from None
        try:
            profiles.append(ClientProfile(cid, tps, down, up))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return profiles


def generate_profiles(n: int, bounds: CapabilityBounds, rng_seed) -> list[ClientProfile]:
    """Draw n profiles with log-uniform capabilities inside the given bounds."""
    if n < 1:
        raise ValueError(f"need n >= 1 profiles, got {n}")
    rng = np.random.default_rng(rng_seed)

    def draw(lo: float, hi: float) -> float:
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    profiles = []
    for i in range(n):
        tps = draw(*bounds.time_per_sample_s)
        down = draw(*bounds.down_bw_Bps)
        up = draw(*bounds.up_bw_Bps)
        profiles.append(ClientProfile(f"c{i}", tps, down, up))
    return profiles
