"""Deterministic per-client round-time model and capability ingestion/synthesis.

Capabilities are one (N, 3) float64 array, columns named by CAPABILITY_FIELDS.
The synthesis bounds (CapabilityBounds) are a config section, defined in `config`;
`round_time` takes the task's model size and epoch count as plain numbers.
"""

from __future__ import annotations

import math

import numpy as np

from .config import CapabilityBounds
from .errors import ParseError

# The columns of a capability array, in order.
CAPABILITY_FIELDS = ("time_per_sample_s", "down_bw_Bps", "up_bw_Bps")


def round_time(
    caps: np.ndarray, num_samples: np.ndarray, model_size_bytes: float, local_epochs: int
) -> np.ndarray:
    """Download + epochs * num_samples (shard size) * per-sample time + upload, in s.

    Elementwise over clients (row c of `caps`, entry c of `num_samples`), in
    the order of the per-client sum. The model size and epoch count come from
    an already validated `config.TaskCfg` (through `learning.model_size_bytes`).
    Shared by the engine (ground truth) and FedCS/TiFL (estimate), so the
    estimation error is zero by construction. An overflowing quotient is inf,
    without a warning, as with Python floats.
    """
    num_samples = np.asarray(num_samples)
    if (num_samples < 0).any():
        raise ValueError(f"num_samples must be >= 0, got {num_samples.min()}")
    with np.errstate(over="ignore"):
        down = model_size_bytes / caps[:, 1]
        up = model_size_bytes / caps[:, 2]
        compute = local_epochs * num_samples * caps[:, 0]
        return down + compute + up


def parse_capability_file(text: str) -> tuple[list[str], np.ndarray]:
    """Parse `<client_id> <time_per_sample_s> <down_bw_Bps> <up_bw_Bps>` lines."""
    rows: dict[str, tuple[float, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        cid = fields[0]
        if cid in rows:
            raise ParseError(f"line {lineno}: duplicate client id {cid!r}")
        try:
            rows[cid] = tuple(float(v) for v in fields[1:])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric capability value") from None
        for name, value in zip(CAPABILITY_FIELDS, rows[cid]):
            if not 0 < value < math.inf:
                raise ParseError(
                    f"line {lineno}: {cid}: {name} must be finite and > 0, got {value}"
                )
    return list(rows), np.array(list(rows.values()), dtype=np.float64).reshape(-1, 3)


def generate_profiles(n: int, bounds: CapabilityBounds, rng_seed) -> tuple[list[str], np.ndarray]:
    """Ids c0.. and n log-uniform rows inside the bounds, drawn in per-client order."""
    if n < 1:
        raise ValueError(f"need n >= 1 profiles, got {n}")
    rng = np.random.default_rng(rng_seed)
    lo, hi = np.log([getattr(bounds, name) for name in CAPABILITY_FIELDS]).T
    return [f"c{i}" for i in range(n)], np.exp(rng.uniform(lo, hi, size=(n, 3)))
