"""Machine-speed probe for the end-to-end metrics.

On a shared machine the same work runs tens of percent faster or slower
from one minute to the next (measured on the shared 2-vCPU virtual
machine of the reference figures: one 15-epoch `fit` took 18.6 s, then
20.6 s, then 24.2 s, back to back, with CPU time equal to wall time). A
run therefore times a fixed computation of the benchmark's own, the numpy
reference forward of `reference.py` on a fixed bench-width model and
batch, before and after each timed interval and at each epoch start
inside `fit`. Each stretch between two probes is scaled by `REFERENCE_S`
over the mean of those two probes' times, so that two runs report what
the program would take at the same machine speed; probe time itself is
left out. The probe shares no code with the program, so a change to the
program cannot change it.
"""

from __future__ import annotations

import statistics
import time
import types

import numpy as np

import reference

PROBE_CALLS = 4
# median probe time, in seconds, on the machine of the reference figures
REFERENCE_S = 0.025


def _probe_model(d: int = 64, d_ff: int = 128, W: int = 5, layers: int = 2):
    rng = np.random.default_rng(0)
    shapes = {"proj.weight": (d, d), "proj.bias": (d,), "pos": (W, d),
              "cls_verb": (d,), "cls_noun": (d,),
              "head_verb.weight": (d, 24), "head_verb.bias": (24,),
              "head_noun.weight": (d, 15), "head_noun.bias": (15,)}
    for i in range(layers):
        for part in ("q", "k", "v", "out"):
            shapes[f"enc.{i}.attn.{part}.weight"] = (d, d)
            shapes[f"enc.{i}.attn.{part}.bias"] = (d,)
        for ln in ("ln1", "ln2"):
            shapes[f"enc.{i}.{ln}.gain"] = (d,)
            shapes[f"enc.{i}.{ln}.bias"] = (d,)
        shapes.update({f"enc.{i}.ff_in.weight": (d, d_ff), f"enc.{i}.ff_in.bias": (d_ff,),
                       f"enc.{i}.ff_out.weight": (d_ff, d), f"enc.{i}.ff_out.bias": (d,)})
    params = {name: rng.uniform(-0.3, 0.3, shape) for name, shape in shapes.items()}
    config = types.SimpleNamespace(W=W, n_enc_layers=layers, n_heads=4, layer_norm_eps=1e-5)
    return params, config, rng.standard_normal((64, W, d))


class SpeedProbe:
    """Probes on demand and converts the time between two probes. When
    disabled (traced runs) a probe takes no time and scales by one."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.params, self.config, self.x = _probe_model()
        self.marks: list[tuple[float, float, float]] = []   # start, end, probe time

    def sample(self) -> int:
        """Run one probe; return its index for `seconds`."""
        start = time.perf_counter()
        if self.enabled:
            for _ in range(PROBE_CALLS):
                reference.reference_logits(self.params, self.config, self.x)
        end = time.perf_counter()
        self.marks.append((start, end, end - start if self.enabled else REFERENCE_S))
        return len(self.marks) - 1

    def seconds(self, first: int, last: int) -> float:
        """Time from probe `first` to probe `last` at the reference machine
        speed, without the probes in between."""
        total = 0.0
        for (_s0, end, took0), (start, _e1, took1) in zip(self.marks[first:last],
                                                          self.marks[first + 1:last + 1]):
            total += (start - end) * 2 * REFERENCE_S / (took0 + took1)
        return total

    def speed(self) -> float:
        """Median machine speed of the run relative to the reference."""
        return REFERENCE_S / statistics.median(took for _s, _e, took in self.marks)
