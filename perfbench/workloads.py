"""The benchmark's workloads: which demonstrations each one generates,
learns, sweeps and evaluates, and how strictly its outputs are checked.

Every workload runs the same round of CLI commands: ``generate`` for each
training demo and its held-out twin, then ``learn``, ``predict`` and
``eval`` for each object. Sizes are chosen so that one round takes 8-13 s
on a 2-core machine; see README.md for why each workload exists and which
layers it should move.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerance:
    """Largest accepted error of a learned model against the object spec."""

    axis_deg: float  # joint axis direction
    offset_m: float  # distance between learned and true revolute lines
    pose_m: float  # predicted part position inside the observed range
    pose_deg: float  # predicted part rotation inside the observed range


# Acceptance criterion 1 (noise-free recovery): 0.1 degree and 1 mm.
EXACT = Tolerance(axis_deg=0.1, offset_m=0.001, pose_m=0.001, pose_deg=0.1)
# The paper's success rule for noisy demonstrations: 10 cm and 25 degrees.
PAPER = Tolerance(axis_deg=25.0, offset_m=0.10, pose_m=0.10, pose_deg=25.0)


@dataclass(frozen=True)
class Demo:
    """One catalog object: its training demo, held-out demo and sweep."""

    object: str
    frames: int
    noise: float = 0.0  # position sigma (m)
    dropout: float = 0.0  # per-frame observation loss
    features: int | None = None  # features per part; None keeps the catalog's
    sweep_step: float = 0.0025  # predict sweep starts at 0 with this step
    sweep_rows: int = 800
    fixed_seed: int | None = None  # generation seed that ignores --seed

    def seeds(self, index: int, seed: int) -> tuple[int, int]:
        """Generation seeds of the training demo and of the held-out demo."""
        base = self.fixed_seed if self.fixed_seed is not None else 100 * seed + 2 * index
        return base, base + 1

    def sweep(self) -> str:
        hi = self.sweep_step * (self.sweep_rows - 1)
        return f"0.0:{hi!r}:{self.sweep_step!r}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    demos: tuple[Demo, ...]
    tolerance: Tolerance
    dump_similarity: bool = False
    # (object, command) pairs that fail on every run because of a known
    # fault of the program; they count as failed operations, not as errors.
    known_faults: frozenset = frozenset()


NOISY = dict(noise=0.005, dropout=0.02)  # acceptance criterion 2's protocol

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clean-long",
            why="noise-free door, drawer and monitor, 50 frames: per-frame loops "
                "over Pose objects dominate and RANSAC never fires",
            demos=(
                Demo("door", frames=50),
                Demo("drawer", frames=50, sweep_step=0.0006),
                Demo("monitor", frames=50),
            ),
            tolerance=EXACT,
        ),
        Workload(
            name="noisy-short",
            why="fixed 16-frame demos at sigma 5 mm, 2 % dropout: the 3-point RANSAC "
                "fallback dominates learn and eval; keeps the laptop fit_revolute fault",
            # Noisy demos fail the success rule on some seeds (a wrong RANSAC
            # consensus, or the laptop fault on other objects), so this
            # workload's inputs do not follow --seed.
            demos=(
                Demo("drawer", frames=16, sweep_step=0.0006, fixed_seed=0, **NOISY),
                Demo("microwave", frames=16, fixed_seed=2, **NOISY),
                # fit_revolute slips its unwrapped circle angle on this demo
                # and the laptop hinge is learned as prismatic
                Demo("laptop", frames=16, fixed_seed=3, **NOISY),
            ),
            tolerance=PAPER,
            known_faults=frozenset({("laptop", "learn")}),
        ),
        Workload(
            name="dense-sweep",
            why="two monitors with 40 features per part: the O(n^2) similarity "
                "passes dominate learn and 750-row sweeps dominate predict",
            demos=(
                Demo("monitor", frames=30, noise=0.002, features=40,
                     sweep_step=0.002, sweep_rows=750),
            ) * 2,
            tolerance=PAPER,
            dump_similarity=True,
        ),
    )
}
