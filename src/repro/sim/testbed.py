"""The 27-node, nine-room indoor testbed layout (paper Fig. 7).

The paper deploys 23 CC2420 senders across nine rooms of an indoor
office (roughly 100 by 50 feet) with four GNU Radio receivers R1-R4
interspersed.  We reproduce the structure: a 3x3 room grid, senders
scattered per room, receivers placed off-centre so every receiver hears
4-8 senders with a spread of link qualities — the property §7.2.2
states ("each sink had between 4 and 8 sender nodes that it could
hear, with the best links having near perfect delivery rates").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import derive_rng

FEET_TO_M = 0.3048


@dataclass(frozen=True)
class TestbedConfig:
    """Node inventory and geometry of a simulated testbed."""

    positions_m: np.ndarray
    sender_ids: tuple[int, ...]
    receiver_ids: tuple[int, ...]
    room_grid: tuple[int, int] = (3, 3)
    area_m: tuple[float, float] = field(
        default=(100 * FEET_TO_M, 50 * FEET_TO_M)
    )

    def __post_init__(self) -> None:
        n = self.positions_m.shape[0]
        ids = set(self.sender_ids) | set(self.receiver_ids)
        if len(ids) != len(self.sender_ids) + len(self.receiver_ids):
            raise ValueError("sender and receiver ids must not overlap")
        if ids != set(range(n)):
            raise ValueError(
                f"ids must cover 0..{n - 1} exactly, got {sorted(ids)}"
            )


def paper_testbed(seed: int = 0) -> TestbedConfig:
    """Generate a Fig. 7-like layout, deterministic in ``seed``.

    The paper's 23 senders are distributed round-robin over a 3x3 room
    grid at uniform positions inside each room; its 4 receivers sit
    near the quarter-points of the floor so each one is surrounded by
    several rooms' worth of senders.
    """
    n_senders, n_receivers = 23, 4
    rng = derive_rng(seed, "testbed-layout")
    width, height = 100 * FEET_TO_M, 50 * FEET_TO_M
    rooms_x, rooms_y = 3, 3
    room_w, room_h = width / rooms_x, height / rooms_y

    sender_positions = []
    for k in range(n_senders):
        room = k % (rooms_x * rooms_y)
        rx, ry = room % rooms_x, room // rooms_x
        margin = 0.15
        x = (rx + rng.uniform(margin, 1 - margin)) * room_w
        y = (ry + rng.uniform(margin, 1 - margin)) * room_h
        sender_positions.append((x, y))

    # Receivers near the interior wall junctions: each hears several
    # rooms' senders at comparable power, the configuration that makes
    # collisions matter (a receiver buried in one room is dominated by
    # its room-mates and captures through everything else).
    anchor_points = [
        (1 / 3, 1 / 3),
        (2 / 3, 1 / 3),
        (1 / 3, 2 / 3),
        (2 / 3, 2 / 3),
    ]
    receiver_positions = []
    for fx, fy in anchor_points:
        x = fx * width + rng.uniform(-1.0, 1.0)
        y = fy * height + rng.uniform(-1.0, 1.0)
        receiver_positions.append((x, y))

    positions = np.array(sender_positions + receiver_positions)
    sender_ids = tuple(range(n_senders))
    receiver_ids = tuple(range(n_senders, n_senders + n_receivers))
    return TestbedConfig(
        positions_m=positions,
        sender_ids=sender_ids,
        receiver_ids=receiver_ids,
    )


def wall_count_matrix(
    positions_m: np.ndarray,
    room_grid: tuple[int, int] = (3, 3),
    area_m: tuple[float, float] = (100 * FEET_TO_M, 50 * FEET_TO_M),
) -> np.ndarray:
    """Interior walls crossed by the straight line between node pairs.

    Rooms form a ``room_grid`` over the floor area; the count is the
    number of interior grid lines (x plus y) the segment between two
    nodes crosses.  Multiplied by a per-wall loss this turns the flat
    log-distance model into a nine-room office where only nearby rooms
    are audible — the connectivity the paper reports (4-8 audible
    senders per sink).
    """
    positions = np.asarray(positions_m, dtype=np.float64)
    n = positions.shape[0]
    rooms_x, rooms_y = room_grid
    width, height = area_m
    counts = np.zeros((n, n), dtype=np.float64)
    x_walls = [width * k / rooms_x for k in range(1, rooms_x)]
    y_walls = [height * k / rooms_y for k in range(1, rooms_y)]
    for i in range(n):
        for j in range(i + 1, n):
            xi, yi = positions[i]
            xj, yj = positions[j]
            crossings = sum(
                1 for w in x_walls if min(xi, xj) < w < max(xi, xj)
            )
            crossings += sum(
                1 for w in y_walls if min(yi, yj) < w < max(yi, yj)
            )
            counts[i, j] = counts[j, i] = crossings
    return counts


#: the near sender's range from the receiver in the collision testbed
COLLISION_NEAR_M = 4.0


def collision_testbed(far_m: float) -> TestbedConfig:
    """Two senders at unequal ranges from one receiver: the near one at
    ``COLLISION_NEAR_M``, the far one at ``far_m``.

    The waveform capture-effect geometry: when both senders overlap on
    the air, the near sender's frame survives at the receiver while the
    far sender's overlapped region is destroyed — the asymmetry the
    waveform-level collision experiments exercise through
    :func:`repro.sim.medium.waveform_capture`.
    """
    if far_m <= COLLISION_NEAR_M:
        raise ValueError(
            f"the far sender must be farther than {COLLISION_NEAR_M} m, "
            f"got {far_m}"
        )
    positions = np.array(
        [[-COLLISION_NEAR_M, 0.0], [far_m, 0.0], [0.0, 0.0]]
    )
    return TestbedConfig(
        positions_m=positions,
        sender_ids=(0, 1),
        receiver_ids=(2,),
        room_grid=(1, 1),
        area_m=(COLLISION_NEAR_M + far_m, 1.0),
    )
