"""Tests for the testbed layout generator and wall geometry."""

import numpy as np
import pytest

from repro.sim.testbed import (
    FEET_TO_M,
    TestbedConfig as _TestbedConfig,
    paper_testbed,
    wall_count_matrix,
)
from repro.utils.rng import ensure_rng


class TestPaperTestbed:
    def test_node_inventory(self):
        tb = paper_testbed(seed=0)
        assert tb.positions_m.shape == (27, 2)
        assert tb.sender_ids == tuple(range(23))
        assert tb.receiver_ids == (23, 24, 25, 26)

    def test_positions_inside_floor(self):
        tb = paper_testbed(seed=3)
        width, height = 100 * FEET_TO_M, 50 * FEET_TO_M
        assert np.all(tb.positions_m[:, 0] >= -2)
        assert np.all(tb.positions_m[:, 0] <= width + 2)
        assert np.all(tb.positions_m[:, 1] >= -2)
        assert np.all(tb.positions_m[:, 1] <= height + 2)

    def test_deterministic_in_seed(self):
        a = paper_testbed(seed=7).positions_m
        b = paper_testbed(seed=7).positions_m
        c = paper_testbed(seed=8).positions_m
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_senders_cover_every_room(self):
        tb = paper_testbed(seed=0)
        width, height = tb.area_m
        room_of = (
            np.floor(tb.positions_m[:23, 0] / (width / 3)).astype(int)
            + 3 * np.floor(tb.positions_m[:23, 1] / (height / 3)).astype(int)
        )
        assert len(set(room_of.tolist())) == 9

    def test_id_overlap_rejected(self):
        with pytest.raises(ValueError, match="not overlap"):
            _TestbedConfig(
                positions_m=np.zeros((2, 2)),
                sender_ids=(0,),
                receiver_ids=(0,),
            )

    def test_id_coverage_enforced(self):
        with pytest.raises(ValueError, match="cover"):
            _TestbedConfig(
                positions_m=np.zeros((3, 2)),
                sender_ids=(0,),
                receiver_ids=(2,),
            )


class TestWallCounts:
    def test_same_room_no_walls(self):
        positions = np.array([[1.0, 1.0], [2.0, 2.0]])
        walls = wall_count_matrix(positions, (3, 3), (30.0, 15.0))
        assert walls[0, 1] == 0

    def test_adjacent_room_one_wall(self):
        positions = np.array([[5.0, 2.0], [15.0, 2.0]])
        walls = wall_count_matrix(positions, (3, 3), (30.0, 15.0))
        assert walls[0, 1] == 1

    def test_diagonal_room_two_walls(self):
        positions = np.array([[5.0, 2.0], [15.0, 7.0]])
        walls = wall_count_matrix(positions, (3, 3), (30.0, 15.0))
        assert walls[0, 1] == 2

    def test_across_floor_four_walls(self):
        positions = np.array([[1.0, 1.0], [29.0, 14.0]])
        walls = wall_count_matrix(positions, (3, 3), (30.0, 15.0))
        assert walls[0, 1] == 4

    def test_symmetric_zero_diagonal(self):
        rng = ensure_rng(0)
        positions = rng.uniform(0, 30, size=(6, 2))
        walls = wall_count_matrix(positions, (3, 3), (30.0, 30.0))
        assert np.array_equal(walls, walls.T)
        assert np.all(np.diag(walls) == 0)
