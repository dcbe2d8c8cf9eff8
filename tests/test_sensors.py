"""Sensor models: encoders, IMU, ultrasonic raycasts, lidar and limit
switches."""

import math

import numpy as np
import pytest

from prisquad.model import BodyPose, Box, JointState, RobotGeometry, Rope, WorldModel
from prisquad.sensors import (
    LidarConfig,
    UltrasonicMount,
    joints_from_encoders,
    lidar_scan,
    lidar_to_global,
    read_encoders,
    read_imu,
    read_limit_switches,
    read_ultrasonic,
)

GEOM = RobotGeometry()


class TestEncoders:
    def test_one_slide_revolution(self):
        joints = JointState(slide_lower=2.0 * math.pi * GEOM.pulley_radius)
        counts = read_encoders(joints, GEOM)
        assert counts[0] == 600

    def test_vertical_millimetre_scaling(self):
        # 4 mm of lift on an 8 mm lead = half a turn = 300 counts
        joints = JointState(d_vert=[0.4, 0.0, 0.0, 0.0])
        counts = read_encoders(joints, GEOM)
        assert counts[2] == 300

    def test_quantization_to_nearest_count(self):
        step = 2.0 * math.pi * GEOM.pulley_radius / GEOM.encoder_cpr
        a = read_encoders(JointState(slide_lower=10.0), GEOM)
        b = read_encoders(JointState(slide_lower=10.0 + 0.4 * step), GEOM)
        c = read_encoders(JointState(slide_lower=10.0 + 0.6 * step), GEOM)
        assert a[0] == b[0]
        assert c[0] == a[0] + 1

    def test_steer_axis_counts_full_circle_fractions(self):
        joints = JointState(steer_alpha=math.pi / 2.0)
        counts = read_encoders(joints, GEOM)
        assert counts[6] == 150

    def test_reconstruction_within_half_a_count(self):
        joints = JointState(
            d_vert=[1.234, 5.678, 9.012, 12.9],
            slide_lower=13.37,
            slide_upper=21.0,
            steer_alpha=0.456,
        )
        counts = read_encoders(joints, GEOM)
        back = joints_from_encoders(counts, GEOM)
        slide_res = 2.0 * math.pi * GEOM.pulley_radius / GEOM.encoder_cpr
        vert_res = GEOM.leadscrew_lead_mm / 10.0 / GEOM.encoder_cpr
        assert abs(back.slide_lower - joints.slide_lower) <= slide_res / 2
        assert abs(back.slide_upper - joints.slide_upper) <= slide_res / 2
        for i in range(4):
            assert abs(back.d_vert[i] - joints.d_vert[i]) <= vert_res / 2
        assert abs(back.steer_alpha - joints.steer_alpha) <= math.pi / GEOM.encoder_cpr


class TestImu:
    def test_noiseless_read_is_exact(self):
        pose = BodyPose(heading_phi=0.7, pitch=0.1)
        assert read_imu(pose) == (0.7, 0.1)

    def test_seeded_noise_is_reproducible(self):
        pose = BodyPose(heading_phi=0.3)
        a = [read_imu(pose, 0.5, np.random.default_rng(42)) for _ in range(5)]
        b = [read_imu(pose, 0.5, np.random.default_rng(42)) for _ in range(5)]
        assert a == b

    def test_sample_mean_matches_truth(self):
        # statistical oracle: mean of 10^4 draws within 3 sigma / 100
        pose = BodyPose(heading_phi=0.25)
        rng = np.random.default_rng(7)
        sigma = math.radians(0.5)
        draws = [read_imu(pose, 0.5, rng)[0] for _ in range(10_000)]
        assert abs(float(np.mean(draws)) - 0.25) < 3.0 * sigma / 100.0


class TestUltrasonic:
    MOUNT = UltrasonicMount(offset_x=0.0, offset_z=0.0, height=8.0)

    def test_block_dead_ahead(self):
        world = WorldModel(obstacles=[Box(x=35.0, z=0.0, width=40.0, depth=10.0, height=10.0)])
        r = read_ultrasonic(BodyPose(), world, self.MOUNT)
        assert r == pytest.approx(30.0, abs=1e-9)

    def test_empty_world_no_echo(self):
        assert read_ultrasonic(BodyPose(), WorldModel(), self.MOUNT) is None

    def test_block_behind_no_echo(self):
        world = WorldModel(obstacles=[Box(x=-35.0, z=0.0, width=40.0, depth=10.0, height=10.0)])
        assert read_ultrasonic(BodyPose(), world, self.MOUNT) is None

    def test_short_obstacle_under_the_beam_no_echo(self):
        world = WorldModel(obstacles=[Box(x=35.0, z=0.0, width=40.0, depth=10.0, height=5.0)])
        assert read_ultrasonic(BodyPose(), world, self.MOUNT) is None

    def test_rope_near_beam_height_echoes(self):
        world = WorldModel(obstacles=[Rope(x=50.0, z=0.0, span=100.0, height=9.0)])
        assert read_ultrasonic(BodyPose(), world, self.MOUNT) == pytest.approx(50.0)

    def test_range_clamps_to_sensor_envelope(self):
        world = WorldModel(obstacles=[Box(x=1.0, z=0.0, width=40.0, depth=1.0, height=10.0)])
        assert read_ultrasonic(BodyPose(), world, self.MOUNT) == 2.0
        world = WorldModel(obstacles=[Box(x=500.0, z=0.0, width=40.0, depth=10.0, height=10.0)])
        assert read_ultrasonic(BodyPose(), world, self.MOUNT) is None


class TestLidar:
    def test_beam_count_for_full_sector(self):
        # 180 degrees at 0.15 degrees: floor(180 / 0.15) + 1 = 1201 beams
        cfg = LidarConfig()
        assert len(cfg.beam_azimuths_deg()) == 1201
        scan = lidar_scan(BodyPose(), WorldModel(), cfg)
        assert len(scan) == 1201

    def test_azimuth_grid_is_exact_arithmetic_progression(self):
        cfg = LidarConfig(angular_resolution_deg=0.5, sector_deg=(-10.0, 10.0))
        az = cfg.beam_azimuths_deg()
        assert len(az) == 41
        np.testing.assert_array_equal(az, -10.0 + 0.5 * np.arange(41))

    def test_obstacle_dead_ahead(self):
        cfg = LidarConfig(angular_resolution_deg=1.0, sector_deg=(-10.0, 10.0), mount_height=35.0)
        world = WorldModel(obstacles=[Box(x=55.0, z=0.0, width=40.0, depth=10.0, height=60.0)])
        scan = lidar_scan(BodyPose(), world, cfg)
        centre = scan[10]
        assert centre[0] == pytest.approx(0.0, abs=1e-12)
        assert centre[1] == pytest.approx(50.0, abs=1e-9)

    def test_empty_world_all_max_range(self):
        cfg = LidarConfig(angular_resolution_deg=5.0, sector_deg=(-30.0, 30.0), max_range_cm=250.0)
        scan = lidar_scan(BodyPose(), world=WorldModel(), cfg=cfg)
        assert all(r == 250.0 for _, r in scan)

    def test_swap_scan_reverses_odd_sweeps(self):
        cfg = LidarConfig(angular_resolution_deg=5.0, sector_deg=(-30.0, 30.0))
        fwd = lidar_scan(BodyPose(), WorldModel(), cfg, sweep_index=0)
        rev = lidar_scan(BodyPose(), WorldModel(), cfg, sweep_index=1)
        assert [a for a, _ in rev] == [a for a, _ in fwd][::-1]

    def test_low_obstacles_invisible(self):
        cfg = LidarConfig(angular_resolution_deg=5.0, sector_deg=(-30.0, 30.0), mount_height=35.0)
        world = WorldModel(obstacles=[Box(x=50.0, z=0.0, width=40.0, depth=10.0, height=10.0)])
        scan = lidar_scan(BodyPose(), world, cfg)
        assert all(r == cfg.max_range_cm for _, r in scan)

    def test_range_quantization_snaps_to_grid(self):
        cfg = LidarConfig(
            angular_resolution_deg=2.0, sector_deg=(-20.0, 20.0),
            mount_height=35.0, range_quantization_cm=0.5,
        )
        world = WorldModel(obstacles=[Box(x=55.3, z=0.0, width=80.0, depth=10.0, height=60.0)])
        scan = lidar_scan(BodyPose(), world, cfg)
        hits = [r for _, r in scan if r < cfg.max_range_cm]
        assert hits
        assert all(abs(r / 0.5 - round(r / 0.5)) < 1e-9 for r in hits)


class TestLidarToGlobal:
    def test_identity_at_origin(self):
        scan = [(0.0, 10.0), (math.pi / 2.0, 5.0)]
        pts = lidar_to_global(scan, BodyPose())
        np.testing.assert_allclose(pts, [[10.0, 0.0], [0.0, 5.0]], atol=1e-12)

    def test_quarter_turn(self):
        scan = [(0.0, 7.0)]
        pts = lidar_to_global(scan, BodyPose(heading_phi=math.pi / 2.0))
        np.testing.assert_allclose(pts, [[0.0, 7.0]], atol=1e-9)

    def test_round_trip_recovers_obstacle_face(self):
        # place a wall, scan, project: the recovered points must lie on the
        # wall's near face within quantization plus numerical slack
        cfg = LidarConfig(angular_resolution_deg=1.0, sector_deg=(-20.0, 20.0), mount_height=35.0)
        wall_x = 60.0
        world = WorldModel(obstacles=[Box(x=wall_x + 5.0, z=0.0, width=200.0, depth=10.0, height=60.0)])
        pose = BodyPose(x=3.0, z=-2.0, heading_phi=0.3)
        scan = lidar_scan(pose, world, cfg)
        pts = lidar_to_global(scan, pose, cfg)
        hits = pts[np.array([r for _, r in scan]) < cfg.max_range_cm]
        assert len(hits) > 0
        assert np.allclose(hits[:, 0], wall_x, atol=cfg.range_quantization_cm + 1e-6)


class TestLimitSwitches:
    def test_low_flags_at_origin(self):
        low, high = read_limit_switches(JointState(), GEOM)
        assert all(low[:6])
        assert not any(high[:6])

    def test_high_flag_at_full_slide_travel(self):
        joints = JointState(slide_lower=34.0, slide_upper=17.0, d_vert=[5.0] * 4)
        low, high = read_limit_switches(joints, GEOM)
        assert high[0] and not low[0]
        assert not high[1] and not low[1]

    def test_mid_travel_no_flags(self):
        joints = JointState(d_vert=[6.0] * 4, slide_lower=17.0, slide_upper=17.0)
        low, high = read_limit_switches(joints, GEOM)
        assert not any(low) and not any(high)
