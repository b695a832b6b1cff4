"""Occupancy-grid global planning (A*) and a pure-pursuit path follower."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .sim import ROBOT_RADIUS, BaseCommand, WorldConfig, in_base_slab, wrap_angle

SQRT2 = float(np.sqrt(2.0))

GRID_RESOLUTION = 0.05   # occupancy cell edge (m)
GRID_MARGIN = 1.0        # free border around the scene extents (m)
LOOKAHEAD = 0.3          # pure-pursuit lookahead along the path (m)
GOAL_TOL = 0.05          # arrival radius around the final waypoint (m)

# fixed neighbor expansion order: 4-connected first, then diagonals
_NEIGHBORS = (
    (-1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0), (1, 0, 1.0),
    (-1, -1, SQRT2), (-1, 1, SQRT2), (1, -1, SQRT2), (1, 1, SQRT2),
)


class PlanningError(ValueError):
    """Unplannable request: pose in collision or unreachable goal."""


@dataclass
class OccupancyGrid:
    """Boolean obstacle raster, cells[ix, iy], already inflated by the robot radius."""

    resolution: float
    origin: np.ndarray          # world position of the (0, 0) cell corner
    cells: np.ndarray           # (nx, ny) bool

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")

    @classmethod
    def from_world(cls, config: WorldConfig, robot_radius: float = ROBOT_RADIUS) -> "OccupancyGrid":
        """Rasterize the table and obstacle boxes, then inflate once by robot_radius.

        Cells are GRID_RESOLUTION on a side. A cell is marked when its square
        overlaps a box footprint whose z-extent intersects the base slab
        [0, BASE_HEIGHT]. The grid covers the scene extents (robot start
        included) plus GRID_MARGIN on every side.
        """
        boxes = config.solid_boxes()
        anchors = [config.robot_start[:2]] + [o.center[:2] for o in config.objects]
        anchors += [lo[:2] for lo, _ in boxes] + [hi[:2] for _, hi in boxes]
        pts = np.array(anchors)
        lo_w = pts.min(axis=0) - GRID_MARGIN
        hi_w = pts.max(axis=0) + GRID_MARGIN
        nx = int(np.ceil((hi_w[0] - lo_w[0]) / GRID_RESOLUTION))
        ny = int(np.ceil((hi_w[1] - lo_w[1]) / GRID_RESOLUTION))
        cells = np.zeros((nx, ny), dtype=bool)

        for lo, hi in boxes:
            if not in_base_slab(lo, hi):
                continue
            i0 = int(np.floor((lo[0] - lo_w[0]) / GRID_RESOLUTION))
            i1 = int(np.ceil((hi[0] - lo_w[0]) / GRID_RESOLUTION))
            j0 = int(np.floor((lo[1] - lo_w[1]) / GRID_RESOLUTION))
            j1 = int(np.ceil((hi[1] - lo_w[1]) / GRID_RESOLUTION))
            cells[max(i0, 0):max(i1, 0), max(j0, 0):max(j1, 0)] = True

        r_cells = int(np.ceil(robot_radius / GRID_RESOLUTION))
        inflated = cells.copy()
        for di in range(-r_cells, r_cells + 1):
            for dj in range(-r_cells, r_cells + 1):
                if di == dj == 0 or np.hypot(di, dj) * GRID_RESOLUTION > robot_radius:
                    continue
                src = cells[
                    max(-di, 0):cells.shape[0] - max(di, 0),
                    max(-dj, 0):cells.shape[1] - max(dj, 0),
                ]
                inflated[
                    max(di, 0):cells.shape[0] - max(-di, 0),
                    max(dj, 0):cells.shape[1] - max(-dj, 0),
                ] |= src
        return cls(GRID_RESOLUTION, lo_w, inflated)

    def to_cell(self, p) -> tuple[int, int]:
        c = np.floor((np.asarray(p, dtype=float)[:2] - self.origin) / self.resolution)
        return int(c[0]), int(c[1])

    def cell_center(self, ix: int, iy: int) -> np.ndarray:
        return self.origin + (np.array([ix, iy], dtype=float) + 0.5) * self.resolution

    def in_bounds(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.cells.shape[0] and 0 <= iy < self.cells.shape[1]

    def free(self, ix: int, iy: int) -> bool:
        return self.in_bounds(ix, iy) and not self.cells[ix, iy]


@dataclass
class Path:
    """Waypoints (M, 2) in world meters, consecutive entries 8-adjacent cell centers."""

    waypoints: np.ndarray

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=float).reshape(-1, 2)

    def __len__(self) -> int:
        return self.waypoints.shape[0]


def path_cost(path: Path, resolution: float) -> float:
    """Cost in cell units: 1 per axis step, sqrt(2) per diagonal step."""
    total = 0.0
    for a, b in zip(path.waypoints[:-1], path.waypoints[1:]):
        step = np.rint((b - a) / resolution).astype(int)
        total += SQRT2 if step[0] != 0 and step[1] != 0 else 1.0
    return total


def _octile(dx: int, dy: int) -> float:
    dx, dy = abs(dx), abs(dy)
    return max(dx, dy) + (SQRT2 - 1.0) * min(dx, dy)


def astar(grid: OccupancyGrid, start, goal) -> Path:
    """Minimum-cost 8-connected route between the cells containing start and goal.

    Octile-distance heuristic; f-ties broken toward smaller (ix, iy) so the
    expansion order, and therefore the returned path, is deterministic.
    """
    s = grid.to_cell(start)
    g = grid.to_cell(goal)
    if not grid.free(*s) or not grid.free(*g):
        raise PlanningError("pose in collision")

    open_heap = [(_octile(g[0] - s[0], g[1] - s[1]), s[0], s[1])]
    g_score = {s: 0.0}
    came_from: dict[tuple[int, int], tuple[int, int]] = {}
    closed: set[tuple[int, int]] = set()

    while open_heap:
        _, ix, iy = heapq.heappop(open_heap)
        current = (ix, iy)
        if current in closed:
            continue
        if current == g:
            cells = [current]
            while cells[-1] != s:
                cells.append(came_from[cells[-1]])
            cells.reverse()
            return Path(np.array([grid.cell_center(*c) for c in cells]))
        closed.add(current)
        base_cost = g_score[current]
        for di, dj, step in _NEIGHBORS:
            nb = (ix + di, iy + dj)
            if not grid.free(*nb) or nb in closed:
                continue
            tentative = base_cost + step
            if tentative < g_score.get(nb, np.inf):
                g_score[nb] = tentative
                came_from[nb] = current
                f = tentative + _octile(g[0] - nb[0], g[1] - nb[1])
                heapq.heappush(open_heap, (f, nb[0], nb[1]))
    raise PlanningError("unreachable goal")


def follow_path(pose, path: Path) -> BaseCommand | None:
    """Pure-pursuit command toward the path; None signals arrival.

    Arrival means the robot is within GOAL_TOL of the final waypoint. The
    target is the first waypoint at least LOOKAHEAD along the path from the
    waypoint closest to the robot (the final waypoint otherwise);
    omega = 2 * heading error, v = 0.5 * clamp(1 - |heading error| / pi).
    """
    if len(path) == 0:
        raise ValueError("path must be non-empty")
    x, y, yaw = float(pose[0]), float(pose[1]), float(pose[2])
    p = np.array([x, y])
    wps = path.waypoints
    if float(np.hypot(*(wps[-1] - p))) <= GOAL_TOL:
        return None

    nearest = int(np.argmin(np.sum((wps - p) ** 2, axis=1)))
    target = wps[-1]
    travelled = 0.0
    for i in range(nearest + 1, len(wps)):
        travelled += float(np.hypot(*(wps[i] - wps[i - 1])))
        if travelled >= LOOKAHEAD:
            target = wps[i]
            break

    heading_err = wrap_angle(float(np.arctan2(target[1] - y, target[0] - x)) - yaw)
    v = 0.5 * float(np.clip(1.0 - abs(heading_err) / np.pi, 0.0, 1.0))
    return BaseCommand(v, 2.0 * heading_err).clamped()
