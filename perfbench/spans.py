"""Layer spans recorded from outside the package.

A ``Tracer`` replaces public functions at the module attribute their
callers look up (``worldtrack.camera.solve_pnp_ransac``, the
``worldtrack.losses`` bindings of the camera functions, class attributes
such as ``Pointmap.with_points``) with wrappers that time each call on
``time.perf_counter_ns``. Spans nest through a stack, so a layer's self
time is its span minus the time spent in spans of other layers below it.
``LossBreakdown.combine`` runs once per optimizer step, so its call times
mark step boundaries. Every replaced attribute is restored on exit.
"""

import functools
import time
from collections import defaultdict


def _ransac_observe(stats, args, kwargs, result):
    stats["camera.ransac_points"] += len(args[0])
    if result is not None:
        stats["camera.ransac_inliers"] += int(result.inliers.sum())


# (span name, module attribute path, attribute, observer). The layer of a
# span is the part of its name before the dot.
TARGETS = (
    ("camera.focal", "camera", "estimate_focal_weiszfeld", None),
    ("camera.corr_build", "camera", "correspondences_from_pointmap", None),
    ("camera.corr_build", "losses", "correspondences_from_pointmap", None),
    ("camera.ransac", "camera", "solve_pnp_ransac", _ransac_observe),
    ("camera.solve_video", "camera", "solve_cameras_for_video", None),
    ("camera.solve_video", "losses", "solve_cameras_for_video", None),
    ("camera.gn", "camera", "gauss_newton_refine", None),
    ("camera.gn", "losses", "gauss_newton_refine", None),
    ("camera.pose_grad", "camera", "pose_gradient_wrt_points", None),
    ("camera.pose_grad", "losses", "pose_gradient_wrt_points", None),
    ("losses.traj", "losses", "traj_loss", None),
    ("losses.align", "losses", "align_loss", None),
    ("losses.pose_grad_map", "losses", "pose_gradient_on_pointmap", None),
    ("losses.tta", "losses", "tta_optimize", None),
    ("geometry.pointmap_build", "geometry.Pointmap", "with_points", None),
    ("geometry.assemble", "geometry", "assemble_trajectories", None),
    ("bench.eval_tracking", "bench", "eval_tracking", None),
    ("bench.eval_recon", "bench", "eval_recon", None),
    ("seqio.load", "seqio", "load_sequence", None),
    ("seqio.save", "seqio", "save_sequence", None),
)


# called once per optimizer step: its call times mark step boundaries
STEP_MARK = ("losses.LossBreakdown", "combine")


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def _owner(package, path, attr):
    """The object that holds ``attr`` itself, or None when a version lacks it."""
    owner = _resolve(package, path)
    return owner if owner is not None and attr in vars(owner) else None


def missing_targets(package) -> list:
    """Targets the package lacks; their spans would read 0, so runs name them."""
    wanted = [(path, attr) for _, path, attr, _ in TARGETS] + [STEP_MARK]
    return [f"{path}.{attr}" for path, attr in wanted if _owner(package, path, attr) is None]


class Tracer:
    """Context manager that wraps the targets while it is entered.

    ``totals_ns``, ``foreign_ns`` and ``calls`` are keyed by span name;
    ``foreign_ns`` is the part of a span's time spent in spans of another
    layer. ``stats`` holds counts reported by observers, and
    ``step_ms`` the intervals between successive step marks within one
    ``tta_optimize`` call.
    """

    def __init__(self, package):
        self.package = package
        self._saved = []
        self._stack = []
        self.reset()

    def reset(self):
        self.totals_ns = defaultdict(int)
        self.foreign_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.stats = defaultdict(int)
        self.step_ms = []
        self._marks = None

    def _wrap(self, name, fn, observe):
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0]
            tracer._stack.append(frame)
            if name == "losses.tta":
                tracer._marks = []
            result = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter_ns() - t0
                tracer._stack.pop()
                tracer.totals_ns[name] += dt
                tracer.foreign_ns[name] += frame[1]
                tracer.calls[name] += 1
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent[1] += dt if parent[0] != layer else frame[1]
                if observe is not None:
                    observe(tracer.stats, args, kwargs, result)
                if name == "losses.tta":
                    marks, tracer._marks = tracer._marks, None
                    tracer.step_ms.extend(
                        (b - a) / 1e6 for a, b in zip(marks, marks[1:])
                    )

        return wrapper

    def _mark_step(self, fn):
        tracer = self

        @functools.wraps(fn)
        def combine(cls, *args, **kwargs):
            if tracer._marks is not None:
                tracer._marks.append(time.perf_counter_ns())
            tracer.calls["losses.combine"] += 1
            return fn(cls, *args, **kwargs)

        return combine

    def __enter__(self):
        for name, path, attr, observe in TARGETS:
            owner = _owner(self.package, path, attr)
            if owner is None:
                continue  # named by missing_targets in every run's output
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))
        breakdown = _owner(self.package, *STEP_MARK)
        if breakdown is not None:
            original = vars(breakdown)["combine"]
            self._saved.append((breakdown, "combine", original))
            breakdown.combine = classmethod(self._mark_step(original.__func__))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        return False
