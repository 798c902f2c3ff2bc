"""Labeled point clouds and the ball/shell samplers used throughout.

A cloud is the finite stand-in for a labeled union of manifolds: an
``(n, dim)`` coordinate array plus one integer class label per point.  The
only generators are concentric balls and shells (the geometry every
experiment here needs); sampling is uniform, by rejection from the
enclosing cube or, where the cube would reject nearly every draw, by a
Gaussian direction and an inverse-CDF radius.  Every kept point's norm is
checked against its band, so the radius bounds are hard constraints rather
than statistical ones.
"""

import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaError, SpecError
from .numerics import is_integer, make_rng

# Bands of the default two-class dataset: a solid disc of radius 0.9
# surrounded by the closed annulus between radii 1 and 2, in the plane.
ANNULUS_BANDS = ((0.0, 0.9), (1.0, 2.0))
ANNULUS_DIM = 2
# a band's outer radius lies in this range, so that squared norms neither
# underflow (a band of radius 1e-320 never accepts a point) nor overflow
MIN_OUTER_RADIUS = 1e-150
MAX_OUTER_RADIUS = 1e150
# coordinates in one rejection batch: 4e6 float64 (32 MB), so a batch holds
# 2,000,000 rows up to dim 2 and fewer above, however rarely the cube accepts
MAX_DRAW_COORDINATES = 4_000_000


@dataclass(frozen=True)
class LabeledPointCloud:
    """Finite points in R^dim with class labels 0..class_count-1."""

    dim: int
    points: np.ndarray  # (n, dim) float64
    labels: np.ndarray  # (n,) int64
    class_count: int

    def __post_init__(self):
        for key in ("dim", "class_count"):
            value = getattr(self, key)
            if not is_integer(value):
                raise SchemaError(f"{key} must be an integer, got {type(value).__name__}")
            object.__setattr__(self, key, int(value))
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if self.dim < 1:
            raise SchemaError("dim must be >= 1")
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise SchemaError(f"points must have shape (n, {self.dim})")
        if points.shape[0] == 0:
            raise SchemaError("cloud must contain at least one point")
        if labels.shape != (points.shape[0],):
            raise SchemaError("labels and points must have equal length")
        if not np.isfinite(points).all():
            raise SchemaError("point coordinates must be finite")
        if self.class_count < 1:
            raise SchemaError("class_count must be >= 1")
        if self.class_count > points.shape[0]:
            raise SchemaError(
                f"class_count {self.class_count} exceeds the {points.shape[0]} points "
                "(every class needs a point)"
            )
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise SchemaError("labels must lie in 0..class_count-1")
        present = np.unique(labels)
        if present.size != self.class_count:
            missing = sorted(set(range(self.class_count)) - set(present.tolist()))
            raise SchemaError(f"classes {missing} have no points")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return self.points.shape[0]

    def class_points(self, label):
        """Coordinates of every point carrying the given label."""
        return self.points[self.labels == label]

    def split_by_class(self):
        return [self.class_points(k) for k in range(self.class_count)]

    def to_jsonable(self):
        """The JSON dataset format; coordinates round-trip bit-exactly."""
        return {
            "dim": self.dim,
            "class_count": self.class_count,
            "points": self.points.tolist(),
            "labels": self.labels.tolist(),
        }


def _band_acceptance(dim, lo, hi):
    """Fraction of the cube [-hi, hi]^dim falling inside the band lo<=|x|<=hi."""
    try:
        unit_ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
        band = unit_ball * (hi**dim - lo**dim)
        return band / (2.0 * hi) ** dim
    except (OverflowError, ZeroDivisionError):
        # gamma overflows past dim 341, where the true fraction is far below
        # the sampler's switch point; hi**dim overflows, or (2 hi)**dim
        # underflows, for far or tiny bands: there radial draws take over
        return 0.0


def _radial_draw(rng, dim, lo, hi, count):
    """Uniform points with lo <= ||x|| <= hi, drawn radially.

    A normalised Gaussian direction times the inverse-CDF radius
    (lo^d + u (hi^d - lo^d))^(1/d), computed as
    hi ((lo/hi)^d + u (1 - (lo/hi)^d))^(1/d) so that hi^d cannot overflow.
    """
    direction = rng.standard_normal((count, dim))
    direction /= np.sqrt((direction * direction).sum(axis=1))[:, np.newaxis]
    inner = (lo / hi) ** dim
    radius = hi * (inner + rng.uniform(size=count) * (1.0 - inner)) ** (1.0 / dim)
    return direction * radius[:, np.newaxis]


def _sample_band(rng, dim, lo, hi, count):
    """Uniform points with lo <= ||x|| <= hi.

    Rejection from the cube [-hi, hi]^dim while it accepts at least 1e-6 of
    its draws (up to dim 17 for the default bands); below that, radial
    draws.  Either way a point is kept only if its computed norm lies in
    the band.  A rejection batch holds at most ``MAX_DRAW_COORDINATES``
    coordinates.
    """
    accept = _band_acceptance(dim, lo, hi)
    cap = min(2_000_000, MAX_DRAW_COORDINATES // dim)
    chunks = []
    need = count
    while need > 0:
        if accept < 1e-6:
            draw = _radial_draw(rng, dim, lo, hi, need)
        else:
            batch = min(max(int(need / accept * 1.2), 256), cap)
            draw = rng.uniform(-hi, hi, size=(batch, dim))
        norms = np.sqrt((draw * draw).sum(axis=1))
        kept = draw[(norms >= lo) & (norms <= hi)][:need]
        chunks.append(kept)
        need -= kept.shape[0]
    return np.concatenate(chunks, axis=0)


def gen_nested_shells(dim, bands, samples_per_class, seed):
    """One class per radial band; bands must be separated by positive gaps.

    ``bands`` is a sequence of (lo, hi) radius pairs; lo == 0 makes the band a
    solid ball.  Sampling is deterministic for a given seed.
    """
    if dim < 1:
        raise SpecError("dim must be >= 1")
    if samples_per_class < 1:
        raise SpecError("samples_per_class must be >= 1")
    bands = [(float(lo), float(hi)) for lo, hi in bands]
    if not bands:
        raise SpecError("at least one band is required")
    prev_hi = None
    for lo, hi in bands:
        if not (0.0 <= lo <= hi) or hi <= 0.0:
            raise SpecError(f"band ({lo}, {hi}) is not a valid radius range")
        if not MIN_OUTER_RADIUS <= hi <= MAX_OUTER_RADIUS:
            raise SpecError(
                f"band ({lo}, {hi}) needs an outer radius in "
                f"[{MIN_OUTER_RADIUS:g}, {MAX_OUTER_RADIUS:g}]"
            )
        if prev_hi is not None and lo <= prev_hi:
            raise SpecError("bands must be increasing and separated by gaps")
        prev_hi = hi

    rng = make_rng(seed)
    points = []
    labels = []
    for k, (lo, hi) in enumerate(bands):
        pts = _sample_band(rng, dim, lo, hi, samples_per_class)
        points.append(pts)
        labels.append(np.full(samples_per_class, k, dtype=np.int64))
    return LabeledPointCloud(
        dim=dim,
        points=np.concatenate(points, axis=0),
        labels=np.concatenate(labels),
        class_count=len(bands),
    )


def gen_annulus2d(samples_per_class, seed):
    """The planar disc-vs-annulus dataset with the canonical radii."""
    return gen_nested_shells(ANNULUS_DIM, ANNULUS_BANDS, samples_per_class, seed)


def read_json(path):
    """Parse a JSON file; ParseError for bad syntax or nesting past the recursion limit."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{exc.msg} (line {exc.lineno}, column {exc.colno})") from exc
        except RecursionError as exc:
            raise ParseError("JSON arrays or objects nested too deep") from exc


def json_text(payload):
    """Payload as one line of JSON and a newline."""
    return json.dumps(payload) + "\n"


def fields(obj, what, keys):
    """The values of ``keys`` in ``obj``, a parsed JSON object that ``what`` names."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise SchemaError(f"{what} is missing key {key!r}")
    return [obj[key] for key in keys]


def numbers(value, what, kinds=(int, float), dtype=np.float64):
    """A JSON number or nested lists of them as a ``dtype`` array; SchemaError otherwise.

    Every leaf must be one of ``kinds`` and not a bool; the walk keeps a
    stack, so any depth ``read_json`` accepts is safe.  Values past
    ``dtype``'s range, ragged rows and nesting past numpy's dimension limit
    fail the conversion.  Shapes are the caller's to check.
    """
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool) or not isinstance(item, kinds):
            raise SchemaError(f"{what} has an entry of type {type(item).__name__}")
    try:
        return np.array(value, dtype=dtype)
    except (OverflowError, ValueError) as exc:
        raise SchemaError(f"{what} cannot be read as {np.dtype(dtype).name} values: {exc}") from exc


def csv_lines(header, rows):
    """Yield a header and then each row of string cells as one CSV line.

    Cells are joined by commas and lines end in CRLF: the bytes the standard
    ``csv`` module writes for cells that need no quoting, as every cell here
    (a float ``repr``, an int or empty) does.  ``rows`` may be a generator.
    """
    yield ",".join(header) + "\r\n"
    for row in rows:
        yield ",".join(row) + "\r\n"


def _write(path, text):
    """Write ``text`` to ``path``; to fd 1's file through ``sys.stdout``, at its offset."""
    if _is_stdout(path):
        fh = contextlib.nullcontext(sys.stdout)
    else:
        fh = open(path, "w", newline="", encoding="utf-8")
    with fh as out:
        if isinstance(text, str):
            out.write(text)
        else:
            out.writelines(text)
        out.flush()


def _is_stdout(path):
    """Whether ``path`` names fd 1's file: the same device and inode."""
    try:
        st, out = os.stat(path), os.fstat(1)
    except OSError:
        return False
    return (st.st_dev, st.st_ino) == (out.st_dev, out.st_ino)


def _in_place(path):
    """Whether ``path`` is written in place: it exists and is not a regular file, or is fd 1's."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode) or _is_stdout(path)
    except FileNotFoundError:
        return False


def real_paths(paths):
    """The ``os.path.realpath`` of each path; SpecError if two name the same file."""
    real = [os.path.realpath(path) for path in paths]
    for i, name in enumerate(real):
        if name in real[:i]:
            first = paths[real.index(name)]
            raise SpecError(f"two outputs name the same file: {first} and {paths[i]}")
    return real


def write_files(files):
    """Write each ``(path, text)`` of ``files``, all of them or none.

    ``text`` is a string or an iterable of strings, written in order.  Each
    regular file is written under the hidden name ``.NAME.PID.tmp`` beside
    it (beside its target, for a symlink), and once every file is written
    they all move into place with ``os.replace``; a rerun thus replaces a
    file, keeping neither its mode nor its hard links.  A path that exists
    and is not a regular file (a FIFO, ``/dev/null``) is written in place,
    after the temporaries; so is fd 1's file (``/dev/stdout`` under
    ``> FILE``), through ``sys.stdout``, which shares fd 1's offset, so the
    lines printed after it follow it.  If a write fails, the temporaries are
    removed and the error, naming the path as given, propagates.  No
    directory is made.  Two paths that name the same file are a SpecError,
    before any write (``real_paths``).
    """
    files = [(os.fspath(path), text) for path, text in files]
    real = real_paths([path for path, _ in files])
    in_place = [_in_place(path) for path, _ in files]
    staged = {}  # temporary -> (its final name, the path as given)
    try:
        for (path, text), target, direct in zip(files, real, in_place):
            if not direct:
                final = target if os.path.islink(path) else path
                head, name = os.path.split(final)
                temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
                staged[temporary] = (final, path)
                _write(temporary, text)
        for (path, text), direct in zip(files, in_place):
            if direct:
                _write(path, text)
        for temporary, (final, _) in staged.items():
            os.replace(temporary, final)
    except BaseException as exc:
        for temporary in staged:
            with contextlib.suppress(OSError):  # never written, or already in place
                os.remove(temporary)
        if isinstance(exc, OSError) and exc.filename in staged:
            raise OSError(exc.errno, exc.strerror, staged[exc.filename][1]) from exc
        raise


def save_cloud(cloud, path):
    """Write the JSON dataset format; coordinates round-trip bit-exactly."""
    write_files([(path, json_text(cloud.to_jsonable()))])


def load_cloud(path):
    """Read a JSON dataset, raising ParseError/SchemaError on bad files."""
    dim, class_count, points, labels = fields(
        read_json(path), "dataset file", ("dim", "class_count", "points", "labels")
    )
    return LabeledPointCloud(
        dim=dim,
        points=numbers(points, "points"),
        labels=numbers(labels, "labels", int, np.int64),
        class_count=class_count,
    )


def points_csv(names, points, labels):
    """CSV lines, one row per point: its coordinates under ``names``, then its label."""
    rows = zip(points.tolist(), labels.tolist())
    return csv_lines([*names, "label"], ([*map(repr, row), repr(lab)] for row, lab in rows))
