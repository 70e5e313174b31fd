"""Process-wide metrics registry with Prometheus-text exposition.

Three primitive families — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — live in a :class:`MetricsRegistry`.  Every family
is get-or-create by name (idempotent, so call sites never coordinate),
carries its own lock (increments never contend across metrics), and
supports labels: ``counter.labels(status="ok").inc()`` resolves a
per-label-values child cached on first use.

Lookups of what already exists are lock-free dict reads, because they
run on every served request: ``registry.counter(name, help,
labelnames)`` returns the existing family of that type and label
names, and ``family.labels("ok")`` with positional string values
returns the existing child, with no lock, no key built and no name
check.  Anything else — a new family or child, keyword label values,
values that are not strings, a type or label-name mismatch — takes
the validating path, which creates under the lock.  That is safe
because a family's children are only ever added, never replaced or
removed, and :meth:`MetricsRegistry.reset` swaps in a new family
table rather than emptying the old one: a reader holding either sees
a complete, valid entry or none.  Increments still take the family
lock, since ``+=`` is not atomic.

The registry renders the standard Prometheus text exposition format
(version 0.0.4): ``# HELP`` / ``# TYPE`` comment lines followed by
sample lines, histograms as cumulative ``_bucket{le="..."}`` series
plus ``_sum`` and ``_count``.  :func:`parse_exposition` is a strict
parser for that grammar used by the tests and the CI smoke job.

A single module-level default registry (:func:`get_registry`) is the
process-wide sink every instrumented layer writes to; tests that need
isolation either construct a private ``MetricsRegistry`` or assert on
before/after deltas of the default one.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "parse_exposition",
    "DEFAULT_LATENCY_BUCKETS",
    "EPSILON_BUCKETS",
]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Fixed latency bucket boundaries (seconds).  Query solves on the
#: bundled benchmark graphs land between ~1 ms and a few seconds, so
#: the ladder is dense in that range and sparse above.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Fixed buckets for the epsilon-at-exit histogram, i.e. the proven
#: ``ratio - 1`` gap when a query returns.  0 means proven optimal.
EPSILON_BUCKETS: Tuple[float, ...] = (
    0.0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0,
)


def _check_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name or ""):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_NAME_RE.match(label or ""):
            raise ValueError(f"invalid label name: {label!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names: {names!r}")
    return names


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_number(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    """Canonical ``le`` label value for a bucket boundary."""
    if bound == math.inf:
        return "+Inf"
    return _format_number(bound)


class _Metric:
    """Base class: a named family of labeled children behind one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]):
        self.name = _check_name(name)
        self.help = str(help)
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        raise NotImplementedError

    def labels(self, *values: str, **kwargs: str):
        """Resolve (creating on first use) the child for a label set.

        Accepts positional values in ``labelnames`` order or keyword
        form; mixing the two is rejected.  Positional string values of
        an existing child are one dict read (see the module docstring).
        """
        if not kwargs:
            try:
                return self._children[values]
            except (KeyError, TypeError):  # new, or not a string key
                pass
        return self._resolve_child(values, kwargs)

    def _resolve_child(self, values: tuple, kwargs: dict):
        """Validate and stringify a label set; create its child if new."""
        if values and kwargs:
            raise ValueError("pass label values positionally or by name, not both")
        if kwargs:
            if set(kwargs) != set(self.labelnames):
                raise ValueError(
                    f"{self.name} expects labels {self.labelnames}, got {tuple(sorted(kwargs))}"
                )
            values = tuple(kwargs[label] for label in self.labelnames)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label values, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child()
        return child

    def _default_child(self):
        """The unlabeled child (only valid when labelnames is empty)."""
        if self.labelnames:
            raise ValueError(f"{self.name} is labeled; call .labels(...) first")
        return self.labels()

    def _sample_items(self) -> List[Tuple[Tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())

    def samples(self) -> List[Dict[str, Any]]:
        out = []
        for key, child in self._sample_items():
            entry = child.sample()
            entry["labels"] = dict(zip(self.labelnames, key))
            out.append(entry)
        return out


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> Dict[str, Any]:
        return {"value": self.value}


class Counter(_Metric):
    """Monotonically increasing count (rendered with a ``_total`` name)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def value(self, **labels: str) -> float:
        return self.labels(**labels).value


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge(_Metric):
    """A value that can go up and down (queue depth, in-flight queries)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def value(self, **labels: str) -> float:
        return self.labels(**labels).value


class _HistogramChild:
    __slots__ = ("_lock", "_buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, buckets: Tuple[float, ...]):
        self._lock = lock
        self._buckets = buckets
        self._counts = [0] * len(buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            # Counts are stored per-bucket; sample() renders them as the
            # cumulative series the exposition format requires.
            for i, bound in enumerate(self._buckets):
                if value <= bound:
                    self._counts[i] += 1
                    break

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def sample(self) -> Dict[str, Any]:
        with self._lock:
            cumulative: Dict[str, float] = {}
            running = 0
            for bound, bucket_count in zip(self._buckets, self._counts):
                running += bucket_count
                cumulative[_format_le(bound)] = running
            cumulative["+Inf"] = self._count
            return {
                "count": self._count,
                "sum": self._sum,
                "buckets": cumulative,
            }


class Histogram(_Metric):
    """Fixed-bucket distribution (latencies, epsilon gaps)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket boundaries: {bounds!r}")
        # The implicit +Inf bucket is always appended at render time.
        self.buckets = tuple(b for b in bounds if b != math.inf)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)


class MetricsRegistry:
    """A named collection of metrics with atomic get-or-create."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        existing = self._metrics.get(name)
        if type(existing) is cls and existing.labelnames == labelnames:
            return existing
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, not {tuple(labelnames)}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        """Drop every metric (tests only — live handles go stale).

        Swaps in an empty table, so a lock-free lookup racing the reset
        sees the old family or none, and the next recording recreates
        each family it touches.
        """
        with self._lock:
            self._metrics = {}

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A cheap, JSON-safe copy of every family's current samples."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {
            name: {
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "samples": metric.samples(),
            }
            for name, metric in metrics
        }

    def render_exposition(self) -> str:
        """Prometheus text exposition format, version 0.0.4."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for name, metric in metrics:
            lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for entry in metric.samples():
                labels = entry["labels"]
                if metric.kind == "histogram":
                    for le, count in entry["buckets"].items():
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = le
                        lines.append(
                            f"{name}_bucket{_render_labels(bucket_labels)} "
                            f"{_format_number(count)}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} "
                        f"{_format_number(entry['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} "
                        f"{_format_number(entry['count'])}"
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} "
                        f"{_format_number(entry['value'])}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in labels.items()
    )
    return "{" + inner + "}"


# --------------------------------------------------------------------------
# Exposition parsing (strict; used by tests and the CI smoke job)

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)
_TYPES = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})


def _unescape_label_value(raw: str) -> str:
    return raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"invalid sample value: {raw!r}")


def parse_exposition(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse Prometheus text exposition format.

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [(name, labels_dict, value), ...]}}``, raising :class:`ValueError`
    on any line that is not valid exposition syntax (the CI smoke job
    uses this as the "parses as Prometheus text" gate).
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family(name: str) -> Dict[str, Any]:
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                candidate = name[: -len(suffix)]
                if candidate in families and families[candidate]["type"] == "histogram":
                    base = candidate
                    break
        return families.setdefault(
            base, {"type": "untyped", "help": "", "samples": []}
        )

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "HELP":
                _check_name(parts[2])
                entry = families.setdefault(
                    parts[2], {"type": "untyped", "help": "", "samples": []}
                )
                entry["help"] = parts[3] if len(parts) > 3 else ""
            elif len(parts) >= 4 and parts[1] == "TYPE":
                _check_name(parts[2])
                if parts[3] not in _TYPES:
                    raise ValueError(
                        f"line {lineno}: unknown metric type {parts[3]!r}"
                    )
                entry = families.setdefault(
                    parts[2], {"type": "untyped", "help": "", "samples": []}
                )
                entry["type"] = parts[3]
            # Other comment lines are legal and ignored.
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: not a valid sample line: {line!r}")
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            pos = 0
            while pos < len(raw_labels):
                pair = _LABEL_PAIR_RE.match(raw_labels, pos)
                if not pair:
                    raise ValueError(
                        f"line {lineno}: malformed labels: {raw_labels!r}"
                    )
                labels[pair.group("name")] = _unescape_label_value(
                    pair.group("value")
                )
                pos = pair.end()
        value = _parse_value(match.group("value"))
        family(match.group("name"))["samples"].append(
            (match.group("name"), labels, value)
        )
    return families


# --------------------------------------------------------------------------
# The process-wide default registry

_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented layer writes to."""
    return _DEFAULT_REGISTRY
