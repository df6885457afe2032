"""Declarative chart specifications: schema, validation, synthesis.

A spec document is a flat JSON object and stands in for plotting code: it
fully determines the rendered chart. Synthesized corpora deliberately carry
no datapoint text labels (value_labels is always false) so questions cannot
be answered by reading printed numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

from .config import CHART_TYPES, type_mix_weights
from .errors import ConfigError, SpecSyntaxError, ValidationError
from .util import largest_remainder, read_document, rng_for

MIN_CANVAS = 200
MAX_CANVAS = 4096

# The marker character is reserved; generated text must never contain it.
MARKER_CHAR = "@"


@dataclass(frozen=True)
class Series:
    name: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class ChartSpec:
    id: str
    chart_type: str
    title: str
    series: tuple[Series, ...]
    x_labels: tuple[str, ...]
    canvas: tuple[int, int]
    style_seed: int
    legend: bool
    value_labels: bool


def validate_spec(spec: ChartSpec) -> ChartSpec:
    """Check every invariant; raises ValidationError naming the violated rule."""
    if spec.chart_type not in CHART_TYPES:
        raise ValidationError(f"unknown chart_type {spec.chart_type!r}")
    if not spec.series:
        raise ValidationError("series must be non-empty")
    if spec.value_labels:
        raise ValidationError("value_labels must be false")
    w, h = spec.canvas
    if not (MIN_CANVAS <= w <= MAX_CANVAS and MIN_CANVAS <= h <= MAX_CANVAS):
        raise ValidationError(f"canvas dimensions must be in [{MIN_CANVAS}, {MAX_CANVAS}]")
    if not spec.x_labels:
        raise ValidationError("x_labels must be non-empty")
    if len(set(spec.x_labels)) != len(spec.x_labels):
        raise ValidationError("x_labels must be unique")
    names = [s.name for s in spec.series]
    if any(not n for n in names):
        raise ValidationError("series name must be non-empty")
    if len(set(names)) != len(names):
        raise ValidationError("series names must be unique")
    if spec.chart_type == "pie" and len(spec.series) != 1:
        raise ValidationError("pie charts take exactly one series")
    for s in spec.series:
        if len(s.values) != len(spec.x_labels):
            raise ValidationError(
                f"series/category length mismatch: series {s.name!r} has "
                f"{len(s.values)} values for {len(spec.x_labels)} categories"
            )
        for v in s.values:
            if not math.isfinite(v):
                raise ValidationError(f"series {s.name!r} contains a non-finite value")
            if spec.chart_type == "pie" and v <= 0:
                raise ValidationError("pie values must be strictly positive")
    if spec.style_seed < 0:
        raise ValidationError("style_seed must be non-negative")
    return spec


def spec_to_json(spec: ChartSpec) -> dict:
    """The spec's fields as a JSON object; tuples encode as JSON arrays.

    Built from the instance dicts: ``dataclasses.asdict`` deep-copies every
    value and costs about four times as much per spec.
    """
    return {**vars(spec), "series": [{**vars(s)} for s in spec.series]}


def serialize_spec(spec: ChartSpec) -> str:
    return json.dumps(spec_to_json(spec), ensure_ascii=False, sort_keys=True)


def spec_from_json(obj: object) -> ChartSpec:
    """Build and validate a ChartSpec from a decoded document."""
    return validate_spec(read_document(ChartSpec, obj, SpecSyntaxError, "spec"))


def parse_spec(text: str) -> ChartSpec:
    """Parse a spec document; SpecSyntaxError for bad shape, ValidationError for bad content."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SpecSyntaxError(f"not valid JSON: {exc}") from exc
    return spec_from_json(obj)


# ---------------------------------------------------------------------------
# Synthesis

TITLE_WORDS = (
    "Revenue", "Sales", "Cost", "Profit", "Users", "Views", "Clicks", "Orders",
    "Exports", "Imports", "Visits", "Signups", "Returns", "Stock", "Yield",
    "Demand", "Supply", "Output", "Traffic", "Volume", "Growth", "Income",
)

SERIES_WORDS = (
    "Alpha", "Bravo", "Delta", "Echo", "Falcon", "Indigo", "Juno", "Kilo",
    "Metro", "Nova", "Orion", "Quartz", "Sigma", "Tango", "Vega", "Willow",
    "Xenon", "Yukon", "Zephyr", "Harbor", "Pluto", "Rhea",
)

CATEGORY_SCHEMES = {
    "months": ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"),
    "quarters": ("Q1", "Q2", "Q3", "Q4"),
    "years": ("2015", "2016", "2017", "2018", "2019", "2020", "2021", "2022", "2023"),
    "weekdays": ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"),
    "regions": ("North", "South", "East", "West", "Center", "Coast", "Inland", "Isles"),
}

SCHEME_LABEL = {
    "months": "Month", "quarters": "Quarter", "years": "Year",
    "weekdays": "Weekday", "regions": "Region",
}

# Canvas sizes large enough that the densest generated chart (8 categories x
# 4 series with legend) lays out without label overlap.
CANVAS_CHOICES = ((800, 600), (960, 600), (1000, 640), (1120, 700), (960, 720))


def _pick_categories(rng, count: int) -> tuple[str, str]:
    scheme = rng.choice(sorted(k for k, v in CATEGORY_SCHEMES.items() if len(v) >= count))
    labels = CATEGORY_SCHEMES[scheme]
    start = rng.randrange(0, len(labels) - count + 1)
    return scheme, labels[start:start + count]


def _pie_shares(rng, count: int) -> tuple[float, ...]:
    """Shares in tenths of a percent summing to exactly 100.0, each >= 4%."""
    for _ in range(64):
        raw = [rng.uniform(1.0, 10.0) for _ in range(count)]
        tenths = largest_remainder(1000, raw)
        if min(tenths) >= 40:
            return tuple(t / 10.0 for t in tenths)
    # Extremely unlikely fallback: equal split.
    tenths = largest_remainder(1000, [1.0] * count)
    return tuple(t / 10.0 for t in tenths)


def synth_spec(seed: int, index: int, chart_type: str) -> ChartSpec:
    """Deterministically synthesize one valid spec."""
    rng = rng_for(seed, "spec", index)
    if chart_type == "pie":
        n_cat = rng.randint(3, 6)
        n_series = 1
    else:
        n_cat = rng.randint(3, 8)
        n_series = rng.randint(1, 4)
    scheme, x_labels = _pick_categories(rng, n_cat)
    names = rng.sample(SERIES_WORDS, n_series)
    if chart_type == "pie":
        values = [_pie_shares(rng, n_cat)]
    else:
        values = [
            tuple(round(rng.uniform(10.0, 1000.0), 1) for _ in range(n_cat))
            for _ in range(n_series)
        ]
    title = f"{rng.choice(TITLE_WORDS)} by {SCHEME_LABEL[scheme]}"
    legend = True if (chart_type != "pie" and n_series > 1) else False
    spec = ChartSpec(
        id=f"c{index:05d}",
        chart_type=chart_type,
        title=title,
        series=tuple(Series(name=n, values=v) for n, v in zip(names, values)),
        x_labels=x_labels,
        canvas=rng.choice(CANVAS_CHOICES),
        style_seed=rng.randrange(2**32),
        legend=legend,
        value_labels=False,
    )
    return validate_spec(spec)


def generate_corpus(seed: int, n: int, type_mix: Mapping[str, float]) -> list[ChartSpec]:
    """Generate n valid specs whose type counts follow type_mix exactly (quota method).

    Pure function of its arguments; calling twice yields identical specs.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    counts = largest_remainder(n, type_mix_weights(type_mix))
    types: list[str] = []
    for t, c in zip(CHART_TYPES, counts):
        types.extend([t] * c)
    rng_for(seed, "type-order").shuffle(types)
    return [synth_spec(seed, i, types[i]) for i in range(n)]
