"""Shared experiment infrastructure.

A :class:`Workbench` owns one simulated study plus everything derived
from it (observations, the detection-pipeline result), computed lazily
and cached, so the 17 experiment runners and the benchmark suite share
a single expensive simulation per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..core.observations import DeviceObservation, build_observations
from ..core.pipeline import DetectionPipeline, PipelineResult
from ..simulation.config import SimulationConfig
from ..simulation.world import StudyData, run_study

__all__ = ["ExperimentReport", "Workbench", "shared_workbench"]


@dataclass
class ExperimentReport:
    """The output of one experiment runner: printable lines plus the
    machine-readable metrics the tests assert on."""

    experiment_id: str
    title: str
    lines: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        header = f"== {self.experiment_id}: {self.title} =="
        return "\n".join([header, *self.lines])


class Workbench:
    """Lazily computed study + pipeline shared across experiments.

    ``n_jobs`` is forwarded to the default pipeline's CV / forest fits
    (ignored when an explicit ``pipeline`` is supplied); outputs are
    bit-identical at any worker count.  The simulation always runs
    in-process.
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        pipeline: DetectionPipeline | None = None,
        n_jobs: int | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self._pipeline = pipeline or DetectionPipeline(n_splits=10, n_jobs=n_jobs)

    @cached_property
    def data(self) -> StudyData:
        return run_study(self.config)

    @cached_property
    def observations(self) -> list[DeviceObservation]:
        """Observations for the classifier-eligible (>= 2 days) devices."""
        return build_observations(self.data, self.data.eligible_participants(min_days=2))

    @cached_property
    def all_observations(self) -> list[DeviceObservation]:
        """Observations for every install that produced data."""
        return build_observations(self.data)

    @cached_property
    def pipeline_result(self) -> PipelineResult:
        return self._pipeline.run(self.data)


_CACHE: dict[str, Workbench] = {}


def shared_workbench(scale: str = "default") -> Workbench:
    """Process-wide workbench cache, keyed by config scale.

    ``"default"`` is the paper-calibrated 178+88 cohort; ``"small"`` is
    the sub-second unit-test cohort; ``"paper"`` is the full 803-device
    deployment.
    """
    if scale not in _CACHE:
        config = {
            "default": SimulationConfig(),
            "small": SimulationConfig.small(),
            "paper": SimulationConfig.paper_scale(),
        }[scale]
        _CACHE[scale] = Workbench(config)
    return _CACHE[scale]
