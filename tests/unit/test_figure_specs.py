"""Structure of the figure specs: fast checks that run no simulation."""

import inspect
import typing

import pytest

from repro.experiments.registry import EXPERIMENTS, get_spec
from repro.experiments.spec import FigureSpec

SPECS = list(EXPERIMENTS.values())

#: Every experiment id the CLI has ever accepted.
LEGACY_IDS = (
    "fig4", "fig5", "fig6", "exp1", "fig7", "fig8", "fig9", "fig10",
    "fig11a", "fig12", "sec42", "sec43", "sec45", "naive", "gen2cov",
    "cost", "surveillance", "victim_locator", "background_load",
    "channel_matrix", "defenses",
)


def _config_type(spec: FigureSpec) -> type:
    """The annotated type of the driver's first (config) parameter."""
    first = next(iter(inspect.signature(spec.driver).parameters))
    return typing.get_type_hints(spec.driver)[first]


def test_ids_are_unique_and_keyed_by_id():
    ids = [spec.id for spec in SPECS]
    assert len(ids) == len(set(ids))
    assert all(key == spec.id for key, spec in EXPERIMENTS.items())


@pytest.mark.parametrize("experiment_id", LEGACY_IDS)
def test_legacy_id_resolves(experiment_id):
    assert get_spec(experiment_id).id == experiment_id


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.id)
class TestSpec:
    def test_has_bands(self, spec):
        assert spec.bands

    def test_every_band_names_a_paper_value(self, spec):
        for band in spec.bands:
            assert band.name.strip()
            assert band.paper.strip(), band.name

    def test_configs_match_the_driver(self, spec):
        config_type = _config_type(spec)
        assert isinstance(spec.quick, config_type)
        assert isinstance(spec.full, config_type)
