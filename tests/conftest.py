import pytest

from qmodver import lattice, specfun


def _empty_builder_caches():
    for builder in (specfun.partition_gf, specfun.dedekind_eta, lattice.character,
                    lattice.eta_theta_form):
        builder.cache_clear()


@pytest.fixture(autouse=True)
def empty_builder_caches():
    """Each test starts with the memoized series builders empty, so what a
    test builds runs under that test's patches, whatever ran before it; a
    test that patches midway calls the returned function to empty them
    again."""
    _empty_builder_caches()
    return _empty_builder_caches
