import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(params=["native", "numpy"])
def kernel_mode(request, monkeypatch):
    """Run a test with the C kernels (codecs/native.py) and again with
    the numpy fallback that ARCADE_NO_NATIVE=1 selects."""
    import arcade_ray.codecs.native as nat
    import arcade_ray.codecs.str_codecs as sc

    if request.param == "numpy":
        monkeypatch.setenv("ARCADE_NO_NATIVE", "1")
    else:
        monkeypatch.delenv("ARCADE_NO_NATIVE", raising=False)
    monkeypatch.setattr(nat, "_tried", False)
    monkeypatch.setattr(nat, "_lib", None)
    monkeypatch.setattr(sc, "_native_ok", None)
    if request.param == "native" and nat.get_lib() is None:
        pytest.skip("no C compiler in this environment")
    return request.param
