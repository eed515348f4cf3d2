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


@pytest.fixture
def sink(monkeypatch):
    """``sink("objects")`` / ``sink("disk")`` sends every fragment
    exchange that runs afterwards in the test through that sink. No
    library function takes the sink as an option; this moves the
    threshold of the exchange's auto rule, which every caller applies
    on the driver. Returns the list of shuffle-dir tags the disk sink
    creates from then on, so a test can check which sink ran."""
    import arcade_ray.exchange as ex

    real = ex.make_shuffle_dir

    def use(mode):
        tags = []

        def spy(tag, parent=None):
            tags.append(tag)
            return real(tag, parent)

        monkeypatch.setattr(ex, "make_shuffle_dir", spy)
        monkeypatch.setattr(ex, "DISK_EXCHANGE_BYTES",
                            {"objects": 1 << 62, "disk": 1}[mode])
        return tags

    return use
