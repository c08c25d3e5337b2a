"""The benchmark's tracer wraps edgesim functions by name, and refuses to
run when one is missing. Installing it here makes deleting or renaming a
traced name fail tier-1, not only the benchmark."""

from edgesim import device_model, sim_engine
from edgesim.net_model import Nlm


def test_every_traced_name_is_wrapped_and_restored(tracer):
    targets = tracer.SPANS + tracer.COUNTED
    originals = [tracer._resolve(module, path)[2] for module, path in targets]
    observe, service_request = Nlm.observe, device_model.service_request
    t = tracer.Tracer()
    try:
        t.install()
        assert Nlm.observe is not observe
        # sim_engine calls its own binding of the name, wrapped too
        assert sim_engine.service_request is not service_request
    finally:
        t.uninstall()
    assert [tracer._resolve(module, path)[2] for module, path in targets] == originals
    assert Nlm.observe is observe
    assert sim_engine.service_request is device_model.service_request is service_request
