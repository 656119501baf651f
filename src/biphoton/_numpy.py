"""numpy, imported on its first use, so that the configuration paths
(registry, scenario schema, scheme budgets) start on the stdlib alone."""


class LazyNumpy:
    """Stands in for ``np`` in one module's globals.  The first attribute
    read imports numpy and rebinds that module's ``np`` to numpy itself, so
    every later call reads numpy directly."""

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)
