"""One module per workload; each defines a ``Workload`` subclass."""
