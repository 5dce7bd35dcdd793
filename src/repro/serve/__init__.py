"""Campaign service: one store served over HTTP to a fleet of workers.

:class:`~repro.serve.server.CampaignServer` fronts a local SQLite store
over stdlib HTTP; :class:`~repro.serve.client.HttpStore` is the matching
client, a full :class:`~repro.store.base.StoreBackend` registered as the
``"http"`` backend — so a ``cache_path`` of
``http://host:8787/campaign`` opens it wherever a run opens its store,
with zero call-site changes.
"""

# Initialise the store package first: its trailing import of
# repro.serve.client (the "http" backend registration) must not find
# this package mid-init when callers import repro.serve directly.
import repro.store  # noqa: F401

from repro.serve.client import TOKEN_ENV, HttpStore, default_client_id

__all__ = [
    "CampaignServer",
    "HttpStore",
    "TOKEN_ENV",
    "default_client_id",
]


def __getattr__(name: str):
    # PEP 562: the store registry imports this package for its client,
    # so the HTTP server is loaded on first use only.
    if name != "CampaignServer":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.serve.server import CampaignServer

    return CampaignServer
