"""Ball-carving clustering and cluster-local randomness sharing
(Lemmas 4.2 and 4.3)."""

from .. import _lazy

__all__ = [
    "CarvingOutput",
    "CarvingProtocol",
    "ClusterLayer",
    "Clustering",
    "build_clustering",
    "carve_layer",
    "carving_horizon",
    "cluster_seed_bits",
    "default_num_layers",
    "default_sharing_chunks",
    "draw_radii_and_labels",
    "extend_clustering",
    "run_distributed_clustering",
]

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "ClusterLayer": "carving",
        "carve_layer": "carving",
        "draw_radii_and_labels": "carving",
        "CarvingOutput": "distributed",
        "CarvingProtocol": "distributed",
        "run_distributed_clustering": "distributed",
        "Clustering": "layers",
        "build_clustering": "layers",
        "carving_horizon": "layers",
        "cluster_seed_bits": "layers",
        "default_num_layers": "layers",
        "default_sharing_chunks": "layers",
        "extend_clustering": "layers",
    },
)
