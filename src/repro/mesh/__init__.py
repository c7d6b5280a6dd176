"""Spatial-grid substrate: structured quad meshes, Krak input decks,
connectivity, geometry, and partition-boundary tallies.

The paper's input is a rectangular 2-D grid of quadrilateral *cells*, each
bounded by four *faces* joining *nodes*, with exactly one material per cell
(Section 2).  The grid is conceptually rotated about a vertical axis to form
a cylinder.
"""

from repro.mesh.grid import QuadMesh, structured_quad_mesh
from repro.mesh.connectivity import (
    FaceTable,
    build_face_table,
    build_dual_graph,
)
from repro.mesh.geometry import (
    cell_areas,
    cell_centroids,
)
from repro.mesh.deck import (
    MATERIALS,
    MATERIAL_NAMES,
    NUM_MATERIALS,
    HE_GAS,
    ALUMINUM_INNER,
    FOAM,
    ALUMINUM_OUTER,
    DECK_SIZES,
    InputDeck,
    build_deck,
    material_fractions,
)
from repro.mesh.ghost import (
    node_owners,
)

__all__ = [
    "QuadMesh",
    "structured_quad_mesh",
    "FaceTable",
    "build_face_table",
    "build_dual_graph",
    "cell_areas",
    "cell_centroids",
    "MATERIALS",
    "MATERIAL_NAMES",
    "NUM_MATERIALS",
    "HE_GAS",
    "ALUMINUM_INNER",
    "FOAM",
    "ALUMINUM_OUTER",
    "DECK_SIZES",
    "InputDeck",
    "build_deck",
    "material_fractions",
    "node_owners",
]
