(** Planar geometry for placement, routing, and VGND wire-length budgeting.

    Coordinates are in micrometres throughout the repository. *)

type point = { x : float; y : float }

type bbox = { lx : float; ly : float; hx : float; hy : float }
(** Axis-aligned rectangle; invariant [lx <= hx && ly <= hy]. *)

val point : float -> float -> point

val manhattan : point -> point -> float
(** L1 distance, the routed-wire metric. *)

val euclid : point -> point -> float

val midpoint : point -> point -> point

val empty_bbox : bbox
(** Identity for [expand]: contains nothing. *)

val bbox_of_point : point -> bbox

val expand : bbox -> point -> bbox
(** Smallest bbox containing both. *)

val bbox_union : bbox -> bbox -> bbox

val bbox_of_points : point list -> bbox
(** Raises [Invalid_argument] on the empty list. *)

val hpwl : bbox -> float
(** Half-perimeter wirelength of the box. *)

val width : bbox -> float
val height : bbox -> float
val center : bbox -> point
val contains : bbox -> point -> bool
val overlap : bbox -> bbox -> bool

val clamp : float -> lo:float -> hi:float -> float

val spanning_edges : point list -> (point * point) list
(** Edges [(parent, child)] of a rectilinear minimum spanning tree over the
    points, rooted at the first point, in the order Prim's algorithm on
    Manhattan distance adds them.  Empty or singleton lists give [[]].

    The tree is fixed by two tie rules, which callers may rely on (the
    VGND length is summed in this order, and the router routes these
    pairs):
    - next point: the non-tree point of least distance to the tree, the
      lowest list index among equal distances;
    - parent: of the tree points at that distance, the earliest inserted.

    Coincident points follow from these rules: each extra copy of a
    location is added straight after the location's first copy (its
    lowest index), in index order, on a zero-length edge from that first
    copy.

    Cost: sets of at most 32 points take the dense O(n^2) scan.  Larger
    sets collapse coincident points, then run a lazy Prim over a k-d tree
    with deletions: O(n log n) time on placement-like sets and O(n) memory.
    The result is the dense scan's, edge for edge.  A set with a
    non-finite coordinate takes the dense scan at any size. *)

val spanning_length : point list -> float
(** Total Manhattan length of {!spanning_edges}, summed in insertion
    order; the VGND-line length model. Empty or singleton lists give
    [0.]. *)
