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
    points (Prim on Manhattan distance, rooted at the first point), in the
    order Prim adds them.  Empty or singleton lists give [[]]. *)

val spanning_length : point list -> float
(** Total Manhattan length of {!spanning_edges}, summed in insertion
    order; the VGND-line length model. Empty or singleton lists give
    [0.]. *)
