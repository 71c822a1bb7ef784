type point = { x : float; y : float }
type bbox = { lx : float; ly : float; hx : float; hy : float }

let point x y = { x; y }

let manhattan a b = abs_float (a.x -. b.x) +. abs_float (a.y -. b.y)

let euclid a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let midpoint a b = { x = (a.x +. b.x) /. 2.0; y = (a.y +. b.y) /. 2.0 }

let empty_bbox = { lx = infinity; ly = infinity; hx = neg_infinity; hy = neg_infinity }

let bbox_of_point p = { lx = p.x; ly = p.y; hx = p.x; hy = p.y }

let expand b p =
  {
    lx = Float.min b.lx p.x;
    ly = Float.min b.ly p.y;
    hx = Float.max b.hx p.x;
    hy = Float.max b.hy p.y;
  }

let bbox_union a b =
  {
    lx = Float.min a.lx b.lx;
    ly = Float.min a.ly b.ly;
    hx = Float.max a.hx b.hx;
    hy = Float.max a.hy b.hy;
  }

let bbox_of_points = function
  | [] -> invalid_arg "Geom.bbox_of_points: empty"
  | p :: rest -> List.fold_left expand (bbox_of_point p) rest

let hpwl b = if b.lx > b.hx then 0.0 else b.hx -. b.lx +. (b.hy -. b.ly)

let width b = Float.max 0.0 (b.hx -. b.lx)
let height b = Float.max 0.0 (b.hy -. b.ly)
let center b = { x = (b.lx +. b.hx) /. 2.0; y = (b.ly +. b.hy) /. 2.0 }

let contains b p = p.x >= b.lx && p.x <= b.hx && p.y >= b.ly && p.y <= b.hy

let overlap a b = a.lx <= b.hx && b.lx <= a.hx && a.ly <= b.hy && b.ly <= a.hy

let clamp v ~lo ~hi = if v < lo then lo else if v > hi then hi else v

(* Minimum spanning tree over Manhattan distance.  Both paths below add the
   same edges in the same order: the next point is the non-tree point of
   least distance to the tree, lowest index on a tie, and it hangs on the
   earliest-inserted tree point at that distance.  Placement coordinates are
   finite; a set with a non-finite one takes the dense scan, whose
   comparisons define the result for NaN too. *)

(* Dense Prim scan, O(n^2): for sets that fit in one k-d leaf it beats
   building the tree.  A point's parent changes only on a strictly shorter
   edge, so ties keep the earliest tree point. *)
let prim_scan pts =
  let n = Array.length pts in
  let in_tree = Array.make n false in
  let dist = Array.make n infinity in
  let parent = Array.make n 0 in
  in_tree.(0) <- true;
  for j = 1 to n - 1 do
    dist.(j) <- manhattan pts.(0) pts.(j)
  done;
  let edges = ref [] in
  for _ = 1 to n - 1 do
    let best = ref (-1) in
    for j = 0 to n - 1 do
      if (not in_tree.(j)) && (!best = -1 || dist.(j) < dist.(!best)) then best := j
    done;
    let b = !best in
    in_tree.(b) <- true;
    edges := (pts.(parent.(b)), pts.(b)) :: !edges;
    for j = 0 to n - 1 do
      if not in_tree.(j) then begin
        let d = manhattan pts.(b) pts.(j) in
        if d < dist.(j) then begin
          dist.(j) <- d;
          parent.(j) <- b
        end
      end
    done
  done;
  List.rev !edges

(* Lazy Prim over a static k-d tree with deletions: O(n log n) on
   placement-like sets, where the initial structure's one switch carries
   every MT-cell of the design.  Each tree point keeps one heap entry keyed
   (distance, index of its nearest non-tree point, own insertion rank); the
   least key is exactly the dense scan's choice.  An entry whose target has
   joined the tree since is re-queried and pushed again: a tree point's
   nearest distance only grows as the non-tree set shrinks, so a stale key
   is a lower bound.

   Coincident points are collapsed first.  Under the dense scan the extra
   copies of a location follow its first copy straight away, in index
   order, each on a zero-length edge from that first copy.  The k-d tree
   holds only the first copies; otherwise every query on a duplicate-heavy
   set would walk the whole tie. *)

let kd_leaf = 32

type kd = {
  lo : int;  (** the node covers [perm.(lo) .. perm.(hi - 1)] *)
  hi : int;
  box : bbox;  (** of every point in the node, alive or not *)
  mutable alive : int;  (** points not yet in the spanning tree *)
  kids : (kd * kd) option;
}

let rec kd_build xs ys perm lo hi =
  let box = ref empty_bbox in
  for k = lo to hi - 1 do
    box := expand !box { x = xs.(perm.(k)); y = ys.(perm.(k)) }
  done;
  let box = !box in
  let kids =
    if hi - lo <= kd_leaf then None
    else begin
      let c = if width box >= height box then xs else ys in
      let sub = Array.sub perm lo (hi - lo) in
      Array.stable_sort (fun i j -> Float.compare c.(i) c.(j)) sub;
      Array.blit sub 0 perm lo (hi - lo);
      let mid = (lo + hi) / 2 in
      Some (kd_build xs ys perm lo mid, kd_build xs ys perm mid hi)
    end
  in
  { lo; hi; box; alive = hi - lo; kids }

(* Remove the point at [perm.(pos)] from the alive counts. *)
let rec kd_remove node pos =
  node.alive <- node.alive - 1;
  match node.kids with
  | Some (l, r) -> kd_remove (if pos < l.hi then l else r) pos
  | None -> ()

let lazy_prim pts =
  let n = Array.length pts in
  let xs = Array.map (fun p -> p.x) pts and ys = Array.map (fun p -> p.y) pts in
  (* Coincident points: sorted by location then index, each run's first
     index is its location's first copy; [copies.(i)] lists the rest,
     latest first. *)
  let by_loc = Array.init n Fun.id in
  let loc_compare i j =
    match Float.compare xs.(i) xs.(j) with
    | 0 -> Float.compare ys.(i) ys.(j)
    | c -> c
  in
  Array.sort (fun i j -> match loc_compare i j with 0 -> compare i j | c -> c) by_loc;
  let copies = Array.make n [] in
  let firsts = ref [] and first = ref 0 in
  Array.iteri
    (fun k i ->
      if k > 0 && loc_compare by_loc.(k - 1) i = 0 then copies.(!first) <- i :: copies.(!first)
      else begin
        first := i;
        firsts := i :: !firsts
      end)
    by_loc;
  let perm = Array.of_list !firsts in
  let root = kd_build xs ys perm 0 (Array.length perm) in
  let pos = Array.make n 0 in
  Array.iteri (fun k i -> pos.(i) <- k) perm;
  let in_tree = Array.make n false in
  (* Nearest non-tree point to [q], lowest index on a tie; [-1] when none.
     A subtree is pruned only when its bound is strictly greater than the
     best distance: on equality it may still hold a lower index. *)
  let best_d = [| infinity |] and best_i = ref (-1) in
  let nearest q =
    let qx = xs.(q) and qy = ys.(q) in
    let[@inline] bound b =
      (if qx < b.lx then b.lx -. qx else if qx > b.hx then qx -. b.hx else 0.0)
      +. if qy < b.ly then b.ly -. qy else if qy > b.hy then qy -. b.hy else 0.0
    in
    let rec visit node =
      if node.alive > 0 && bound node.box <= best_d.(0) then
        match node.kids with
        | None ->
          for k = node.lo to node.hi - 1 do
            let i = perm.(k) in
            if not in_tree.(i) then begin
              let d = abs_float (xs.(i) -. qx) +. abs_float (ys.(i) -. qy) in
              if d < best_d.(0) || (d = best_d.(0) && i < !best_i) then begin
                best_d.(0) <- d;
                best_i := i
              end
            end
          done
        | Some (l, r) ->
          if bound l.box <= bound r.box then begin
            visit l;
            visit r
          end
          else begin
            visit r;
            visit l
          end
    in
    best_d.(0) <- infinity;
    best_i := -1;
    visit root;
    !best_i
  in
  (* Min-heap of tree points [t], keyed (hd, hj, rank.(t)), in flat arrays:
     a [Set] of boxed entries measured 9% more peak heap on a 24k-instance
     datapath. *)
  let hd = Array.make n 0.0 and hj = Array.make n 0 and ht = Array.make n 0 in
  let rank = Array.make n 0 in
  let size = ref 0 in
  let less a b =
    hd.(a) < hd.(b)
    || (hd.(a) = hd.(b) && (hj.(a) < hj.(b) || (hj.(a) = hj.(b) && rank.(ht.(a)) < rank.(ht.(b)))))
  in
  let swap a b =
    let d = hd.(a) and j = hj.(a) and t = ht.(a) in
    hd.(a) <- hd.(b);
    hj.(a) <- hj.(b);
    ht.(a) <- ht.(b);
    hd.(b) <- d;
    hj.(b) <- j;
    ht.(b) <- t
  in
  let rec up k =
    let p = (k - 1) / 2 in
    if k > 0 && less k p then begin
      swap k p;
      up p
    end
  in
  let rec down k =
    let l = (2 * k) + 1 in
    let c = if l + 1 < !size && less (l + 1) l then l + 1 else l in
    if c < !size && less c k then begin
      swap k c;
      down c
    end
  in
  let push_nearest t =
    let j = nearest t in
    if j >= 0 then begin
      let k = !size in
      incr size;
      hd.(k) <- best_d.(0);
      hj.(k) <- j;
      ht.(k) <- t;
      up k
    end
  in
  let edges = ref [] in
  let joined = ref 0 in
  let join i =
    in_tree.(i) <- true;
    rank.(i) <- !joined;
    incr joined;
    kd_remove root pos.(i);
    List.iter (fun c -> edges := (pts.(i), pts.(c)) :: !edges) (List.rev copies.(i))
  in
  join 0;
  push_nearest 0;
  while !size > 0 do
    let j = hj.(0) and t = ht.(0) in
    decr size;
    swap 0 !size;
    down 0;
    if not in_tree.(j) then begin
      edges := (pts.(t), pts.(j)) :: !edges;
      join j;
      push_nearest j
    end;
    push_nearest t
  done;
  List.rev !edges

let spanning_edges points =
  let pts = Array.of_list points in
  let finite p = Float.is_finite p.x && Float.is_finite p.y in
  if Array.length pts < 2 then []
  else if Array.length pts <= kd_leaf || not (Array.for_all finite pts) then prim_scan pts
  else lazy_prim pts

let spanning_length points =
  List.fold_left (fun acc (a, b) -> acc +. manhattan a b) 0.0 (spanning_edges points)
