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

(* Prim's algorithm over Manhattan distance; O(n^2), fine for cluster-sized
   point sets (EM caps keep clusters small).  A point's parent changes only
   on a strictly shorter edge, so ties keep the earliest tree point. *)
let spanning_edges points =
  match Array.of_list points with
  | [||] | [| _ |] -> []
  | pts ->
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

let spanning_length points =
  List.fold_left (fun acc (a, b) -> acc +. manhattan a b) 0.0 (spanning_edges points)
