module Netlist = Smt_netlist.Netlist
module Nl_stats = Smt_netlist.Nl_stats
module Sta = Smt_sta.Sta
module Leakage = Smt_power.Leakage
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Text_table = Smt_util.Text_table

let power nl =
  let lk = Leakage.standby nl in
  let total = lk.Leakage.total in
  let pct v = if total = 0.0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. v /. total) in
  let rows =
    [
      ("low-Vth logic", lk.Leakage.low_vth_logic);
      ("high-Vth logic", lk.Leakage.high_vth_logic);
      ("flip-flops", lk.Leakage.sequential);
      ("MT-cell residual", lk.Leakage.mt_residual);
      ("sleep switches", lk.Leakage.switches);
      ("embedded MT-cells", lk.Leakage.embedded_mt);
      ("output holders", lk.Leakage.holders);
      ("clock/MTE/ECO buffers", lk.Leakage.infrastructure);
    ]
    |> List.filter (fun (_, v) -> v > 0.0)
    |> List.map (fun (name, v) -> [ name; Printf.sprintf "%.2f" v; pct v ])
  in
  Printf.sprintf "Standby leakage: %.2f nW total (active floor %.2f nW)\n%s" total
    (Leakage.active nl)
    (Text_table.render ~header:[ "Contributor"; "nW"; "Share" ] rows)

let area nl =
  let stats = Nl_stats.compute nl in
  let by_kind = Hashtbl.create 31 in
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      let key = Func.to_string c.Cell.kind in
      let total, count =
        match Hashtbl.find_opt by_kind key with Some (t, n) -> (t, n) | None -> (0.0, 0)
      in
      Hashtbl.replace by_kind key (total +. c.Cell.area, count + 1));
  let kinds =
    Hashtbl.fold (fun k (a, n) acc -> (k, a, n) :: acc) by_kind []
    |> List.sort (fun (_, a1, _) (_, a2, _) -> compare a2 a1)
    |> List.filteri (fun i _ -> i < 8)
  in
  let category_rows =
    [
      [ "plain logic"; Printf.sprintf "%.1f" stats.Nl_stats.area_logic ];
      [ "MT-cells"; Printf.sprintf "%.1f" stats.Nl_stats.area_mt_cells ];
      [ "sleep switches"; Printf.sprintf "%.1f" stats.Nl_stats.area_switches ];
      [ "output holders"; Printf.sprintf "%.1f" stats.Nl_stats.area_holders ];
    ]
  in
  let kind_rows =
    List.map
      (fun (k, a, n) -> [ k; string_of_int n; Printf.sprintf "%.1f" a ])
      kinds
  in
  Printf.sprintf "Area: %.1f um^2 over %d instances (MT fraction %.2f)\n%s\n\ntop cell kinds:\n%s"
    stats.Nl_stats.area_total stats.Nl_stats.instances
    (Nl_stats.mt_area_fraction stats)
    (Text_table.render ~header:[ "Category"; "um^2" ] category_rows)
    (Text_table.render ~header:[ "Kind"; "Count"; "um^2" ] kind_rows)

let summary sta =
  Printf.sprintf
    "timing %s: wns %.1f ps, tns %.1f ps over %d endpoints; hold %s (worst %.1f ps)"
    (if Sta.meets_timing sta then "MET" else "VIOLATED")
    (Sta.wns sta) (Sta.tns sta)
    (List.length (Sta.endpoints sta))
    (if Sta.meets_hold sta then "MET" else "VIOLATED")
    (Sta.worst_hold_slack sta)
