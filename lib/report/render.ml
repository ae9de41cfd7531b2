let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let surface (s : Dvs_analytical.Sweep.surface) =
  let buf = Buffer.create 1024 in
  let vmax =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc v -> if Float.is_finite v then Float.max acc v else acc)
          acc row)
      0.0 s.z
  in
  Buffer.add_string buf
    (Printf.sprintf "rows: %s (top to bottom), cols: %s (left to right)\n"
       s.y_label s.x_label);
  Buffer.add_string buf
    (Printf.sprintf "cols %s: %s\n" s.x_label
       (String.concat " "
          (Array.to_list (Array.map (fun x -> Printf.sprintf "%.3g" x) s.xs))));
  (* Numeric grid in percent, one row per y (descending, like a plot). *)
  for iy = Array.length s.ys - 1 downto 0 do
    Buffer.add_string buf (Printf.sprintf "%10.3g | " s.ys.(iy));
    Array.iter
      (fun v ->
        if Float.is_finite v then
          Buffer.add_string buf (Printf.sprintf "%5.1f " (100.0 *. v))
        else Buffer.add_string buf "----- ")
      s.z.(iy);
    (* Shade strip. *)
    Buffer.add_string buf "  ";
    Array.iter
      (fun v ->
        let c =
          if not (Float.is_finite v) then '?'
          else if vmax <= 0.0 then ' '
          else
            shades.(Int.min 9 (int_of_float (9.99 *. (v /. vmax))))
        in
        Buffer.add_char buf c)
      s.z.(iy);
    Buffer.add_char buf '\n'
  done;
  (match Dvs_analytical.Sweep.max_point s with
  | Some (x, y, v) ->
    Buffer.add_string buf
      (Printf.sprintf "peak: %.4g at %s=%.4g, %s=%.4g\n" (100.0 *. v)
         s.x_label x s.y_label y)
  | None -> Buffer.add_string buf "peak: none (all infeasible)\n");
  Buffer.contents buf

let series ~x_label ~y_label ?(digits = 4) pts =
  let buf = Buffer.create 512 in
  let vmax = List.fold_left (fun a (_, y) -> Float.max a y) 0.0 pts in
  Buffer.add_string buf (Printf.sprintf "%14s  %14s\n" x_label y_label);
  List.iter
    (fun (x, y) ->
      let bar =
        if vmax <= 0.0 then ""
        else String.make (int_of_float (40.0 *. y /. vmax)) '#'
      in
      Buffer.add_string buf
        (Printf.sprintf "%14.*g  %14.*g  %s\n" digits x digits y bar))
    pts;
  Buffer.contents buf
