let inv_phi = (sqrt 5.0 -. 1.0) /. 2.0

let golden_section ~lo ~hi f =
  if not (lo <= hi) then invalid_arg "Optimize.golden_section: lo > hi";
  let tol = Float.max 1e-12 (1e-9 *. (hi -. lo)) in
  let a = ref lo and b = ref hi in
  let c = ref (!b -. (inv_phi *. (!b -. !a))) in
  let d = ref (!a +. (inv_phi *. (!b -. !a))) in
  let fc = ref (f !c) and fd = ref (f !d) in
  while !b -. !a > tol do
    if !fc <= !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (inv_phi *. (!b -. !a));
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (inv_phi *. (!b -. !a));
      fd := f !d
    end
  done;
  let x = (!a +. !b) /. 2.0 in
  (x, f x)

let grid_minimize ~n ~lo ~hi f =
  if n < 2 then invalid_arg "Optimize.grid_minimize: need n >= 2";
  if not (lo <= hi) then invalid_arg "Optimize.grid_minimize: lo > hi";
  let step = (hi -. lo) /. float_of_int (n - 1) in
  let best_x = ref lo and best_f = ref (f lo) in
  for i = 1 to n - 1 do
    let x = lo +. (float_of_int i *. step) in
    let fx = f x in
    if fx < !best_f then begin
      best_f := fx;
      best_x := x
    end
  done;
  (* Two refinements around the best sample: the function is locally
     unimodal there for the staircase objectives we care about. *)
  let x = ref !best_x and fx = ref !best_f in
  for _ = 1 to 2 do
    let a = Float.max lo (!x -. step) and b = Float.min hi (!x +. step) in
    let x', fx' = golden_section ~lo:a ~hi:b f in
    if fx' < !fx then begin
      x := x';
      fx := fx'
    end
  done;
  (!x, !fx)

let bisect ~lo ~hi f =
  let flo = f lo and fhi = f hi in
  if flo = 0.0 then Some lo
  else if fhi = 0.0 then Some hi
  else if flo *. fhi > 0.0 then None
  else begin
    let a = ref lo and b = ref hi and fa = ref flo in
    let iter = ref 0 in
    while !b -. !a > 1e-12 && !iter < 200 do
      let m = (!a +. !b) /. 2.0 in
      let fm = f m in
      if fm = 0.0 then begin
        a := m;
        b := m
      end
      else if !fa *. fm < 0.0 then b := m
      else begin
        a := m;
        fa := fm
      end;
      incr iter
    done;
    Some ((!a +. !b) /. 2.0)
  end

let invert_increasing ~lo ~hi f y =
  if y <= f lo then lo
  else if y >= f hi then hi
  else
    match bisect ~lo ~hi (fun x -> f x -. y) with
    | Some x -> x
    | None -> (* cannot happen for a nondecreasing f given the guards *) lo
