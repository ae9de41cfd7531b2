(* Cutting planes shared across a deadline sweep: Gomory mixed-integer
   cuts from the simplex tableau, knapsack covers from the deadline row,
   GUB covers from the one-mode-per-edge groups.  See cuts.mli for the
   validity-tagging scheme that lets cuts travel between sweep points. *)

open Dvs_lp
module C = Compiled

type origin = Gomory | Cover | Gub

type t = {
  coeffs : (Model.var * float) list;
  cmp : Model.cmp;
  rhs : float;
  valid_le : float;
  origin : origin;
  born : float;
}

let origin_name = function
  | Gomory -> "gomory"
  | Cover -> "cover"
  | Gub -> "gub"

let pp ppf c =
  let pp_cmp ppf = function
    | Model.Le -> Format.pp_print_string ppf "<="
    | Model.Ge -> Format.pp_print_string ppf ">="
    | Model.Eq -> Format.pp_print_string ppf "="
  in
  Format.fprintf ppf "@[%s:" (origin_name c.origin);
  List.iter (fun (v, w) -> Format.fprintf ppf " %+gx%d" w v) c.coeffs;
  Format.fprintf ppf " %a %g (valid<=%g)@]" pp_cmp c.cmp c.rhs c.valid_le

let lhs_at c x =
  List.fold_left (fun acc (v, w) -> acc +. (w *. x.(v))) 0.0 c.coeffs

let violation c x =
  let lhs = lhs_at c x in
  match c.cmp with
  | Model.Le -> lhs -. c.rhs
  | Model.Ge -> c.rhs -. lhs
  | Model.Eq -> Float.abs (lhs -. c.rhs)

let satisfied c x = violation c x <= 1e-6

let add_to_model m c =
  Model.add_constraint ~name:"cut" m
    (Expr.of_terms (List.map (fun (v, w) -> (w, v)) c.coeffs))
    c.cmp c.rhs

(* ---- Gomory mixed-integer cuts ---------------------------------------- *)

(* Separation margin: rows whose basic value is nearly integral produce
   numerically fragile cuts, so only fractional parts in
   [frac_margin, 1 - frac_margin] are used. *)
let frac_margin = 0.01

let tiny = 1e-11

(* A cut whose surviving coefficients span [max_range] or more (largest
   over smallest magnitude) is dropped as numerically fragile (DESIGN.md
   section 11 has the measured choice). *)
let max_range = 1e6

let gomory ~compiled:c ~tableau:tab ~x ~deadline ~row_valid_le
    ~bounds_pristine ~max_cuts =
  let n = c.C.n and m = c.C.m and nt = c.C.nt in
  let alpha = Array.make nt 0.0 in
  let w = Array.make n 0.0 in
  let candidates = ref [] in
  for r = 0 to m - 1 do
    let k = Simplex.tableau_basic_var tab r in
    if k < n && c.C.integer.(k) then begin
      let b = Simplex.tableau_basic_value tab r in
      let f0 = b -. Float.floor b in
      if f0 > frac_margin && f0 < 1.0 -. frac_margin then begin
        Simplex.tableau_row tab r alpha;
        (* Shift every nonbasic column to its active bound, building the
           GMI multipliers gamma over the shifted (nonnegative) space:
             x_B + sum_j abar_j xtilde_j = b,  f0 = frac(b)
             sum_j gamma_j xtilde_j >= 1. *)
        let ok = ref true in
        let valid_le = ref infinity in
        if not bounds_pristine then valid_le := deadline;
        Array.fill w 0 n 0.0;
        let rhs_cut = ref 1.0 in
        (try
           for j = 0 to nt - 1 do
             let a = alpha.(j) in
             if j <> k && Float.abs a > tiny then begin
               let s, p =
                 match Simplex.tableau_col_status tab j with
                 | Simplex.Col_lower -> (1.0, c.C.lb.(j))
                 | Simplex.Col_upper -> (-1.0, c.C.ub.(j))
                 | Simplex.Col_free | Simplex.Col_basic ->
                   ok := false;
                   raise Exit
               in
               if Float.is_integer p |> not then
                 if j < n && c.C.integer.(j) then begin
                   (* can't happen for 0/1 mode binaries; bail to stay
                      safe rather than emit an unproven cut *)
                   ok := false;
                   raise Exit
                 end;
               let abar = a *. s in
               let gamma =
                 if j < n && c.C.integer.(j) && Float.is_integer p then begin
                   let f = abar -. Float.floor abar in
                   if f <= f0 then f /. f0 else (1.0 -. f) /. (1.0 -. f0)
                 end
                 else if abar >= 0.0 then abar /. f0
                 else -.abar /. (1.0 -. f0)
               in
               if gamma > tiny then begin
                 if Float.is_finite p |> not then begin
                   ok := false;
                   raise Exit
                 end;
                 (* Bound shifts away from the pristine box tie the cut
                    to the sweep point whose fixings produced them. *)
                 if j < nt && (c.C.lb.(j) <> c.C.lb0.(j) || c.C.ub.(j) <> c.C.ub0.(j))
                 then valid_le := Float.min !valid_le deadline;
                 (* gamma * xtilde = gamma * s * (x_j - p) *)
                 let cj = gamma *. s in
                 rhs_cut := !rhs_cut +. (cj *. p);
                 if j < n then w.(j) <- w.(j) +. cj
                 else begin
                   (* slack of row i: s_i = rhs_i - a_i . x (scaled) *)
                   let i = j - n in
                   valid_le := Float.min !valid_le row_valid_le.(i);
                   for q = c.C.row_ptr.(i) to c.C.row_ptr.(i + 1) - 1 do
                     w.(c.C.row_col.(q)) <-
                       w.(c.C.row_col.(q)) -. (cj *. c.C.row_val.(q))
                   done;
                   rhs_cut := !rhs_cut -. (cj *. c.C.rhs.(i))
                 end
               end
             end
           done
         with Exit -> ());
        if !ok then begin
          (* Drop numerically negligible coefficients, paying for each
             dropped term with its worst-case contribution (pristine
             bounds are the widest the variable can move in any node of
             this sweep point's search tree). *)
          let maxc = ref 0.0 in
          for j = 0 to n - 1 do
            maxc := Float.max !maxc (Float.abs w.(j))
          done;
          if !maxc > 1e-9 then begin
            let minc = ref infinity in
            (try
               for j = 0 to n - 1 do
                 let a = Float.abs w.(j) in
                 if a > 0.0 && a <= 1e-10 *. !maxc then begin
                   let hi =
                     if w.(j) > 0.0 then w.(j) *. c.C.ub0.(j)
                     else w.(j) *. c.C.lb0.(j)
                   in
                   if Float.is_finite hi then begin
                     rhs_cut := !rhs_cut -. hi;
                     w.(j) <- 0.0
                   end
                   else begin
                     ok := false;
                     raise Exit
                   end
                 end
                 else if a > 0.0 then minc := Float.min !minc a
               done
             with Exit -> ());
            if !ok && !maxc /. !minc < max_range then begin
              (* Safety slack against accumulated floating error: relax
                 the >= cut slightly.  Weakens it imperceptibly, keeps it
                 valid under the validity property test. *)
              let rhs_cut =
                !rhs_cut -. (1e-9 *. (1.0 +. Float.abs !rhs_cut))
              in
              let coeffs = ref [] in
              let count = ref 0 in
              for j = n - 1 downto 0 do
                if w.(j) <> 0.0 then begin
                  coeffs := (j, w.(j)) :: !coeffs;
                  incr count
                end
              done;
              if !count > 0 && !count <= 200 then begin
                let cut =
                  {
                    coeffs = !coeffs;
                    cmp = Model.Ge;
                    rhs = rhs_cut;
                    valid_le = !valid_le;
                    origin = Gomory;
                    born = deadline;
                  }
                in
                let viol = violation cut x in
                if viol > 1e-6 *. (1.0 +. Float.abs rhs_cut) then
                  candidates := (viol, cut) :: !candidates
              end
            end
          end
        end
      end
    end
  done;
  !candidates
  |> List.sort (fun (a, _) (b, _) -> Float.compare b a)
  |> List.filteri (fun i _ -> i < max_cuts)
  |> List.map snd

(* ---- knapsack cover cuts ---------------------------------------------- *)

(* A cover is certified by its weight sum exceeding the deadline; the cut
   then stays valid for every deadline below that sum (with a small
   relative safety margin against float comparison noise). *)
let cover_valid_le weight_sum =
  (weight_sum *. (1.0 -. 1e-9)) -. 1e-9

let exceeds ~deadline weight_sum =
  weight_sum > (deadline *. (1.0 +. 1e-9)) +. 1e-9

let covers ~row ~deadline ~x =
  let items =
    row
    |> List.filter (fun (wt, _) -> wt > 0.0)
    |> List.sort (fun (wa, va) (wb, vb) ->
           let c = Float.compare x.(vb) x.(va) in
           if c <> 0 then c
           else
             let c = Float.compare wb wa in
             if c <> 0 then c else compare va vb)
  in
  (* Greedy: most-fractional-first until the weights overrun the
     deadline. *)
  let rec build acc sum = function
    | [] -> None
    | (wt, v) :: rest ->
      let acc = (wt, v) :: acc and sum = sum +. wt in
      if exceeds ~deadline sum then Some (acc, sum) else build acc sum rest
  in
  match build [] 0.0 items with
  | None -> []
  | Some (cover, sum) ->
    (* Minimize: drop low-x members while the cover still certifies. *)
    let cover, sum =
      List.fold_left
        (fun (keep, sum) (wt, v) ->
          if List.length keep > 2 && exceeds ~deadline (sum -. wt) then
            (List.filter (fun (_, v') -> v' <> v) keep, sum -. wt)
          else (keep, sum))
        (cover, sum)
        (List.sort
           (fun (_, va) (_, vb) -> Float.compare x.(va) x.(vb))
           cover)
    in
    let vars = List.map snd cover |> List.sort_uniq compare in
    let k = List.length vars in
    if k < 2 then []
    else
      let cut =
        {
          coeffs = List.map (fun v -> (v, 1.0)) vars;
          cmp = Model.Le;
          rhs = float_of_int (k - 1);
          valid_le = cover_valid_le sum;
          origin = Cover;
          born = deadline;
        }
      in
      if violation cut x > 1e-6 then [ cut ] else []

(* ---- GUB cover cuts ---------------------------------------------------- *)

let gub_covers ~groups ~deadline ~x =
  (* Feasible points pick exactly one mode per group, so the deadline row
     is bounded below by the sum of per-group minima; raising chosen
     groups to a heavy-mode threshold theta_g certifies infeasibility
     once the total passes the deadline. *)
  let n_groups = List.length groups in
  if n_groups = 0 then []
  else begin
    let mins =
      List.map
        (fun (_, wts) -> Array.fold_left Float.min infinity wts)
        groups
    in
    let base = List.fold_left ( +. ) 0.0 mins in
    if not (Float.is_finite base) then []
    else begin
      (* Per group: the threshold maximizing selected fractional mass
         among thresholds strictly above the group's minimum. *)
      let picks =
        List.map2
          (fun (vars, wts) mn ->
            let thresholds =
              Array.to_list wts
              |> List.filter (fun t -> t > mn +. 1e-12)
              |> List.sort_uniq Float.compare
            in
            let best = ref None in
            List.iter
              (fun theta ->
                let mass = ref 0.0 in
                Array.iteri
                  (fun i v -> if wts.(i) >= theta then mass := !mass +. x.(v))
                  vars;
                match !best with
                | Some (_, m) when m >= !mass -. 1e-12 -> ()
                | _ -> best := Some (theta, !mass))
              thresholds;
            Option.map
              (fun (theta, mass) ->
                let sel =
                  Array.to_list vars
                  |> List.filteri (fun i _ -> wts.(i) >= theta)
                in
                (theta -. mn, mass, sel))
              !best)
          groups mins
        |> List.filter_map Fun.id
      in
      (* Add groups by descending fractional mass until the certificate
         weight passes the deadline. *)
      let picks =
        List.sort
          (fun (_, ma, sa) (_, mb, sb) ->
            let c = Float.compare mb ma in
            if c <> 0 then c else compare sa sb)
          picks
      in
      let rec build chosen sum mass count = function
        | [] -> None
        | (delta, m, sel) :: rest ->
          let chosen = sel :: chosen in
          let sum = sum +. delta and mass = mass +. m in
          let count = count + 1 in
          if exceeds ~deadline sum then Some (chosen, sum, mass, count)
          else build chosen sum mass count rest
      in
      match build [] base 0.0 0 picks with
      | None -> []
      | Some (chosen, sum, mass, count) ->
        if count < 1 || mass <= float_of_int (count - 1) +. 1e-6 then []
        else
          let vars = List.concat chosen |> List.sort_uniq compare in
          let cut =
            {
              coeffs = List.map (fun v -> (v, 1.0)) vars;
              cmp = Model.Le;
              rhs = float_of_int (count - 1);
              valid_le = cover_valid_le sum;
              origin = Gub;
              born = deadline;
            }
          in
          if violation cut x > 1e-6 then [ cut ] else []
    end
  end

(* ---- deduplicated pool ------------------------------------------------- *)

module Pool = struct
  type cut = t

  type entry = { mutable c : cut }

  type t = {
    tbl : (string, entry) Hashtbl.t;
    mutable items : entry list;  (* newest first *)
    mutable n : int;
  }

  (* Pool capacity: once full, new cuts are rejected. *)
  let max_cuts = 1024

  let create () = { tbl = Hashtbl.create 64; items = []; n = 0 }

  (* Structural key: direction-normalized ([Ge]) and scaled so the
     largest coefficient magnitude is 1, rounded to 9 decimal digits so
     float noise between separations of the same cut cannot split
     entries. *)
  let key (c : cut) =
    let sign = match c.cmp with Model.Ge -> 1.0 | _ -> -1.0 in
    let mx =
      List.fold_left
        (fun acc (_, w) -> Float.max acc (Float.abs w))
        0.0 c.coeffs
    in
    let scale = if mx > 0.0 then sign /. mx else sign in
    let b = Buffer.create 64 in
    List.iter
      (fun (v, w) -> Buffer.add_string b (Printf.sprintf "%d:%.9g;" v (w *. scale)))
      c.coeffs;
    Buffer.add_string b (Printf.sprintf "|%.9g" (c.rhs *. scale));
    Buffer.contents b

  let add t c =
    let k = key c in
    match Hashtbl.find_opt t.tbl k with
    | Some e ->
      if c.valid_le > e.c.valid_le then
        e.c <- { e.c with valid_le = c.valid_le };
      false
    | None ->
      if t.n >= max_cuts then false
      else begin
        let e = { c } in
        Hashtbl.add t.tbl k e;
        t.items <- e :: t.items;
        t.n <- t.n + 1;
        true
      end

  let applicable t ~deadline =
    List.rev t.items
    |> List.filter_map (fun e ->
           if deadline <= e.c.valid_le then Some e.c else None)

  let size t = t.n
end
