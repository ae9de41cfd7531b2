(* Model-level presolve.  Works on a mutable scratch copy of the rows
   and bounds; eliminations are logged so postsolve can replay them in
   reverse.  All reductions are exact for the MILP: bounds only ever
   tighten toward implied values, rows are only dropped when every
   point of the bound box satisfies them, and objective contributions
   of eliminated variables fold into the reduced objective constant. *)

type elim =
  | Fix of int * float  (* variable, value *)
  | Subst of {
      s_var : int;
      s_coeff : float;
      s_rhs : float;
      s_terms : (int * float) list;  (* the row's other (var, coeff) *)
    }

type row = {
  r_name : string;
  r_cmp : Model.cmp;
  mutable r_rhs : float;
  mutable r_coeffs : (int * float) list;
  mutable r_live : bool;
}

type t = {
  orig_n : int;
  reduced : Model.t;
  var_map : int array;
  actions : elim list;  (* reverse chronological: head eliminated last *)
  rows_removed : int;
  cols_removed : int;
  infeasible : bool;
}

let infeasible t = t.infeasible

let reduced t = t.reduced

let var_map t = t.var_map

let rows_removed t = t.rows_removed

let cols_removed t = t.cols_removed

exception Proven_infeasible

(* Bound on the fixpoint loop's rounds. *)
let max_rounds = 10

let presolve ?(fixings = []) ?(groups = []) model =
  let orig_n = Model.num_vars model in
  let lb = Array.make orig_n 0.0 and ub = Array.make orig_n 0.0 in
  let integer = Array.make orig_n false in
  for j = 0 to orig_n - 1 do
    let l, u = Model.bounds model j in
    lb.(j) <- l;
    ub.(j) <- u;
    integer.(j) <- Model.is_integer model j
  done;
  let rows =
    Array.of_list
      (List.map
         (fun (c : Model.constr) ->
           {
             r_name = c.c_name;
             r_cmp = c.cmp;
             r_rhs = c.rhs -. Expr.const c.expr;
             r_coeffs = Expr.coeffs c.expr;
             r_live = true;
           })
         (Model.constraints model))
  in
  let nrows = Array.length rows in
  let col_rows = Array.make orig_n [] in
  Array.iteri
    (fun i r ->
      List.iter (fun (j, _) -> col_rows.(j) <- i :: col_rows.(j)) r.r_coeffs)
    rows;
  let sense, obj_expr = Model.objective model in
  let obj = Array.make orig_n 0.0 in
  List.iter (fun (j, v) -> obj.(j) <- v) (Expr.coeffs obj_expr);
  let obj_const = ref (Expr.const obj_expr) in
  let eliminated = Array.make orig_n false in
  let actions = ref [] in
  let rows_removed = ref 0 and cols_removed = ref 0 in
  let changed = ref true in
  let kill_row i =
    if rows.(i).r_live then begin
      rows.(i).r_live <- false;
      incr rows_removed
    end
  in
  (* Group bookkeeping: every group is a one-of set of binaries backed
     by a [sum = 1] row in the model.  Skip malformed groups. *)
  let groups =
    List.filter
      (fun g ->
        g <> []
        && List.for_all
             (fun j ->
               j >= 0 && j < orig_n && integer.(j) && lb.(j) >= 0.0
               && ub.(j) <= 1.0)
             g)
      groups
  in
  let group_of = Array.make orig_n (-1) in
  List.iteri
    (fun gi g -> List.iter (fun j -> group_of.(j) <- gi) g)
    groups;
  let groups = Array.of_list groups in
  (* Tighten bounds of [j]; raising on proven-empty boxes.  Integer
     bounds are rounded inward. *)
  let tighten j ~lo ~hi =
    let lo, hi =
      if integer.(j) then
        ( (if lo = neg_infinity then lo else Float.ceil (lo -. 1e-6)),
          if hi = infinity then hi else Float.floor (hi +. 1e-6) )
      else (lo, hi)
    in
    if lo > lb.(j) +. 1e-9 then begin
      lb.(j) <- lo;
      changed := true
    end;
    if hi < ub.(j) -. 1e-9 then begin
      ub.(j) <- hi;
      changed := true
    end;
    if lb.(j) > ub.(j) +. 1e-9 then raise Proven_infeasible;
    (* collapse near-equal integer bounds onto the integer *)
    if integer.(j) && ub.(j) -. lb.(j) < 1e-9 && lb.(j) <> ub.(j) then begin
      let v = Float.round lb.(j) in
      lb.(j) <- v;
      ub.(j) <- v
    end
  in
  (* Substitute a fixed variable out of every row and the objective. *)
  let eliminate_fixed j v =
    eliminated.(j) <- true;
    actions := Fix (j, v) :: !actions;
    incr cols_removed;
    obj_const := !obj_const +. (obj.(j) *. v);
    List.iter
      (fun i ->
        let r = rows.(i) in
        if r.r_live then
          match List.assoc_opt j r.r_coeffs with
          | None -> ()
          | Some a ->
            r.r_rhs <- r.r_rhs -. (a *. v);
            r.r_coeffs <- List.filter (fun (k, _) -> k <> j) r.r_coeffs;
            changed := true
      )
      col_rows.(j)
  in
  (* One member of a group fixed at 1 forces the rest to 0; all but one
     fixed at 0 forces the survivor to 1 (its own sum-row also implies
     this, but doing it here needs no row scan). *)
  let propagate_group gi =
    if gi >= 0 then begin
      let members = groups.(gi) in
      (* Bounds persist through elimination, so an already-eliminated
         member fixed at 1 still counts as the group's choice here. *)
      let chosen = List.exists (fun j -> lb.(j) >= 0.5) members in
      let live = List.filter (fun j -> not eliminated.(j)) members in
      if chosen then
        List.iter
          (fun j -> if lb.(j) < 0.5 && ub.(j) > 0.5 then tighten j ~lo:0.0 ~hi:0.0)
          live
      else begin
        match List.filter (fun j -> ub.(j) > 0.5) live with
        | [ last ] -> tighten last ~lo:1.0 ~hi:1.0
        | [] -> raise Proven_infeasible
        | _ -> ()
      end
    end
  in
  let run () =
    (* externally implied fixings (edge filter etc.) become bounds *)
    List.iter
      (fun (j, v) ->
        if j >= 0 && j < orig_n then begin
          tighten j ~lo:v ~hi:v;
          propagate_group group_of.(j)
        end)
      fixings;
    let rounds = ref 0 in
    while !changed && !rounds < max_rounds do
      changed := false;
      incr rounds;
      (* pass 1: fix variables whose bounds have collapsed *)
      for j = 0 to orig_n - 1 do
        if (not eliminated.(j)) && ub.(j) -. lb.(j) <= 1e-12 then begin
          eliminate_fixed j lb.(j);
          propagate_group group_of.(j)
        end
      done;
      (* pass 2: row-driven reductions *)
      for i = 0 to nrows - 1 do
        let r = rows.(i) in
        if r.r_live then begin
          match r.r_coeffs with
          | [] ->
            (* empty row: constant cmp rhs *)
            let viol =
              match r.r_cmp with
              | Model.Le -> 0.0 > r.r_rhs +. 1e-7
              | Model.Ge -> 0.0 < r.r_rhs -. 1e-7
              | Model.Eq -> Float.abs r.r_rhs > 1e-7
            in
            if viol then raise Proven_infeasible else kill_row i
          | [ (j, a) ] ->
            (* singleton row: becomes a bound, exactly *)
            let v = r.r_rhs /. a in
            (match (r.r_cmp, a > 0.0) with
            | Model.Le, true | Model.Ge, false ->
              tighten j ~lo:neg_infinity ~hi:v
            | Model.Le, false | Model.Ge, true ->
              tighten j ~lo:v ~hi:infinity
            | Model.Eq, _ -> tighten j ~lo:v ~hi:v);
            propagate_group group_of.(j);
            kill_row i;
            changed := true
          | coeffs ->
            (* activity bounds: min/max of a.x over the bound box *)
            let sum_min = ref 0.0
            and sum_max = ref 0.0
            and inf_min = ref 0
            and inf_max = ref 0 in
            List.iter
              (fun (j, a) ->
                let l = lb.(j) and u = ub.(j) in
                let cmin = if a > 0.0 then a *. l else a *. u in
                let cmax = if a > 0.0 then a *. u else a *. l in
                if cmin = neg_infinity then incr inf_min
                else sum_min := !sum_min +. cmin;
                if cmax = infinity then incr inf_max
                else sum_max := !sum_max +. cmax)
              coeffs;
            let minact =
              if !inf_min > 0 then neg_infinity else !sum_min
            and maxact = if !inf_max > 0 then infinity else !sum_max in
            let rtol = 1e-7 *. (1.0 +. Float.abs r.r_rhs) in
            let drop_tol = 1e-12 *. (1.0 +. Float.abs r.r_rhs) in
            (match r.r_cmp with
            | Model.Le ->
              if minact > r.r_rhs +. rtol then raise Proven_infeasible;
              if maxact <= r.r_rhs +. drop_tol then kill_row i
            | Model.Ge ->
              if maxact < r.r_rhs -. rtol then raise Proven_infeasible;
              if minact >= r.r_rhs -. drop_tol then kill_row i
            | Model.Eq ->
              if minact > r.r_rhs +. rtol || maxact < r.r_rhs -. rtol then
                raise Proven_infeasible;
              if
                maxact -. minact <= drop_tol
                && Float.abs (minact -. r.r_rhs) <= drop_tol
              then kill_row i);
            if r.r_live then begin
              (* integer bound tightening from residual activity *)
              List.iter
                (fun (j, a) ->
                  if integer.(j) && not eliminated.(j) then begin
                    let l = lb.(j) and u = ub.(j) in
                    let cmin = if a > 0.0 then a *. l else a *. u in
                    let resid_min =
                      if cmin = neg_infinity then
                        if !inf_min > 1 then neg_infinity else !sum_min
                      else if !inf_min > 0 then neg_infinity
                      else !sum_min -. cmin
                    in
                    let cmax = if a > 0.0 then a *. u else a *. l in
                    let resid_max =
                      if cmax = infinity then
                        if !inf_max > 1 then infinity else !sum_max
                      else if !inf_max > 0 then infinity
                      else !sum_max -. cmax
                    in
                    (* a*x <= rhs - resid_min (Le/Eq);
                       a*x >= rhs - resid_max (Ge/Eq) *)
                    (if
                       (r.r_cmp = Model.Le || r.r_cmp = Model.Eq)
                       && resid_min > neg_infinity
                     then
                       let room = r.r_rhs -. resid_min in
                       if a > 0.0 then
                         tighten j ~lo:neg_infinity ~hi:(room /. a)
                       else tighten j ~lo:(room /. a) ~hi:infinity);
                    if
                      (r.r_cmp = Model.Ge || r.r_cmp = Model.Eq)
                      && resid_max < infinity
                    then begin
                      let need = r.r_rhs -. resid_max in
                      if a > 0.0 then tighten j ~lo:(need /. a) ~hi:infinity
                      else tighten j ~lo:neg_infinity ~hi:(need /. a)
                    end;
                    if ub.(j) < u -. 0.5 || lb.(j) > l +. 0.5 then
                      propagate_group group_of.(j)
                  end)
                coeffs
            end
        end
      done;
      (* pass 3: GUB-implied fixings on <= rows.  Treat each one-of
         group as a unit: its best-case contribution is the cheapest
         selectable member (or 0 if some member is absent from the
         row), so a member whose own coefficient overruns the slack
         left by everyone else's best case can never be selected. *)
      if Array.length groups > 0 then
        for i = 0 to nrows - 1 do
          let r = rows.(i) in
          if r.r_live && r.r_cmp = Model.Le then begin
            let ngroups = Array.length groups in
            let gmin = Array.make ngroups infinity in
            let gpresent = Array.make ngroups 0 in
            let base = ref 0.0 and base_inf = ref false in
            List.iter
              (fun (j, a) ->
                let gi = if eliminated.(j) then -1 else group_of.(j) in
                if gi >= 0 then begin
                  if ub.(j) > 0.5 then gmin.(gi) <- Float.min gmin.(gi) a;
                  gpresent.(gi) <- gpresent.(gi) + 1
                end
                else begin
                  let cmin = if a > 0.0 then a *. lb.(j) else a *. ub.(j) in
                  if cmin = neg_infinity then base_inf := true
                  else base := !base +. cmin
                end)
              r.r_coeffs;
            (* groups with an absent (or zero-fixed) selectable member
               can contribute 0 *)
            Array.iteri
              (fun gi g ->
                if gpresent.(gi) > 0 then begin
                  let live =
                    List.filter (fun j -> not eliminated.(j)) g
                  in
                  let absent =
                    List.exists
                      (fun j ->
                        ub.(j) > 0.5
                        && not (List.mem_assoc j r.r_coeffs))
                      live
                  in
                  if absent then gmin.(gi) <- Float.min gmin.(gi) 0.0;
                  if gmin.(gi) = infinity then gmin.(gi) <- 0.0
                end)
              groups;
            if not !base_inf then begin
              let total = ref !base in
              Array.iteri
                (fun gi _ ->
                  if gpresent.(gi) > 0 then total := !total +. gmin.(gi))
                groups;
              let ftol = 1e-6 *. (1.0 +. Float.abs r.r_rhs) in
              List.iter
                (fun (j, a) ->
                  let gi = if eliminated.(j) then -1 else group_of.(j) in
                  if gi >= 0 && ub.(j) > 0.5 && lb.(j) < 0.5 then begin
                    let with_j = !total -. gmin.(gi) +. a in
                    if with_j > r.r_rhs +. ftol then begin
                      tighten j ~lo:0.0 ~hi:0.0;
                      propagate_group gi
                    end
                  end)
                r.r_coeffs
            end
          end
        done;
      (* pass 4: free column singletons in equality rows *)
      for j = 0 to orig_n - 1 do
        if
          (not eliminated.(j))
          && (not integer.(j))
          && lb.(j) = neg_infinity
          && ub.(j) = infinity
        then begin
          let occ =
            List.filter
              (fun i ->
                rows.(i).r_live && List.mem_assoc j rows.(i).r_coeffs)
              col_rows.(j)
          in
          match occ with
          | [ i ] when rows.(i).r_cmp = Model.Eq ->
            let r = rows.(i) in
            let a = List.assoc j r.r_coeffs in
            if Float.abs a > 1e-9 then begin
              let others =
                List.filter (fun (k, _) -> k <> j) r.r_coeffs
              in
              (* x_j = (rhs - others)/a, always in range: fold the
                 objective through and drop both row and column *)
              obj_const := !obj_const +. (obj.(j) *. r.r_rhs /. a);
              List.iter
                (fun (k, ak) ->
                  obj.(k) <- obj.(k) -. (obj.(j) *. ak /. a))
                others;
              actions :=
                Subst { s_var = j; s_coeff = a; s_rhs = r.r_rhs; s_terms = others }
                :: !actions;
              eliminated.(j) <- true;
              incr cols_removed;
              kill_row i;
              changed := true
            end
          | _ -> ()
        end
      done
    done
  in
  let infeasible =
    try
      run ();
      false
    with Proven_infeasible -> true
  in
  (* build the reduced model *)
  let var_map = Array.make orig_n (-1) in
  let red = Model.create () in
  if infeasible then begin
    (* stub: one variable trapped by contradictory rows, so solving the
       stub also reports infeasible if anyone tries *)
    let v = Model.add_var ~name:"infeasible" red in
    Model.add_constraint red (Expr.var v) Model.Le (-1.0);
    Model.add_constraint red (Expr.var v) Model.Ge 1.0;
    {
      orig_n;
      reduced = red;
      var_map;
      actions = !actions;
      rows_removed = !rows_removed;
      cols_removed = !cols_removed;
      infeasible;
    }
  end
  else begin
    for j = 0 to orig_n - 1 do
      if not eliminated.(j) then
        var_map.(j) <-
          Model.add_var ~lb:lb.(j) ~ub:ub.(j) ~integer:integer.(j)
            ~name:(Model.name model j) red
    done;
    Array.iter
      (fun r ->
        if r.r_live then begin
          match r.r_coeffs with
          | [] -> ()
          | coeffs ->
            let e =
              Expr.of_terms
                (List.map (fun (j, a) -> (a, var_map.(j))) coeffs)
            in
            Model.add_constraint ~name:r.r_name red e r.r_cmp r.r_rhs
        end)
      rows;
    let terms = ref [] in
    for j = orig_n - 1 downto 0 do
      if (not eliminated.(j)) && obj.(j) <> 0.0 then
        terms := (obj.(j), var_map.(j)) :: !terms
    done;
    Model.set_objective red sense (Expr.of_terms ~const:!obj_const !terms);
    {
      orig_n;
      reduced = red;
      var_map;
      actions = !actions;
      rows_removed = !rows_removed;
      cols_removed = !cols_removed;
      infeasible;
    }
  end

let postsolve t reduced_values =
  let out = Array.make t.orig_n 0.0 in
  for j = 0 to t.orig_n - 1 do
    if t.var_map.(j) >= 0 then out.(j) <- reduced_values.(t.var_map.(j))
  done;
  (* head of [actions] was eliminated last, so its dependencies (only
     ever variables still alive when it was eliminated) are already
     restored by the time we reach it *)
  List.iter
    (function
      | Fix (j, v) -> out.(j) <- v
      | Subst { s_var; s_coeff; s_rhs; s_terms } ->
        let s = ref s_rhs in
        List.iter (fun (k, a) -> s := !s -. (a *. out.(k))) s_terms;
        out.(s_var) <- !s /. s_coeff)
    t.actions;
  out

let pp_summary ppf t =
  Format.fprintf ppf "presolve: %d rows, %d cols removed%s" t.rows_removed
    t.cols_removed
    (if t.infeasible then " (proven infeasible)" else "")
