type t = {
  n : int;
  m : int;
  nt : int;
  lb : float array;
  ub : float array;
  lb0 : float array;
  ub0 : float array;
  integer : bool array;
  obj : float array;
  obj_const : float;
  sense : Model.sense;
  col_ptr : int array;
  col_row : int array;
  col_val : float array;
  row_ptr : int array;
  row_col : int array;
  row_val : float array;
  rhs : float array;
  fingerprint : int;
}

let inf = infinity

(* FNV-1a over the compiled arrays, folding floats by their bit
   patterns so the hash is exact, not tolerance-based. *)
let fnv_prime = 0x100000001b3

let hash_init = 0x3bf29ce484222325 (* FNV offset basis, truncated to 62 bits *)

let mix h x = (h lxor x) * fnv_prime

let mix_float h f = mix h (Int64.to_int (Int64.bits_of_float f))

let compute_fingerprint ~n ~m ~lb0 ~ub0 ~integer ~obj ~obj_const ~sense
    ~row_ptr ~row_col ~row_val ~rhs =
  let h = ref hash_init in
  h := mix !h n;
  h := mix !h m;
  h := mix !h (match (sense : Model.sense) with Minimize -> 1 | Maximize -> 2);
  h := mix_float !h obj_const;
  for j = 0 to n - 1 do
    h := mix_float !h lb0.(j);
    h := mix_float !h ub0.(j);
    h := mix !h (if integer.(j) then 1 else 0);
    h := mix_float !h obj.(j)
  done;
  for i = 0 to m - 1 do
    h := mix_float !h lb0.(n + i);
    h := mix_float !h ub0.(n + i);
    h := mix_float !h rhs.(i);
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      h := mix !h row_col.(k);
      h := mix_float !h row_val.(k)
    done
  done;
  !h land max_int

let of_model model =
  let n = Model.num_vars model in
  let constrs = Array.of_list (Model.constraints model) in
  let m = Array.length constrs in
  let nt = n + m in
  let lb0 = Array.make nt 0.0 and ub0 = Array.make nt inf in
  let integer = Array.make n false in
  for j = 0 to n - 1 do
    let l, u = Model.bounds model j in
    lb0.(j) <- l;
    ub0.(j) <- u;
    integer.(j) <- Model.is_integer model j
  done;
  (* Rows in insertion order.  Each is scaled by its largest structural
     coefficient magnitude (kept positive so Le/Ge semantics survive);
     the slack column keeps coefficient exactly 1 with scaled bounds
     folded into lb0/ub0 at [n + i]. *)
  let rhs = Array.make m 0.0 in
  let row_coeffs = Array.make m [] in
  let nnz = ref 0 in
  Array.iteri
    (fun i (c : Model.constr) ->
      let terms = Expr.coeffs c.expr in
      (* add_constraint already folds the constant into rhs; fold again
         defensively for models built through other paths. *)
      let r = c.rhs -. Expr.const c.expr in
      let scale =
        List.fold_left (fun acc (_, v) -> Float.max acc (Float.abs v)) 0.0 terms
      in
      let scale = if scale > 0.0 then scale else 1.0 in
      let terms =
        List.filter_map
          (fun (j, v) ->
            let v = v /. scale in
            if v = 0.0 then None else Some (j, v))
          terms
      in
      nnz := !nnz + List.length terms;
      row_coeffs.(i) <- terms;
      rhs.(i) <- r /. scale;
      let sl, su =
        match c.cmp with
        | Model.Le -> (0.0, inf)
        | Model.Ge -> (neg_infinity, 0.0)
        | Model.Eq -> (0.0, 0.0)
      in
      lb0.(n + i) <- sl;
      ub0.(n + i) <- su)
    constrs;
  let nnz = !nnz in
  let row_ptr = Array.make (m + 1) 0 in
  let row_col = Array.make nnz 0 in
  let row_val = Array.make nnz 0.0 in
  let k = ref 0 in
  for i = 0 to m - 1 do
    row_ptr.(i) <- !k;
    List.iter
      (fun (j, v) ->
        row_col.(!k) <- j;
        row_val.(!k) <- v;
        incr k)
      row_coeffs.(i)
  done;
  row_ptr.(m) <- !k;
  (* CSC from CSR by column counting; rows end up in increasing row
     order within each column. *)
  let col_ptr = Array.make (n + 1) 0 in
  for k = 0 to nnz - 1 do
    col_ptr.(row_col.(k) + 1) <- col_ptr.(row_col.(k) + 1) + 1
  done;
  for j = 1 to n do
    col_ptr.(j) <- col_ptr.(j) + col_ptr.(j - 1)
  done;
  let col_row = Array.make nnz 0 in
  let col_val = Array.make nnz 0.0 in
  let next = Array.copy col_ptr in
  for i = 0 to m - 1 do
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let j = row_col.(k) in
      let p = next.(j) in
      col_row.(p) <- i;
      col_val.(p) <- row_val.(k);
      next.(j) <- p + 1
    done
  done;
  let sense, obj_expr = Model.objective model in
  let obj = Array.make n 0.0 in
  List.iter (fun (j, v) -> obj.(j) <- v) (Expr.coeffs obj_expr);
  let obj_const = Expr.const obj_expr in
  let fingerprint =
    compute_fingerprint ~n ~m ~lb0 ~ub0 ~integer ~obj ~obj_const ~sense
      ~row_ptr ~row_col ~row_val ~rhs
  in
  {
    n;
    m;
    nt;
    lb = Array.copy lb0;
    ub = Array.copy ub0;
    lb0;
    ub0;
    integer;
    obj;
    obj_const;
    sense;
    col_ptr;
    col_row;
    col_val;
    row_ptr;
    row_col;
    row_val;
    rhs;
    fingerprint;
  }

let objective t x =
  let s = ref t.obj_const in
  for j = 0 to t.n - 1 do
    s := !s +. (t.obj.(j) *. x.(j))
  done;
  !s

let scratch t = { t with lb = Array.copy t.lb0; ub = Array.copy t.ub0 }

let set_bounds t j ~lb ~ub =
  if j < 0 || j >= t.n then
    invalid_arg "Compiled.set_bounds: not a structural column";
  if lb > ub then invalid_arg "Compiled.set_bounds: lb > ub";
  t.lb.(j) <- lb;
  t.ub.(j) <- ub

let reset_bounds t j =
  if j < 0 || j >= t.nt then invalid_arg "Compiled.reset_bounds";
  t.lb.(j) <- t.lb0.(j);
  t.ub.(j) <- t.ub0.(j)

let fingerprint t = t.fingerprint
