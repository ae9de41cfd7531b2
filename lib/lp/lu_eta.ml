(* Sparse LU factorization + product-form eta file.  Eta k pivots on row
   eta_row.(k) with pivot element eta_piv.(k); the off-pivot nonzeros of
   its FTRAN column live in eta_idx/eta_val.(eta_ptr.(k) ..
   eta_ptr.(k+1) - 1).  The current factorization's etas are
   [eta_lo, eta_n).  A pin keeps a factorization and its etas
   [pin_lo, pin_n): while it is held, a new factorization starts its eta
   file at pin_n, so the pinned prefix is never overwritten and
   [restore] only has to reset the indices. *)

type pinned = {
  p_m : int;
  p_lu : Lu.t;
  p_lu_nnz : int;
  p_lo : int;
  p_n : int;
  p_nnz : int;
}

type t = {
  mutable m : int;
  mutable lu : Lu.t option;  (* current factorization *)
  mutable tmp : float array;  (* permuted solve scratch, >= m *)
  mutable lu_nnz : int;
  mutable eta_nnz : int;  (* entries in the current eta file *)
  mutable eta_lo : int;  (* first eta of the current factorization *)
  mutable eta_n : int;
  mutable eta_row : int array;
  mutable eta_piv : float array;
  mutable eta_ptr : int array;
  mutable eta_idx : int array;
  mutable eta_val : float array;
  mutable pin : pinned option;
  k : Basis.counters;
}

let create () =
  {
    m = 0;
    lu = None;
    tmp = [||];
    lu_nnz = 0;
    eta_nnz = 0;
    eta_lo = 0;
    eta_n = 0;
    eta_row = [||];
    eta_piv = [||];
    eta_ptr = [| 0 |];
    eta_idx = [||];
    eta_val = [||];
    pin = None;
    k = Basis.counters ();
  }

let counters t = t.k

let updates t = t.eta_n - t.eta_lo

let grow_int a used need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need ((2 * Array.length a) + 8)) 0 in
    Array.blit a 0 b 0 used;
    b
  end

let grow_flt a used need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need ((2 * Array.length a) + 8)) 0.0 in
    Array.blit a 0 b 0 used;
    b
  end

let factor t ~m ~ptr ~row ~vals =
  match Lu.factor ~m ~ptr ~row ~vals with
  | None -> false
  | Some lu ->
    if Array.length t.tmp < m then t.tmp <- Array.make m 0.0;
    t.m <- m;
    t.lu <- Some lu;
    t.lu_nnz <- Lu.nnz lu;
    t.eta_lo <- (match t.pin with Some p -> p.p_n | None -> 0);
    t.eta_n <- t.eta_lo;
    t.eta_nnz <- 0;
    let k = t.k in
    k.factorizations <- k.factorizations + 1;
    k.fill_in <- k.fill_in + max 0 (Lu.nnz lu - ptr.(m));
    k.flops <- k.flops + Lu.flops lu;
    true

let factorization t =
  match t.lu with
  | Some lu -> lu
  | None -> invalid_arg "Lu_eta: no factorization"

(* Factorization, then E_1^-1 .. E_k^-1 in pivot order.  An eta whose
   pivot component is exactly zero is a no-op (skip). *)
let ftran t v =
  let k = t.k in
  let fl, sk = Lu.ftran (factorization t) ~x:v ~tmp:t.tmp in
  k.flops <- k.flops + fl;
  k.ftran_skips <- k.ftran_skips + sk;
  for e = t.eta_lo to t.eta_n - 1 do
    let r = t.eta_row.(e) in
    let xr = v.(r) in
    if xr = 0.0 then k.ftran_skips <- k.ftran_skips + 1
    else begin
      let xr = xr /. t.eta_piv.(e) in
      v.(r) <- xr;
      let b = t.eta_ptr.(e) and f = t.eta_ptr.(e + 1) in
      k.flops <- k.flops + 1 + (2 * (f - b));
      for p = b to f - 1 do
        let i = t.eta_idx.(p) in
        v.(i) <- v.(i) -. (t.eta_val.(p) *. xr)
      done
    end
  done

(* E_k^-T .. E_1^-T (reverse order; each transposed eta only rewrites
   its pivot component), then the transposed factorization. *)
let btran t v =
  let k = t.k in
  for e = t.eta_n - 1 downto t.eta_lo do
    let r = t.eta_row.(e) in
    let b = t.eta_ptr.(e) and f = t.eta_ptr.(e + 1) in
    let s = ref v.(r) in
    for p = b to f - 1 do
      s := !s -. (t.eta_val.(p) *. v.(t.eta_idx.(p)))
    done;
    k.flops <- k.flops + 1 + (2 * (f - b));
    v.(r) <- !s /. t.eta_piv.(e)
  done;
  let fl, sk = Lu.btran (factorization t) ~x:v ~tmp:t.tmp in
  k.flops <- k.flops + fl;
  k.btran_skips <- k.btran_skips + sk

(* Record w (= B^-1 a_e) as the eta of a pivot on row r. *)
let update t ~r ~w =
  let m = t.m and e = t.eta_n in
  t.eta_row <- grow_int t.eta_row e (e + 1);
  t.eta_piv <- grow_flt t.eta_piv e (e + 1);
  t.eta_ptr <- grow_int t.eta_ptr (e + 1) (e + 2);
  let base = t.eta_ptr.(e) in
  let cnt = ref 0 in
  for i = 0 to m - 1 do
    if i <> r && w.(i) <> 0.0 then incr cnt
  done;
  t.eta_idx <- grow_int t.eta_idx base (base + !cnt);
  t.eta_val <- grow_flt t.eta_val base (base + !cnt);
  let pos = ref base in
  for i = 0 to m - 1 do
    if i <> r && w.(i) <> 0.0 then begin
      t.eta_idx.(!pos) <- i;
      t.eta_val.(!pos) <- w.(i);
      incr pos
    end
  done;
  t.eta_row.(e) <- r;
  t.eta_piv.(e) <- w.(r);
  t.eta_ptr.(e + 1) <- !pos;
  t.eta_n <- e + 1;
  t.eta_nnz <- t.eta_nnz + !cnt + 1;
  t.k.update_nnz <- t.k.update_nnz + !cnt + 1

let eta_fill_due ~max_updates ~growth t =
  let updates = updates t in
  updates > 0
  && (updates >= max_updates
     || float_of_int t.eta_nnz > growth *. float_of_int (t.lu_nnz + t.m))

let needs_refactor = eta_fill_due ~max_updates:256 ~growth:2.0

let pin t =
  match t.lu with
  | None -> t.pin <- None
  | Some lu ->
    t.pin <-
      Some
        {
          p_m = t.m;
          p_lu = lu;
          p_lu_nnz = t.lu_nnz;
          p_lo = t.eta_lo;
          p_n = t.eta_n;
          p_nnz = t.eta_nnz;
        }

let restore t =
  match t.pin with
  | None -> false
  | Some p ->
    t.m <- p.p_m;
    t.lu <- Some p.p_lu;
    t.lu_nnz <- p.p_lu_nnz;
    t.eta_lo <- p.p_lo;
    t.eta_n <- p.p_n;
    t.eta_nnz <- p.p_nnz;
    t.k.restores <- t.k.restores + 1;
    true

let unpin t = t.pin <- None
