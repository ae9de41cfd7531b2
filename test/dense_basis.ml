(* Explicit dense basis inverse: the oracle the sparse LU + eta-file
   basis (Dvs_lp.Lu_eta) is checked against.  B^-1 is a dense row-major
   m*m matrix, built by Gauss-Jordan ([dense_inverse]) and updated by
   elementary row operations on every pivot; it is rebuilt every 128
   pivots.  Flops are charged honestly (2 per entry touched), so the
   sparse basis must come out cheaper on any sizeable model.  It keeps
   no pinned copy: [restore] answers [false], so the kernel factors
   wherever the LU basis restores. *)

open Dvs_lp

(* Gauss-Jordan elimination with partial pivoting: on entry the first
   m*m entries of [fact] hold B row-major; on success [binv] holds B^-1
   row-major ([fact] is destroyed either way).  [false] when some column
   has no pivot of magnitude at least 1e-11, the singularity floor of
   Lu.factor.  [flops] accumulates the work (4 per entry of every row
   scaled or eliminated). *)
let dense_inverse ~m ~fact ~binv ~flops =
  Array.fill binv 0 (m * m) 0.0;
  for i = 0 to m - 1 do
    binv.((i * m) + i) <- 1.0
  done;
  let ok = ref true in
  (try
     for col = 0 to m - 1 do
       let best = ref col and bestv = ref (Float.abs fact.((col * m) + col)) in
       for r = col + 1 to m - 1 do
         let v = Float.abs fact.((r * m) + col) in
         if v > !bestv then begin
           best := r;
           bestv := v
         end
       done;
       if !bestv < 1e-11 then begin
         ok := false;
         raise Exit
       end;
       if !best <> col then begin
         let oa = col * m and ob = !best * m in
         for q = 0 to m - 1 do
           let t = fact.(oa + q) in
           fact.(oa + q) <- fact.(ob + q);
           fact.(ob + q) <- t;
           let t = binv.(oa + q) in
           binv.(oa + q) <- binv.(ob + q);
           binv.(ob + q) <- t
         done
       end;
       let off = col * m in
       let ipiv = 1.0 /. fact.(off + col) in
       flops := !flops + (4 * m);
       for q = 0 to m - 1 do
         fact.(off + q) <- fact.(off + q) *. ipiv;
         binv.(off + q) <- binv.(off + q) *. ipiv
       done;
       for r = 0 to m - 1 do
         if r <> col then begin
           let f = fact.((r * m) + col) in
           if f <> 0.0 then begin
             let offr = r * m in
             flops := !flops + (4 * m);
             for q = 0 to m - 1 do
               fact.(offr + q) <- fact.(offr + q) -. (f *. fact.(off + q));
               binv.(offr + q) <- binv.(offr + q) -. (f *. binv.(off + q))
             done
           end
         end
       done
     done
   with Exit -> ());
  !ok

type t = {
  mutable m : int;
  mutable binv : float array;
  mutable fact : float array;
  mutable tmp : float array;
  mutable updates : int;
  k : Basis.counters;
}

let create () =
  {
    m = 0;
    binv = [||];
    fact = [||];
    tmp = [||];
    updates = 0;
    k = Basis.counters ();
  }

let counters t = t.k

let updates t = t.updates

let needs_refactor t = t.updates >= 128

let factor t ~m ~ptr ~row ~vals =
  if Array.length t.binv < m * m then begin
    t.binv <- Array.make (m * m) 0.0;
    t.fact <- Array.make (m * m) 0.0;
    t.tmp <- Array.make m 0.0
  end;
  t.m <- m;
  Array.fill t.fact 0 (m * m) 0.0;
  for i = 0 to m - 1 do
    for p = ptr.(i) to ptr.(i + 1) - 1 do
      t.fact.((row.(p) * m) + i) <- vals.(p)
    done
  done;
  let flops = ref 0 in
  let ok = dense_inverse ~m ~fact:t.fact ~binv:t.binv ~flops in
  t.k.flops <- t.k.flops + !flops;
  if ok then begin
    t.k.factorizations <- t.k.factorizations + 1;
    t.updates <- 0
  end;
  ok

(* x := B^-1 x, one column of B^-1 per nonzero of x. *)
let ftran t x =
  let m = t.m in
  Array.fill t.tmp 0 m 0.0;
  for k = 0 to m - 1 do
    let v = x.(k) in
    if v <> 0.0 then begin
      t.k.flops <- t.k.flops + (2 * m);
      for i = 0 to m - 1 do
        t.tmp.(i) <- t.tmp.(i) +. (t.binv.((i * m) + k) *. v)
      done
    end
  done;
  Array.blit t.tmp 0 x 0 m

(* x := B^-T x, one row of B^-1 per nonzero of x. *)
let btran t x =
  let m = t.m in
  Array.fill t.tmp 0 m 0.0;
  for k = 0 to m - 1 do
    let v = x.(k) in
    if v <> 0.0 then begin
      t.k.flops <- t.k.flops + (2 * m);
      let off = k * m in
      for i = 0 to m - 1 do
        t.tmp.(i) <- t.tmp.(i) +. (t.binv.(off + i) *. v)
      done
    end
  done;
  Array.blit t.tmp 0 x 0 m

(* Pivot on row r of the entering column's FTRAN w: scale row r of
   B^-1, eliminate w from every other row. *)
let update t ~r ~w =
  let m = t.m and binv = t.binv in
  let offr = r * m in
  let ipiv = 1.0 /. w.(r) in
  t.k.flops <- t.k.flops + (2 * m);
  for q = 0 to m - 1 do
    binv.(offr + q) <- binv.(offr + q) *. ipiv
  done;
  for i = 0 to m - 1 do
    if i <> r then begin
      let f = w.(i) in
      if f <> 0.0 then begin
        let offi = i * m in
        t.k.flops <- t.k.flops + (2 * m);
        for q = 0 to m - 1 do
          binv.(offi + q) <- binv.(offi + q) -. (f *. binv.(offr + q))
        done
      end
    end
  done;
  t.updates <- t.updates + 1

let pin _ = ()

let restore _ = false

let unpin _ = ()
