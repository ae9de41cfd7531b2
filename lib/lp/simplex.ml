(* Bounded-variable revised simplex over Compiled.t, parameterized by
   the basis representation (Basis.S).

   Column layout (all indices in one namespace):
     [0, n)        structural variables, in model order;
     [n, nt)       one slack per row (coefficient exactly 1);
     [nt, nt + m)  artificials, one per row, existing only where the
                   cold start needs them (coefficient [art_sign]).

   The kernel owns every pricing, ratio-test and phase decision; the
   basis module [B] factors the basis columns, solves against them
   (FTRAN/BTRAN), absorbs one column exchange per pivot and says when to
   refactorize.  The library instance is [Make (Lu_eta)].  Reduced
   costs are priced from one BTRAN after every refactorization and
   before any phase is declared optimal; between those, each pivot
   updates them along the pivot row it has already computed.  A solve
   finishes on the factor the pivot loop already holds: one FTRAN of the
   residual recomputes the basic values, and a residual check refactors
   only when that factor has drifted.  A solve may pin its final factor
   so that a later warm start from the basis it returned reuses it
   instead of factoring.  Everything the iteration touches lives in a
   reusable workspace, so the pivot loop allocates nothing beyond the
   basis module's own update storage. *)

module C = Compiled

type solution = { objective : float; values : float array }

type partial = { phase : int; iterations : int }

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit of partial

(* Column status markers (also the wire format inside [basis]). *)
let st_basic = 0

let st_lo = 1

let st_up = 2

let st_fr = 3

type basis = {
  b_n : int;
  b_m : int;
  b_stat : Bytes.t;  (* nt entries: status of every structural/slack column *)
  b_rows : int array;  (* basic column per row; nt + i marks a kept artificial *)
  b_sign : float array;  (* artificial sign per row, 0.0 where none *)
}

type stats = {
  pivots : int;
  dual_pivots : int;
  bound_flips : int;
  bland_pivots : int;
  flops : int;
  lu_refactorizations : int;
  lu_restores : int;
  residual_max : float;
  residual_refactors : int;
  lu_fill_in_nnz : int;
  lu_eta_nnz : int;
  ftran_sparse_hits : int;
  btran_sparse_hits : int;
}

let pp_status ppf = function
  | Optimal s -> Format.fprintf ppf "optimal(%g)" s.objective
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | Iter_limit p ->
    Format.fprintf ppf "iteration-limit(phase %d, %d pivots)" p.phase
      p.iterations

(* A nonbasic column snapped onto its current bounds, keeping its side
   where that bound is finite: how a warm start reads a basis snapshot
   against changed bounds. *)
let snap st ~l ~u =
  if l = neg_infinity && u = infinity then st_fr
  else if st = st_lo then if l > neg_infinity then st_lo else st_up
  else if st = st_up then if u < infinity then st_up else st_lo
  else if l > neg_infinity then st_lo
  else st_up

let pinned st ~l ~u = if st = st_lo then l else if st = st_up then u else 0.0

(* rw := rhs - N x_N over the nonbasic structural and slack columns;
   returns the work charged (2 per entry actually touched). *)
let residual c ~stat ~xval ~rw =
  let n = c.C.n and m = c.C.m and nt = c.C.nt in
  Array.blit c.C.rhs 0 rw 0 m;
  let t = ref 0 in
  for j = 0 to nt - 1 do
    if stat.(j) <> st_basic && xval.(j) <> 0.0 then begin
      let x = xval.(j) in
      if j < n then begin
        t := !t + (2 * (c.C.col_ptr.(j + 1) - c.C.col_ptr.(j)));
        for p = c.C.col_ptr.(j) to c.C.col_ptr.(j + 1) - 1 do
          let r = c.C.col_row.(p) in
          rw.(r) <- rw.(r) -. (c.C.col_val.(p) *. x)
        done
      end
      else begin
        t := !t + 2;
        rw.(j - n) <- rw.(j - n) -. x
      end
    end
  done;
  !t

(* The basis matrix in CSC form, basis position i as column i: a
   structural column from the compiled CSC, a slack as a unit column, the
   artificial kept in row i as [sign.(i)] there.  [ptr] needs [m + 1]
   entries, [row] and [vals] [basis_cap c]. *)
let basis_cap c = c.C.col_ptr.(c.C.n) + c.C.m

let basis_csc c ~rows ~sign ~ptr ~row ~vals =
  let n = c.C.n and nt = c.C.nt in
  let len = ref 0 in
  ptr.(0) <- 0;
  for i = 0 to c.C.m - 1 do
    let k = rows.(i) in
    if k < n then
      for p = c.C.col_ptr.(k) to c.C.col_ptr.(k + 1) - 1 do
        row.(!len) <- c.C.col_row.(p);
        vals.(!len) <- c.C.col_val.(p);
        incr len
      done
    else begin
      if k < nt then begin
        row.(!len) <- k - n;
        vals.(!len) <- 1.0
      end
      else begin
        row.(!len) <- k - nt;
        vals.(!len) <- sign.(k - nt)
      end;
      incr len
    end;
    ptr.(i + 1) <- !len
  done

(* Tolerances: reduced costs ([eps]), primal feasibility ([feas_tol]),
   ratio-test pivot magnitude ([piv_tol]) and ratio ties ([rtol]). *)
let eps = 1e-7

let feas_tol = eps *. 0.01

let piv_tol = 1e-9

let rtol = 1e-9

(* Largest scaled row residual |(B x_B - (b - N x_N))_i| / (1 + |b_i|) a
   finish accepts from the held factor before refactoring. *)
let residual_tol = 1e-9

exception Stop of status * basis option

exception Fallback (* abandon the warm-start attempt, re-solve cold *)

exception Stuck of int
(* numerically hopeless state (singular refactorization, or a forced
   pivot below tolerance on a fresh factorization) in the given phase.
   Distinct from budget exhaustion: a warm-started solve that gets stuck
   restarts cold (the hint led to a bad vertex, not the problem); only a
   cold solve that gets stuck reports {!Iter_limit}. *)

module type S = sig
  type workspace

  val workspace : unit -> workspace

  val unpin : workspace -> unit

  val solve : ?max_iter:int -> Model.t -> status

  val solve_compiled :
    ?max_iter:int ->
    ?basis:basis ->
    ?ws:workspace ->
    ?pin:bool ->
    Compiled.t ->
    status * basis option * stats
end

module Make (B : Basis.S) = struct
  type workspace = {
    mutable cap_m : int;
    mutable cap_c : int;
    mutable xb : float array;  (* basic values per row *)
    mutable y : float array;  (* BTRAN result: c_B B^-1 *)
    mutable w : float array;  (* FTRAN result: B^-1 A_e *)
    mutable rw : float array;  (* rhs scratch *)
    mutable rho : float array;  (* BTRAN-of-unit-vector scratch *)
    mutable basis : int array;  (* basic column per row *)
    mutable art_sign : float array;  (* per-row artificial sign, 0 = none *)
    mutable vstat : int array;  (* per-column status *)
    mutable xval : float array;  (* nonbasic column values *)
    mutable dj : float array;  (* reduced costs *)
    mutable alpha : float array;  (* pivot row *)
    mutable refw : float array;  (* devex reference weights *)
    mutable cost : float array;  (* current-phase costs *)
    (* per-column bounds: the model's, then the artificials' 0 and their
       shared upper bound for the current phase *)
    mutable lo : float array;
    mutable hi : float array;
    (* basis columns in CSC form, handed to B.factor *)
    mutable bptr : int array;
    mutable brow : int array;
    mutable bval : float array;
    bs : B.t;
    (* the basis whose final factor [bs] holds pinned, and the
       coefficient array of the matrix it factors *)
    mutable pinned : (basis * float array) option;
  }

  let workspace () =
    {
      cap_m = 0;
      cap_c = 0;
      xb = [||];
      y = [||];
      w = [||];
      rw = [||];
      rho = [||];
      basis = [||];
      art_sign = [||];
      vstat = [||];
      xval = [||];
      dj = [||];
      alpha = [||];
      refw = [||];
      cost = [||];
      lo = [||];
      hi = [||];
      bptr = [| 0 |];
      brow = [||];
      bval = [||];
      bs = B.create ();
      pinned = None;
    }

  let ensure ws m ncols =
    if ws.cap_m < m then begin
      ws.cap_m <- m;
      ws.xb <- Array.make m 0.0;
      ws.y <- Array.make m 0.0;
      ws.w <- Array.make m 0.0;
      ws.rw <- Array.make m 0.0;
      ws.rho <- Array.make m 0.0;
      ws.basis <- Array.make m 0;
      ws.art_sign <- Array.make m 0.0;
      ws.bptr <- Array.make (m + 1) 0
    end;
    if ws.cap_c < ncols then begin
      ws.cap_c <- ncols;
      ws.vstat <- Array.make ncols st_lo;
      ws.xval <- Array.make ncols 0.0;
      ws.dj <- Array.make ncols 0.0;
      ws.alpha <- Array.make ncols 0.0;
      ws.refw <- Array.make ncols 1.0;
      ws.cost <- Array.make ncols 0.0;
      ws.lo <- Array.make ncols 0.0;
      ws.hi <- Array.make ncols 0.0
    end;
    ws

  let unpin ws =
    ws.pinned <- None;
    B.unpin ws.bs

  (* A warm hint may reuse the pinned factor only when it is physically
     the basis that factor was pinned for, on the same constraint matrix
     (a scratch view shares the matrix arrays). *)
  let pinned_for ws b c =
    match ws.pinned with
    | Some (pb, vals) -> pb == b && vals == c.C.col_val
    | None -> false

  let solve_compiled ?(max_iter = 100000) ?basis:hint ?ws ?(pin = false) c =
    let n = c.C.n and m = c.C.m and nt = c.C.nt in
    let ncols = nt + m in
    let ws =
      ensure (match ws with Some w -> w | None -> workspace ()) m ncols
    in
    if pin then unpin ws;
    let bs = ws.bs in
    let bk = B.counters bs in
    Basis.reset bk;
    let rhs_scale =
      let s = ref 1.0 in
      for i = 0 to m - 1 do
        s := Float.max !s (Float.abs c.C.rhs.(i))
      done;
      !s
    in
    (* Bounds are read from the workspace's flat arrays, never through a
       closure, which would box each float it returns.  The artificials
       sit at 0 and share one upper bound: +oo during phase 1, 0 after. *)
    let lo = ws.lo and hi = ws.hi in
    Array.blit c.C.lb 0 lo 0 nt;
    Array.blit c.C.ub 0 hi 0 nt;
    Array.fill lo nt m 0.0;
    let set_art_ub u = Array.fill hi nt m u in
    let primal_pivots = ref 0
    and dual_pivots = ref 0
    and flips = ref 0
    and blands = ref 0
    and flops = ref 0
    and res_max = ref 0.0
    and res_refactors = ref 0 in
    let total_pivots () = !primal_pivots + !dual_pivots in
    let stats () =
      {
        pivots = total_pivots ();
        dual_pivots = !dual_pivots;
        bound_flips = !flips;
        bland_pivots = !blands;
        flops = !flops + bk.Basis.flops;
        lu_refactorizations = bk.Basis.factorizations;
        lu_restores = bk.Basis.restores;
        residual_max = !res_max;
        residual_refactors = !res_refactors;
        lu_fill_in_nnz = bk.Basis.fill_in;
        lu_eta_nnz = bk.Basis.update_nnz;
        ftran_sparse_hits = bk.Basis.ftran_skips;
        btran_sparse_hits = bk.Basis.btran_skips;
      }
    in
    let limit phase =
      Stop (Iter_limit { phase; iterations = total_pivots () }, None)
    in
    (* ---- basis operations ---------------------------------------------- *)
    (* Flop charging is honest: 2 per entry actually multiplied and
       accumulated, here and inside B. *)
    let refactor () =
      let cap = basis_cap c in
      if Array.length ws.brow < cap then begin
        ws.brow <- Array.make cap 0;
        ws.bval <- Array.make cap 0.0
      end;
      basis_csc c ~rows:ws.basis ~sign:ws.art_sign ~ptr:ws.bptr ~row:ws.brow
        ~vals:ws.bval;
      B.factor bs ~m ~ptr:ws.bptr ~row:ws.brow ~vals:ws.bval
    in
    (* x_B = B^-1 (b - N x_N); ws.rw keeps b - N x_N for
       [residual_norm]. *)
    let compute_xb () =
      flops := !flops + residual c ~stat:ws.vstat ~xval:ws.xval ~rw:ws.rw;
      Array.blit ws.rw 0 ws.xb 0 m;
      B.ftran bs ws.xb
    in
    (* max_i |(B x_B - (b - N x_N))_i| / (1 + |b_i|) right after
       [compute_xb]: one pass over the basis columns, subtracting B x_B
       from ws.rw in place.  A NaN reads as infinitely far off. *)
    let residual_norm () =
      let t = ref 0 in
      for i = 0 to m - 1 do
        let k = ws.basis.(i) and x = ws.xb.(i) in
        if x <> 0.0 then
          if k < n then begin
            t := !t + (c.C.col_ptr.(k + 1) - c.C.col_ptr.(k));
            for p = c.C.col_ptr.(k) to c.C.col_ptr.(k + 1) - 1 do
              let r = c.C.col_row.(p) in
              ws.rw.(r) <- ws.rw.(r) -. (c.C.col_val.(p) *. x)
            done
          end
          else begin
            incr t;
            if k < nt then ws.rw.(k - n) <- ws.rw.(k - n) -. x
            else
              ws.rw.(k - nt) <- ws.rw.(k - nt) -. (ws.art_sign.(k - nt) *. x)
          end
      done;
      flops := !flops + (2 * !t);
      let worst = ref 0.0 in
      for i = 0 to m - 1 do
        let v = Float.abs ws.rw.(i) /. (1.0 +. Float.abs c.C.rhs.(i)) in
        let v = if Float.is_nan v then infinity else v in
        if v > !worst then worst := v
      done;
      !worst
    in
    let btran () =
      for i = 0 to m - 1 do
        ws.y.(i) <- ws.cost.(ws.basis.(i))
      done;
      B.btran bs ws.y
    in
    let reduced_cost j =
      if j < n then begin
        let s = ref ws.cost.(j) in
        flops := !flops + (2 * (c.C.col_ptr.(j + 1) - c.C.col_ptr.(j)));
        for p = c.C.col_ptr.(j) to c.C.col_ptr.(j + 1) - 1 do
          s := !s -. (c.C.col_val.(p) *. ws.y.(c.C.col_row.(p)))
        done;
        !s
      end
      else begin
        flops := !flops + 1;
        ws.cost.(j) -. ws.y.(j - n)
      end
    in
    (* Reduced costs of every nonbasic, non-fixed column from one BTRAN. *)
    let price () =
      btran ();
      for j = 0 to nt - 1 do
        if ws.vstat.(j) <> st_basic && lo.(j) < hi.(j) then
          ws.dj.(j) <- reduced_cost j
      done
    in
    let ftran e =
      Array.fill ws.w 0 m 0.0;
      if e < n then
        for p = c.C.col_ptr.(e) to c.C.col_ptr.(e + 1) - 1 do
          ws.w.(c.C.col_row.(p)) <- c.C.col_val.(p)
        done
      else ws.w.(e - n) <- 1.0;
      B.ftran bs ws.w
    in
    (* Pivot row r of B^-1 N into ws.alpha (nonbasic columns only):
       rho = B^-T e_r (one hypersparse BTRAN), priced against every
       nonbasic column. *)
    let pivot_row r =
      let t = ref 0 in
      Array.fill ws.rho 0 m 0.0;
      ws.rho.(r) <- 1.0;
      B.btran bs ws.rho;
      for j = 0 to nt - 1 do
        if ws.vstat.(j) <> st_basic then
          ws.alpha.(j) <-
            (if j < n then begin
               let s = ref 0.0 in
               t := !t + (2 * (c.C.col_ptr.(j + 1) - c.C.col_ptr.(j)));
               for p = c.C.col_ptr.(j) to c.C.col_ptr.(j + 1) - 1 do
                 s := !s +. (ws.rho.(c.C.col_row.(p)) *. c.C.col_val.(p))
               done;
               !s
             end
             else begin
               incr t;
               ws.rho.(j - n)
             end)
        else ws.alpha.(j) <- 0.0
      done;
      flops := !flops + !t
    in
    (* The reduced costs after a pivot on row r (entering e, leaving k),
       with ws.alpha holding row r: theta = d_e / alpha_e, then
       d_j -= theta alpha_j and d_k = -theta.  [false] (nothing updated)
       when the row's alpha_e and the FTRAN'd pivot ws.w.(r) disagree;
       the caller then prices afresh. *)
    let update_prices r e k =
      let ae = ws.alpha.(e) and wr = ws.w.(r) in
      if Float.abs (ae -. wr) > 1e-9 *. (1.0 +. Float.abs wr) then false
      else begin
        let theta = ws.dj.(e) /. ae in
        let t = ref 0 in
        for j = 0 to nt - 1 do
          let a = ws.alpha.(j) in
          if a <> 0.0 then begin
            ws.dj.(j) <- ws.dj.(j) -. (theta *. a);
            incr t
          end
        done;
        flops := !flops + (2 * !t);
        ws.dj.(k) <- -.theta;
        true
      end
    in
    (* Replace row r's basic column with e (ws.w must hold B^-1 A_e). *)
    let apply_pivot r e ~ve ~leave_st ~leave_val =
      let k = ws.basis.(r) in
      ws.vstat.(k) <- leave_st;
      ws.xval.(k) <- leave_val;
      ws.basis.(r) <- e;
      ws.vstat.(e) <- st_basic;
      ws.xb.(r) <- ve;
      B.update bs ~r ~w:ws.w
    in
    (* Devex-style steepest-edge reference weights. *)
    let devex_update r e =
      pivot_row r;
      let ae = ws.w.(r) in
      if Float.abs ae > 1e-12 then begin
        let ge = ws.refw.(e) in
        for j = 0 to nt - 1 do
          if ws.vstat.(j) <> st_basic && j <> e then begin
            let aj = ws.alpha.(j) in
            if aj <> 0.0 then begin
              let q = aj /. ae in
              let cand = q *. q *. ge in
              if cand > ws.refw.(j) then ws.refw.(j) <- cand
            end
          end
        done;
        ws.refw.(ws.basis.(r)) <- Float.max (ge /. (ae *. ae)) 1.0
      end
    in
    let current_z () =
      let s = ref 0.0 in
      for i = 0 to m - 1 do
        let cb = ws.cost.(ws.basis.(i)) in
        if cb <> 0.0 then s := !s +. (cb *. ws.xb.(i))
      done;
      for j = 0 to nt - 1 do
        if ws.vstat.(j) <> st_basic && ws.cost.(j) <> 0.0 && ws.xval.(j) <> 0.0
        then s := !s +. (ws.cost.(j) *. ws.xval.(j))
      done;
      !s
    in
    (* Steepest edge (d^2 over the reference weight), or Bland's
       least-index rule once the primal phase has stalled, over the
       reduced costs in ws.dj. *)
    let choose_entering ~bland =
      let best = ref (-1) and best_score = ref 0.0 in
      (try
         for j = 0 to nt - 1 do
           let st = ws.vstat.(j) in
           if st <> st_basic && lo.(j) < hi.(j) then begin
             let d = ws.dj.(j) in
             let elig =
               (d < -.eps && (st = st_lo || st = st_fr))
               || (d > eps && (st = st_up || st = st_fr))
             in
             if elig then
               if bland then begin
                 best := j;
                 raise Exit
               end
               else begin
                 let score = d *. d /. ws.refw.(j) in
                 if score > !best_score then begin
                   best_score := score;
                   best := j
                 end
               end
           end
         done
       with Exit -> ());
      !best
    in
    (* ---- primal iteration --------------------------------------------- *)
    let primal_phase ~phase =
      let iters = ref 0 in
      let stall = ref 0 in
      let bland = ref false in
      let last_z = ref infinity in
      let finished = ref None in
      (* Prices are fresh here, after every refactorization and before
         the phase is declared optimal; in between, each pivot updates
         them along its row. *)
      price ();
      let fresh = ref true in
      while !finished = None do
        if B.needs_refactor bs then begin
          if not (refactor ()) then raise (Stuck phase);
          compute_xb ();
          price ();
          fresh := true
        end;
        let e =
          match choose_entering ~bland:!bland with
          | e when e < 0 && not !fresh ->
            price ();
            fresh := true;
            choose_entering ~bland:!bland
          | e -> e
        in
        if e < 0 then finished := Some `Optimal
        else if !iters >= max_iter then finished := Some `Limit
        else begin
          let z = current_z () in
          if z < !last_z -. (1e-12 *. (1.0 +. Float.abs !last_z)) then begin
            last_z := z;
            stall := 0
          end
          else begin
            incr stall;
            if !stall > 200 then bland := true
          end;
          let dir = if ws.dj.(e) < 0.0 then 1.0 else -1.0 in
          ftran e;
          let span = hi.(e) -. lo.(e) in
          let best_t = ref span
          and leave_r = ref (-1)
          and leave_up = ref false in
          for i = 0 to m - 1 do
            let a = dir *. ws.w.(i) in
            if a > piv_tol then begin
              let l = lo.(ws.basis.(i)) in
              if l > neg_infinity then begin
                let t = Float.max 0.0 ((ws.xb.(i) -. l) /. a) in
                if
                  t < !best_t -. rtol
                  || (t < !best_t +. rtol
                     && !leave_r >= 0
                     &&
                     if !bland then ws.basis.(i) < ws.basis.(!leave_r)
                     else Float.abs ws.w.(i) > Float.abs ws.w.(!leave_r))
                then begin
                  if t < !best_t then best_t := t;
                  leave_r := i;
                  leave_up := false
                end
              end
            end
            else if a < -.piv_tol then begin
              let u = hi.(ws.basis.(i)) in
              if u < infinity then begin
                let t = Float.max 0.0 ((u -. ws.xb.(i)) /. -.a) in
                if
                  t < !best_t -. rtol
                  || (t < !best_t +. rtol
                     && !leave_r >= 0
                     &&
                     if !bland then ws.basis.(i) < ws.basis.(!leave_r)
                     else Float.abs ws.w.(i) > Float.abs ws.w.(!leave_r))
                then begin
                  if t < !best_t then best_t := t;
                  leave_r := i;
                  leave_up := true
                end
              end
            end
          done;
          if !best_t = infinity then finished := Some `Unbounded
          else if !leave_r < 0 then begin
            (* entering variable runs to its opposite bound: no basis change *)
            let t = !best_t in
            ws.xval.(e) <- (if dir > 0.0 then hi.(e) else lo.(e));
            ws.vstat.(e) <- (if dir > 0.0 then st_up else st_lo);
            flops := !flops + (2 * m);
            for i = 0 to m - 1 do
              ws.xb.(i) <- ws.xb.(i) -. (dir *. t *. ws.w.(i))
            done;
            incr flips;
            incr iters
          end
          else begin
            let r = !leave_r in
            if Float.abs ws.w.(r) < 1e-10 then begin
              (* numerically hopeless pivot: refresh the factorization and
                 retry; if it is already fresh, give up (cold restart when
                 warm-started, Iter_limit otherwise) *)
              if B.updates bs > 0 then begin
                if not (refactor ()) then raise (Stuck phase);
                compute_xb ();
                price ();
                fresh := true
              end
              else raise (Stuck phase)
            end
            else begin
              let t = !best_t in
              let k = ws.basis.(r) in
              let leave_st = if !leave_up then st_up else st_lo in
              let leave_val = if !leave_up then hi.(k) else lo.(k) in
              devex_update r e;
              let updated = update_prices r e k in
              flops := !flops + (2 * m);
              for i = 0 to m - 1 do
                if i <> r then ws.xb.(i) <- ws.xb.(i) -. (dir *. t *. ws.w.(i))
              done;
              let ve = ws.xval.(e) +. (dir *. t) in
              apply_pivot r e ~ve ~leave_st ~leave_val;
              if updated then fresh := false
              else begin
                price ();
                fresh := true
              end;
              incr iters;
              incr primal_pivots;
              if !bland then incr blands
            end
          end
        end
      done;
      match !finished with Some r -> r | None -> assert false
    in
    (* ---- phase transitions -------------------------------------------- *)
    let set_phase2_cost () =
      Array.fill ws.cost 0 ncols 0.0;
      let sgn = match c.C.sense with Model.Minimize -> 1.0 | Maximize -> -1.0 in
      for j = 0 to n - 1 do
        ws.cost.(j) <- sgn *. c.C.obj.(j)
      done
    in
    let drive_out_artificials () =
      for i = 0 to m - 1 do
        if ws.basis.(i) >= nt then begin
          pivot_row i;
          let best = ref (-1) and bestv = ref 1e-7 in
          for j = 0 to nt - 1 do
            if ws.vstat.(j) <> st_basic then begin
              let a = Float.abs ws.alpha.(j) in
              if a > !bestv then begin
                bestv := a;
                best := j
              end
            end
          done;
          if !best >= 0 then begin
            (* degenerate pivot: swap the artificial out without moving x *)
            let e = !best in
            ftran e;
            apply_pivot i e ~ve:ws.xval.(e) ~leave_st:st_lo ~leave_val:0.0;
            incr primal_pivots
          end
          (* else: redundant row; the artificial stays basic, pinned at 0
             once the artificials' upper bound drops to 0 *)
        end
      done
    in
    (* Basic values afresh from the held factor, not the pivot loop's
       running updates, checked against the rows: past [residual_tol]
       the factor is rebuilt and x_B recomputed once. *)
    let finish () =
      compute_xb ();
      let res = residual_norm () in
      if res > !res_max then res_max := res;
      if res > residual_tol then begin
        incr res_refactors;
        if not (refactor ()) then raise (Stuck 2);
        compute_xb ()
      end;
      let values = Array.make n 0.0 in
      for j = 0 to n - 1 do
        if ws.vstat.(j) <> st_basic then values.(j) <- ws.xval.(j)
      done;
      for i = 0 to m - 1 do
        let k = ws.basis.(i) in
        if k < n then values.(k) <- ws.xb.(i)
      done;
      let b_stat = Bytes.create nt in
      for j = 0 to nt - 1 do
        Bytes.unsafe_set b_stat j (Char.unsafe_chr ws.vstat.(j))
      done;
      let b =
        {
          b_n = n;
          b_m = m;
          b_stat;
          b_rows = Array.sub ws.basis 0 m;
          b_sign = Array.sub ws.art_sign 0 m;
        }
      in
      if pin then begin
        B.pin bs;
        ws.pinned <- Some (b, c.C.col_val)
      end;
      raise (Stop (Optimal { objective = C.objective c values; values },
                   Some b))
    in
    let phase2_and_finish () =
      set_phase2_cost ();
      Array.fill ws.refw 0 ncols 1.0;
      match primal_phase ~phase:2 with
      | `Optimal -> finish ()
      | `Unbounded -> raise (Stop (Unbounded, None))
      | `Limit -> raise (limit 2)
    in
    (* ---- cold start ---------------------------------------------------- *)
    let cold () =
      set_art_ub infinity;
      Array.fill ws.art_sign 0 m 0.0;
      Array.fill ws.vstat 0 ncols st_lo;
      Array.fill ws.xval 0 ncols 0.0;
      for j = 0 to nt - 1 do
        if c.C.lb.(j) > c.C.ub.(j) then raise (Stop (Infeasible, None))
      done;
      for j = 0 to n - 1 do
        let l = c.C.lb.(j) and u = c.C.ub.(j) in
        if l > neg_infinity then begin
          ws.vstat.(j) <- st_lo;
          ws.xval.(j) <- l
        end
        else if u < infinity then begin
          ws.vstat.(j) <- st_up;
          ws.xval.(j) <- u
        end
        else begin
          ws.vstat.(j) <- st_fr;
          ws.xval.(j) <- 0.0
        end
      done;
      (* residual of each row at the nonbasic point decides slack vs
         artificial start *)
      Array.blit c.C.rhs 0 ws.rw 0 m;
      for j = 0 to n - 1 do
        let x = ws.xval.(j) in
        if x <> 0.0 then
          for p = c.C.col_ptr.(j) to c.C.col_ptr.(j + 1) - 1 do
            let r = c.C.col_row.(p) in
            ws.rw.(r) <- ws.rw.(r) -. (c.C.col_val.(p) *. x)
          done
      done;
      let need_art = ref false in
      for i = 0 to m - 1 do
        let sj = n + i in
        let sl = c.C.lb.(sj) and su = c.C.ub.(sj) in
        let r = ws.rw.(i) in
        if r >= sl -. feas_tol && r <= su +. feas_tol then begin
          ws.vstat.(sj) <- st_basic;
          ws.basis.(i) <- sj;
          ws.xb.(i) <- r
        end
        else begin
          let sv = if r < sl then sl else su in
          ws.vstat.(sj) <- (if r < sl then st_lo else st_up);
          ws.xval.(sj) <- sv;
          let resid = r -. sv in
          ws.art_sign.(i) <- (if resid >= 0.0 then 1.0 else -1.0);
          ws.basis.(i) <- nt + i;
          ws.vstat.(nt + i) <- st_basic;
          ws.xb.(i) <- Float.abs resid;
          need_art := true
        end
      done;
      (* The initial basis is a diagonal of +-1 entries: never singular. *)
      if not (refactor ()) then raise (Stuck 1);
      if !need_art then begin
        Array.fill ws.cost 0 ncols 0.0;
        for i = 0 to m - 1 do
          if ws.art_sign.(i) <> 0.0 then ws.cost.(nt + i) <- 1.0
        done;
        Array.fill ws.refw 0 ncols 1.0;
        (match primal_phase ~phase:1 with
        | `Optimal -> ()
        | `Unbounded ->
          (* a sum of nonnegative artificials cannot be unbounded below:
             numerical trouble, reported as a budget stop *)
          raise (limit 1)
        | `Limit -> raise (limit 1));
        let z1 = current_z () in
        if z1 > eps *. 10.0 *. rhs_scale then raise (Stop (Infeasible, None));
        drive_out_artificials ()
      end;
      set_art_ub 0.0;
      phase2_and_finish ()
    in
    (* ---- warm start: dual reoptimization ------------------------------- *)
    let primal_feasible () =
      let ok = ref true in
      for i = 0 to m - 1 do
        let k = ws.basis.(i) in
        if ws.xb.(i) < lo.(k) -. feas_tol || ws.xb.(i) > hi.(k) +. feas_tol then
          ok := false
      done;
      !ok
    in
    let warm b =
      if b.b_n <> n || b.b_m <> m then raise Fallback;
      for j = 0 to nt - 1 do
        if c.C.lb.(j) > c.C.ub.(j) then raise (Stop (Infeasible, None))
      done;
      Array.fill ws.vstat 0 ncols st_lo;
      Array.fill ws.xval 0 ncols 0.0;
      Array.fill ws.art_sign 0 m 0.0;
      for j = 0 to nt - 1 do
        ws.vstat.(j) <- Char.code (Bytes.get b.b_stat j)
      done;
      for i = 0 to m - 1 do
        let k = b.b_rows.(i) in
        if k < 0 || k >= ncols then raise Fallback;
        if k >= nt then begin
          if k <> nt + i || b.b_sign.(i) = 0.0 then raise Fallback;
          ws.art_sign.(i) <- b.b_sign.(i)
        end;
        ws.basis.(i) <- k;
        ws.vstat.(k) <- st_basic
      done;
      set_art_ub 0.0;
      (* snap nonbasics onto the current bounds *)
      for j = 0 to nt - 1 do
        let st = ws.vstat.(j) in
        if st <> st_basic then begin
          let l = c.C.lb.(j) and u = c.C.ub.(j) in
          let st = snap st ~l ~u in
          ws.vstat.(j) <- st;
          ws.xval.(j) <- pinned st ~l ~u
        end
      done;
      (* the basis this workspace pinned a factor for needs no
         factorization *)
      if not (pinned_for ws b c && B.restore bs) && not (refactor ()) then
        raise Fallback;
      compute_xb ();
      set_phase2_cost ();
      Array.fill ws.refw 0 ncols 1.0;
      price ();
      let dual_ok = ref true in
      for j = 0 to nt - 1 do
        let st = ws.vstat.(j) in
        if st <> st_basic && lo.(j) < hi.(j) then begin
          let d = ws.dj.(j) in
          if
            (d < -.eps && (st = st_lo || st = st_fr))
            || (d > eps && (st = st_up || st = st_fr))
          then dual_ok := false
        end
      done;
      if not !dual_ok then
        if primal_feasible () then phase2_and_finish () else raise Fallback;
      (* dual simplex loop *)
      let max_dual = (2 * m) + 200 in
      let iters = ref 0 in
      let continue_dual = ref true in
      while !continue_dual do
        if !iters > max_dual then raise Fallback;
        if !iters >= max_iter then raise (limit 2);
        if B.needs_refactor bs then begin
          if not (refactor ()) then raise Fallback;
          compute_xb ();
          price ()
        end;
        let r = ref (-1) and viol = ref feas_tol and need_up = ref false in
        for i = 0 to m - 1 do
          let k = ws.basis.(i) in
          let below = lo.(k) -. ws.xb.(i) and above = ws.xb.(i) -. hi.(k) in
          if below > !viol then begin
            viol := below;
            r := i;
            need_up := true
          end;
          if above > !viol then begin
            viol := above;
            r := i;
            need_up := false
          end
        done;
        if !r < 0 then continue_dual := false
        else begin
          let r = !r in
          pivot_row r;
          let e = ref (-1) and best = ref infinity in
          for j = 0 to nt - 1 do
            let st = ws.vstat.(j) in
            if st <> st_basic && lo.(j) < hi.(j) then begin
              let a = ws.alpha.(j) in
              let good =
                if !need_up then
                  (a < -.piv_tol && (st = st_lo || st = st_fr))
                  || (a > piv_tol && (st = st_up || st = st_fr))
                else
                  (a > piv_tol && (st = st_lo || st = st_fr))
                  || (a < -.piv_tol && (st = st_up || st = st_fr))
              in
              if good then begin
                let ratio = Float.abs ws.dj.(j) /. Float.abs a in
                if
                  ratio < !best -. 1e-12
                  || (ratio < !best +. 1e-12
                     && !e >= 0
                     && Float.abs a > Float.abs ws.alpha.(!e))
                then begin
                  if ratio < !best then best := ratio;
                  e := j
                end
              end
            end
          done;
          if !e < 0 then
            (* the violated row cannot be repaired within the nonbasic
               bounds: primal infeasible *)
            raise (Stop (Infeasible, None));
          let e = !e in
          ftran e;
          if Float.abs ws.w.(r) < 1e-10 then raise Fallback;
          let k = ws.basis.(r) in
          let target = if !need_up then lo.(k) else hi.(k) in
          let dx = (ws.xb.(r) -. target) /. ws.w.(r) in
          let updated = update_prices r e k in
          flops := !flops + (2 * m);
          for i = 0 to m - 1 do
            if i <> r then ws.xb.(i) <- ws.xb.(i) -. (dx *. ws.w.(i))
          done;
          let ve = ws.xval.(e) +. dx in
          let leave_st = if !need_up then st_lo else st_up in
          apply_pivot r e ~ve ~leave_st ~leave_val:target;
          if not updated then price ();
          incr dual_pivots;
          incr iters
        end
      done;
      (* primal feasible again; a (usually pivot-free) primal phase 2
         verifies optimality and covers residual dual infeasibility *)
      phase2_and_finish ()
    in
    let st, b =
      try
        match hint with
        | Some b -> ( try warm b with Fallback | Stuck _ -> cold ())
        | None -> cold ()
      with
      | Stop (st, b) -> (st, b)
      | Stuck phase ->
        (Iter_limit { phase; iterations = total_pivots () }, None)
    in
    (st, b, stats ())

  let solve ?max_iter m =
    let st, _, _ = solve_compiled ?max_iter (Compiled.of_model m) in
    st
end

include Make (Lu_eta)
