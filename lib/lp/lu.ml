(* Sparse LU with Markowitz ordering and threshold partial pivoting.

   LP bases are mostly triangular (slacks plus short structural
   columns), so the factorization runs in two phases.  A singleton
   phase first peels row and column singletons with two worklist
   queues: a column singleton contributes a U row and no arithmetic at
   all, a row singleton contributes an L column whose multipliers are
   exact divisions — neither creates fill or roundoff, and the whole
   phase is O(nnz).  What survives is the "bump", typically a small
   fraction of the basis, and only there does the right-looking
   Markowitz elimination run: each step scans the active entries to
   find the cheapest acceptable pivot ((r_i - 1)(c_j - 1) Markowitz
   cost, |a| >= tau * colmax threshold), then merges the pivot row
   into every active row that carries the pivot column, with
   exact-zero cancellations dropped so downstream solves see them as
   skips.  Permutations are recorded as they happen; the factors are
   remapped into permuted coordinates and transposed (counting sort)
   once at the end, so each factor exists in both column- and
   row-major form and all four triangular solves can run in scatter
   (push) order with zero-skip tests. *)

type t = {
  m : int;
  (* L: unit lower triangular, strict part, permuted coordinates. *)
  lc_ptr : int array;
  lc_idx : int array;
  lc_val : float array;
  lr_ptr : int array;
  lr_idx : int array;
  lr_val : float array;
  (* U: strict upper part plus a dense diagonal. *)
  uc_ptr : int array;
  uc_idx : int array;
  uc_val : float array;
  ur_ptr : int array;
  ur_idx : int array;
  ur_val : float array;
  udiag : float array;
  p : int array;  (* step -> original row *)
  q : int array;  (* step -> original column (basis position) *)
  nnz : int;
  flops : int;
}

let nnz t = t.nnz

let flops t = t.flops

let abs_tol = 1e-11 (* matches the dense Gauss-Jordan singularity test *)

(* Threshold partial pivoting: an acceptable pivot has magnitude at
   least [tau] times the largest in its active column. *)
let tau = 0.1

let grow_i a used need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need ((2 * Array.length a) + 8)) 0 in
    Array.blit a 0 b 0 used;
    b
  end

let grow_f a used need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need ((2 * Array.length a) + 8)) 0.0 in
    Array.blit a 0 b 0 used;
    b
  end

(* Transpose a CSC-like (ptr, idx, val) of [m] columns into CSR over
   [m] rows, with column indices stored per row. *)
let transpose m ptr idx vals =
  let len = ptr.(m) in
  let cnt = Array.make (m + 1) 0 in
  for p = 0 to len - 1 do
    cnt.(idx.(p)) <- cnt.(idx.(p)) + 1
  done;
  let tptr = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    tptr.(i + 1) <- tptr.(i) + cnt.(i)
  done;
  let pos = Array.copy tptr in
  let tidx = Array.make len 0 and tval = Array.make len 0.0 in
  for j = 0 to m - 1 do
    for p = ptr.(j) to ptr.(j + 1) - 1 do
      let i = idx.(p) in
      let q = pos.(i) in
      tidx.(q) <- j;
      tval.(q) <- vals.(p);
      pos.(i) <- q + 1
    done
  done;
  (tptr, tidx, tval)

let factor ~m ~ptr ~row ~vals =
  if m = 0 then
    Some
      {
        m = 0;
        lc_ptr = [| 0 |]; lc_idx = [||]; lc_val = [||];
        lr_ptr = [| 0 |]; lr_idx = [||]; lr_val = [||];
        uc_ptr = [| 0 |]; uc_idx = [||]; uc_val = [||];
        ur_ptr = [| 0 |]; ur_idx = [||]; ur_val = [||];
        udiag = [||];
        p = [||]; q = [||];
        nnz = 0;
        flops = 0;
      }
  else begin
    (* Static filtered copy of the basis (explicit zeros dropped): CSC
       plus its CSR transpose.  The singleton phase works on these with
       alive flags — it never creates fill, so nothing grows. *)
    let cptr = Array.make (m + 1) 0 in
    for j = 0 to m - 1 do
      let c = ref 0 in
      for p = ptr.(j) to ptr.(j + 1) - 1 do
        if vals.(p) <> 0.0 then incr c
      done;
      cptr.(j + 1) <- cptr.(j) + !c
    done;
    let len = cptr.(m) in
    let crow = Array.make (max 1 len) 0 in
    let cval = Array.make (max 1 len) 0.0 in
    let pos = ref 0 in
    for j = 0 to m - 1 do
      for p = ptr.(j) to ptr.(j + 1) - 1 do
        if vals.(p) <> 0.0 then begin
          crow.(!pos) <- row.(p);
          cval.(!pos) <- vals.(p);
          incr pos
        end
      done
    done;
    let rptr, rcol, rval = transpose m cptr crow cval in
    let arcnt = Array.make m 0 and accnt = Array.make m 0 in
    for j = 0 to m - 1 do
      accnt.(j) <- cptr.(j + 1) - cptr.(j)
    done;
    for i = 0 to m - 1 do
      arcnt.(i) <- rptr.(i + 1) - rptr.(i)
    done;
    let rowgone = Array.make m false and colgone = Array.make m false in
    let perm_p = Array.make m (-1) and perm_q = Array.make m (-1) in
    (* L columns and U rows accumulate in step order. *)
    let lc_ptr = Array.make (m + 1) 0 in
    let lc_idx = ref [||] and lc_val = ref [||] and lc_len = ref 0 in
    let ur_ptr = Array.make (m + 1) 0 in
    let ur_idx = ref [||] and ur_val = ref [||] and ur_len = ref 0 in
    let udiag = Array.make m 0.0 in
    let work = ref 0 in
    let step = ref 0 in
    (* ---- Phase 1: peel row/column singletons -------------------------- *)
    (* A row or column is pushed when its alive count drops to 1, which
       happens at most once (counts only decrease), so each queue needs
       at most m slots.  Entries are validated when popped — a stale one
       (already eliminated, or count changed) is skipped.  A singleton
       whose pivot is below [abs_tol] is left alone; the bump phase will
       refuse it too and report the basis singular if nothing else
       covers it. *)
    let qc = Array.make m 0 and qc_h = ref 0 and qc_t = ref 0 in
    let qr = Array.make m 0 and qr_h = ref 0 and qr_t = ref 0 in
    for j = 0 to m - 1 do
      if accnt.(j) = 1 then begin
        qc.(!qc_t) <- j;
        incr qc_t
      end
    done;
    for i = 0 to m - 1 do
      if arcnt.(i) = 1 then begin
        qr.(!qr_t) <- i;
        incr qr_t
      end
    done;
    while !qc_h < !qc_t || !qr_h < !qr_t do
      if !qc_h < !qc_t then begin
        (* Column singleton: its lone alive row pivots; the row's other
           entries become the U row; no L entries, no arithmetic. *)
        let j = qc.(!qc_h) in
        incr qc_h;
        if (not colgone.(j)) && accnt.(j) = 1 then begin
          let i = ref (-1) and piv = ref 0.0 in
          (try
             for p = cptr.(j) to cptr.(j + 1) - 1 do
               if not rowgone.(crow.(p)) then begin
                 i := crow.(p);
                 piv := cval.(p);
                 raise Exit
               end
             done
           with Exit -> ());
          if !i >= 0 && Float.abs !piv >= abs_tol then begin
            let i = !i in
            perm_p.(!step) <- i;
            perm_q.(!step) <- j;
            udiag.(!step) <- !piv;
            lc_ptr.(!step) <- !lc_len;
            ur_ptr.(!step) <- !ur_len;
            for p = rptr.(i) to rptr.(i + 1) - 1 do
              let c = rcol.(p) in
              if c <> j && not colgone.(c) then begin
                ur_idx := grow_i !ur_idx !ur_len (!ur_len + 1);
                ur_val := grow_f !ur_val !ur_len (!ur_len + 1);
                !ur_idx.(!ur_len) <- c;
                !ur_val.(!ur_len) <- rval.(p);
                incr ur_len;
                accnt.(c) <- accnt.(c) - 1;
                if accnt.(c) = 1 then begin
                  qc.(!qc_t) <- c;
                  incr qc_t
                end
              end
            done;
            rowgone.(i) <- true;
            colgone.(j) <- true;
            incr step
          end
        end
      end
      else begin
        (* Row singleton: pivot on its lone alive column; the column's
           other entries become exact L multipliers. *)
        let i = qr.(!qr_h) in
        incr qr_h;
        if (not rowgone.(i)) && arcnt.(i) = 1 then begin
          let jj = ref (-1) and piv = ref 0.0 in
          (try
             for p = rptr.(i) to rptr.(i + 1) - 1 do
               if not colgone.(rcol.(p)) then begin
                 jj := rcol.(p);
                 piv := rval.(p);
                 raise Exit
               end
             done
           with Exit -> ());
          if !jj >= 0 && Float.abs !piv >= abs_tol then begin
            let j = !jj and piv = !piv in
            perm_p.(!step) <- i;
            perm_q.(!step) <- j;
            udiag.(!step) <- piv;
            lc_ptr.(!step) <- !lc_len;
            ur_ptr.(!step) <- !ur_len;
            for p = cptr.(j) to cptr.(j + 1) - 1 do
              let r = crow.(p) in
              if r <> i && not rowgone.(r) then begin
                lc_idx := grow_i !lc_idx !lc_len (!lc_len + 1);
                lc_val := grow_f !lc_val !lc_len (!lc_len + 1);
                !lc_idx.(!lc_len) <- r;
                !lc_val.(!lc_len) <- cval.(p) /. piv;
                incr lc_len;
                incr work;
                arcnt.(r) <- arcnt.(r) - 1;
                if arcnt.(r) = 1 then begin
                  qr.(!qr_t) <- r;
                  incr qr_t
                end
              end
            done;
            rowgone.(i) <- true;
            colgone.(j) <- true;
            incr step
          end
        end
      end
    done;
    (* ---- Phase 2: Markowitz elimination on the bump ------------------- *)
    let singular = ref false in
    if !step < m then begin
      (* Bump rows become growable (cols, vals) pairs; alive column
         counts carry over in [accnt]. *)
      let nact = ref 0 in
      let act = Array.make (m - !step) 0 in
      for i = 0 to m - 1 do
        if not rowgone.(i) then begin
          act.(!nact) <- i;
          incr nact
        end
      done;
      let rcols = Array.make m [||] and rvals = Array.make m [||] in
      let rlen = Array.make m 0 in
      for ai = 0 to !nact - 1 do
        let i = act.(ai) in
        let nc = Array.make (max 4 arcnt.(i)) 0 in
        let nv = Array.make (max 4 arcnt.(i)) 0.0 in
        let l = ref 0 in
        for p = rptr.(i) to rptr.(i + 1) - 1 do
          let c = rcol.(p) in
          if not colgone.(c) then begin
            nc.(!l) <- c;
            nv.(!l) <- rval.(p);
            incr l
          end
        done;
        rcols.(i) <- nc;
        rvals.(i) <- nv;
        rlen.(i) <- !l
      done;
      let ccnt = accnt in
      (* Per-step scratch: column maxima (stamped), pivot-row scatter
         (stamped), per-target-row merge marks (stamped), and a shared
         merge row. *)
      let colmax = Array.make m 0.0 in
      let colstamp = Array.make m (-1) in
      let pval = Array.make m 0.0 in
      let pstamp = Array.make m (-1) in
      let used = Array.make m (-1) in
      let sc_cols = Array.make m 0 and sc_vals = Array.make m 0.0 in
      let tick = ref 0 in
      (try
         for step = !step to m - 1 do
           (* Pass 1: column maxima over the active submatrix. *)
           for ai = 0 to !nact - 1 do
             let i = act.(ai) in
             let cols = rcols.(i) and vs = rvals.(i) in
             for e = 0 to rlen.(i) - 1 do
               let c = cols.(e) in
               let a = Float.abs vs.(e) in
               if colstamp.(c) <> step then begin
                 colstamp.(c) <- step;
                 colmax.(c) <- a
               end
               else if a > colmax.(c) then colmax.(c) <- a
             done
           done;
           (* Pass 2: cheapest acceptable pivot (Markowitz cost,
              threshold acceptance, deterministic magnitude/index
              tie-breaks). *)
           let pi = ref (-1) and pj = ref (-1) in
           let best_cost = ref max_int and best_mag = ref 0.0 in
           for ai = 0 to !nact - 1 do
             let i = act.(ai) in
             let cols = rcols.(i) and vs = rvals.(i) in
             let ri = rlen.(i) - 1 in
             for e = 0 to rlen.(i) - 1 do
               let c = cols.(e) in
               let a = Float.abs vs.(e) in
               if a >= abs_tol && a >= tau *. colmax.(c) then begin
                 let cost = ri * (ccnt.(c) - 1) in
                 if
                   cost < !best_cost
                   || (cost = !best_cost
                      && (a > !best_mag
                         || (a = !best_mag
                            && (!pi < 0 || i < !pi || (i = !pi && c < !pj)))))
                 then begin
                   best_cost := cost;
                   best_mag := a;
                   pi := i;
                   pj := c
                 end
               end
             done
           done;
           if !pi < 0 then begin
             singular := true;
             raise Exit
           end;
           let pi = !pi and pj = !pj in
           perm_p.(step) <- pi;
           perm_q.(step) <- pj;
           (* Scatter the pivot row; record its U row. *)
           let pcols = rcols.(pi) and pvals_r = rvals.(pi) in
           let plen = rlen.(pi) in
           let piv = ref 0.0 in
           ur_ptr.(step) <- !ur_len;
           let need = !ur_len + plen - 1 in
           ur_idx := grow_i !ur_idx !ur_len need;
           ur_val := grow_f !ur_val !ur_len need;
           for e = 0 to plen - 1 do
             let c = pcols.(e) and v = pvals_r.(e) in
             if c = pj then piv := v
             else begin
               pstamp.(c) <- step;
               pval.(c) <- v;
               !ur_idx.(!ur_len) <- c;
               !ur_val.(!ur_len) <- v;
               incr ur_len
             end
           done;
           let piv = !piv in
           udiag.(step) <- piv;
           (* Pass 3: eliminate the pivot column from every other active
              row that carries it. *)
           lc_ptr.(step) <- !lc_len;
           for ai = 0 to !nact - 1 do
             let i = act.(ai) in
             if i <> pi then begin
               let cols = rcols.(i) and vs = rvals.(i) in
               let len = rlen.(i) in
               let hit = ref (-1) in
               for e = 0 to len - 1 do
                 if cols.(e) = pj then hit := e
               done;
               if !hit >= 0 then begin
                 let f = vs.(!hit) /. piv in
                 work := !work + 1;
                 lc_idx := grow_i !lc_idx !lc_len (!lc_len + 1);
                 lc_val := grow_f !lc_val !lc_len (!lc_len + 1);
                 !lc_idx.(!lc_len) <- i;
                 !lc_val.(!lc_len) <- f;
                 incr lc_len;
                 incr tick;
                 let tk = !tick in
                 (* Merge into the shared scratch row, then copy back,
                    growing the row's own storage only when it must. *)
                 let nl = ref 0 in
                 for e = 0 to len - 1 do
                   let c = cols.(e) in
                   if c = pj then ccnt.(pj) <- ccnt.(pj) - 1
                   else if pstamp.(c) = step then begin
                     used.(c) <- tk;
                     let v = vs.(e) -. (f *. pval.(c)) in
                     work := !work + 2;
                     if v <> 0.0 then begin
                       sc_cols.(!nl) <- c;
                       sc_vals.(!nl) <- v;
                       incr nl
                     end
                     else ccnt.(c) <- ccnt.(c) - 1
                   end
                   else begin
                     sc_cols.(!nl) <- c;
                     sc_vals.(!nl) <- vs.(e);
                     incr nl
                   end
                 done;
                 (* Fill-in: pivot-row columns absent from row i. *)
                 for e = 0 to plen - 1 do
                   let c = pcols.(e) in
                   if c <> pj && used.(c) <> tk then begin
                     sc_cols.(!nl) <- c;
                     sc_vals.(!nl) <- -.f *. pval.(c);
                     work := !work + 2;
                     incr nl;
                     ccnt.(c) <- ccnt.(c) + 1
                   end
                 done;
                 let nl = !nl in
                 if Array.length cols < nl then begin
                   let cap = min m (nl + (nl / 2)) in
                   rcols.(i) <- Array.make cap 0;
                   rvals.(i) <- Array.make cap 0.0
                 end;
                 Array.blit sc_cols 0 rcols.(i) 0 nl;
                 Array.blit sc_vals 0 rvals.(i) 0 nl;
                 rlen.(i) <- nl
               end
             end
           done;
           (* Retire the pivot row and column. *)
           let w = ref 0 in
           for ai = 0 to !nact - 1 do
             let i = act.(ai) in
             if i <> pi then begin
               act.(!w) <- i;
               incr w
             end
           done;
           nact := !w;
           for e = 0 to plen - 1 do
             let c = pcols.(e) in
             ccnt.(c) <- ccnt.(c) - 1
           done
         done
       with Exit -> ())
    end;
    if !singular then None
    else begin
      lc_ptr.(m) <- !lc_len;
      ur_ptr.(m) <- !ur_len;
      let pinv = Array.make m 0 and qinv = Array.make m 0 in
      for k = 0 to m - 1 do
        pinv.(perm_p.(k)) <- k;
        qinv.(perm_q.(k)) <- k
      done;
      (* Remap stored indices into permuted coordinates: L entries are
         original rows (pivoted at a later step), U entries original
         columns (ditto). *)
      let lc_idx = Array.sub !lc_idx 0 !lc_len in
      let lc_val = Array.sub !lc_val 0 !lc_len in
      for p = 0 to !lc_len - 1 do
        lc_idx.(p) <- pinv.(lc_idx.(p))
      done;
      let ur_idx = Array.sub !ur_idx 0 !ur_len in
      let ur_val = Array.sub !ur_val 0 !ur_len in
      for p = 0 to !ur_len - 1 do
        ur_idx.(p) <- qinv.(ur_idx.(p))
      done;
      let lr_ptr, lr_idx, lr_val = transpose m lc_ptr lc_idx lc_val in
      let uc_ptr, uc_idx, uc_val = transpose m ur_ptr ur_idx ur_val in
      Some
        {
          m;
          lc_ptr; lc_idx; lc_val;
          lr_ptr; lr_idx; lr_val;
          uc_ptr; uc_idx; uc_val;
          ur_ptr; ur_idx; ur_val;
          udiag;
          p = perm_p;
          q = perm_q;
          nnz = m + !lc_len + !ur_len;
          flops = 2 * !work;
        }
    end
  end

(* FTRAN: B w = a, i.e. w = Q U^-1 L^-1 P a.  Both triangular passes
   scatter: a component that is still exactly zero when its step comes
   up pushes nothing and is counted as a skip. *)
let ftran t ~x ~tmp =
  let m = t.m in
  let fl = ref 0 and skips = ref 0 in
  for k = 0 to m - 1 do
    tmp.(k) <- x.(t.p.(k))
  done;
  (* L z = Pa, forward. *)
  for k = 0 to m - 1 do
    let v = tmp.(k) in
    if v = 0.0 then incr skips
    else
      for p = t.lc_ptr.(k) to t.lc_ptr.(k + 1) - 1 do
        tmp.(t.lc_idx.(p)) <- tmp.(t.lc_idx.(p)) -. (t.lc_val.(p) *. v);
        fl := !fl + 2
      done
  done;
  (* U y = z, backward. *)
  for k = m - 1 downto 0 do
    let v = tmp.(k) in
    if v = 0.0 then incr skips
    else begin
      let v = v /. t.udiag.(k) in
      tmp.(k) <- v;
      incr fl;
      for p = t.uc_ptr.(k) to t.uc_ptr.(k + 1) - 1 do
        tmp.(t.uc_idx.(p)) <- tmp.(t.uc_idx.(p)) -. (t.uc_val.(p) *. v);
        fl := !fl + 2
      done
    end
  done;
  for k = 0 to m - 1 do
    x.(t.q.(k)) <- tmp.(k)
  done;
  (!fl, !skips)

(* BTRAN: B^T y = c, i.e. y = P^T L^-T U^-T Q^T c. *)
let btran t ~x ~tmp =
  let m = t.m in
  let fl = ref 0 and skips = ref 0 in
  for k = 0 to m - 1 do
    tmp.(k) <- x.(t.q.(k))
  done;
  (* U^T z = Q^T c, forward, scattering along U's rows. *)
  for k = 0 to m - 1 do
    let v = tmp.(k) in
    if v = 0.0 then incr skips
    else begin
      let v = v /. t.udiag.(k) in
      tmp.(k) <- v;
      incr fl;
      for p = t.ur_ptr.(k) to t.ur_ptr.(k + 1) - 1 do
        tmp.(t.ur_idx.(p)) <- tmp.(t.ur_idx.(p)) -. (t.ur_val.(p) *. v);
        fl := !fl + 2
      done
    end
  done;
  (* L^T w = z, backward, scattering along L's rows. *)
  for k = m - 1 downto 0 do
    let v = tmp.(k) in
    if v = 0.0 then incr skips
    else
      for p = t.lr_ptr.(k) to t.lr_ptr.(k + 1) - 1 do
        tmp.(t.lr_idx.(p)) <- tmp.(t.lr_idx.(p)) -. (t.lr_val.(p) *. v);
        fl := !fl + 2
      done
  done;
  for k = 0 to m - 1 do
    x.(t.p.(k)) <- tmp.(k)
  done;
  (!fl, !skips)
