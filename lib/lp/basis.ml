type counters = {
  mutable flops : int;
  mutable factorizations : int;
  mutable fill_in : int;
  mutable update_nnz : int;
  mutable ftran_skips : int;
  mutable btran_skips : int;
}

let counters () =
  {
    flops = 0;
    factorizations = 0;
    fill_in = 0;
    update_nnz = 0;
    ftran_skips = 0;
    btran_skips = 0;
  }

let reset k =
  k.flops <- 0;
  k.factorizations <- 0;
  k.fill_in <- 0;
  k.update_nnz <- 0;
  k.ftran_skips <- 0;
  k.btran_skips <- 0

module type S = sig
  type t

  val create : unit -> t

  val counters : t -> counters

  val factor :
    t -> m:int -> ptr:int array -> row:int array -> vals:float array -> bool

  val ftran : t -> float array -> unit

  val btran : t -> float array -> unit

  val update : t -> r:int -> w:float array -> unit

  val updates : t -> int

  val needs_refactor : t -> bool
end

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
