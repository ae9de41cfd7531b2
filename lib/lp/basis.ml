type counters = {
  mutable flops : int;
  mutable factorizations : int;
  mutable restores : int;
  mutable fill_in : int;
  mutable update_nnz : int;
  mutable ftran_skips : int;
  mutable btran_skips : int;
}

let counters () =
  {
    flops = 0;
    factorizations = 0;
    restores = 0;
    fill_in = 0;
    update_nnz = 0;
    ftran_skips = 0;
    btran_skips = 0;
  }

let reset k =
  k.flops <- 0;
  k.factorizations <- 0;
  k.restores <- 0;
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

  val pin : t -> unit

  val restore : t -> bool

  val unpin : t -> unit
end
