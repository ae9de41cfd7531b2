let of_params (p : Params.t) =
  p.n_overlap +. p.n_dependent +. p.n_cache
